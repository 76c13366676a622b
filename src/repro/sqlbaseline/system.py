"""The SQL-based video retrieval system (paper §4).

Front end shared with the direct system: the conjunctive temporal formula
is parsed, its atomic subformulas identified, and their similarity tables
taken as input; this system then generates a sequence of SQL queries and
executes them on an in-memory SQLite database (the paper used Sybase),
reading the final table back as a similarity list.

Bulk loading of the atomic similarity tables is one ``executemany`` per
relation (the analogue of Sybase's ``bcp``), so measured query times
cover translation + SQL execution, not data entry.
"""

from __future__ import annotations

import re
import sqlite3
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.core.ops import DEFAULT_UNTIL_THRESHOLD
from repro.core.simlist import SimilarityList
from repro.errors import SQLExecutionError, UnsupportedFormulaError, WorkloadError
from repro.htl import ast
from repro.sqlbaseline.translate import SQLTranslator, Translation
from repro.sqlbaseline.translate_type2 import (
    LoadedAtom,
    Type2SQLTranslator,
    Type2Translation,
)


def _sanitize(name: str) -> str:
    cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name).lower()
    if not cleaned or cleaned[0].isdigit():
        cleaned = "p_" + cleaned
    return cleaned


#: The columns of an interval-list relation (paper §3.1's table shape).
_ENTRY_COLUMNS = ["beg_id INTEGER", "end_id INTEGER", "act REAL"]


def _connect() -> sqlite3.Connection:
    """A private in-memory database in autocommit mode."""
    return sqlite3.connect(":memory:", isolation_level=None)


def _create(
    connection: sqlite3.Connection,
    table: str,
    columns: Sequence[str],
    rows: Iterable[tuple],
) -> None:
    """(Re)create a relation and bulk-load its rows."""
    connection.execute(f"DROP TABLE IF EXISTS {table}")
    connection.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
    placeholders = ", ".join("?" * len(columns))
    connection.executemany(f"INSERT INTO {table} VALUES ({placeholders})", rows)


def _load_segments(connection: sqlite3.Connection, n_segments: int) -> None:
    """The axis relation ``segments`` with ids 1..n."""
    _create(
        connection,
        "segments",
        ["id INTEGER PRIMARY KEY"],
        ((i,) for i in range(1, n_segments + 1)),
    )


def _run(
    connection: sqlite3.Connection,
    translation: Union[Translation, Type2Translation],
) -> SimilarityList:
    """Execute a script, read its output table back, drop its temporaries.

    Any SQLite failure becomes :class:`SQLExecutionError` naming the
    statement; the temporary tables are dropped either way.
    """
    statement = ""
    try:
        for statement in translation.statements:
            connection.execute(statement)
        statement = (
            f"SELECT beg_id, end_id, act FROM {translation.output_table}"
        )
        rows = connection.execute(statement).fetchall()
    except sqlite3.Error as error:
        raise SQLExecutionError(
            f"SQLite failed: {error}", statement=statement
        ) from error
    finally:
        for table in translation.temp_tables:
            connection.execute(f"DROP TABLE IF EXISTS {table}")
    entries = [
        ((beg, end), act)
        for beg, end, act in rows
        if act is not None and act > 0
    ]
    return SimilarityList.from_entries(entries, translation.maximum)


class SQLRetrievalSystem:
    """Evaluates type (1) HTL formulas by translation to SQL."""

    def __init__(self, threshold: float = DEFAULT_UNTIL_THRESHOLD):
        self.connection = _connect()
        self.translator = SQLTranslator(threshold)
        self._atom_tables: Dict[str, str] = {}
        self._atom_maxima: Dict[str, float] = {}
        self._n_segments: Optional[int] = None

    # -- loading ------------------------------------------------------------
    def load_segments(self, n_segments: int) -> None:
        """(Re)create the axis relation ``segments`` with ids 1..n."""
        if n_segments < 0:
            raise WorkloadError(f"negative segment count {n_segments}")
        _load_segments(self.connection, n_segments)
        self._n_segments = n_segments

    def load_atomic(self, name: str, sim: SimilarityList) -> str:
        """Bulk-load one atomic predicate's similarity table."""
        table = "sim_" + _sanitize(name)
        _create(
            self.connection,
            table,
            _ENTRY_COLUMNS,
            (
                (begin, end, float(actual))
                for begin, end, actual in zip(sim.begins, sim.ends, sim.actuals)
            ),
        )
        self._atom_tables[name] = table
        self._atom_maxima[name] = sim.maximum
        return table

    def loaded_atoms(self) -> List[str]:
        return sorted(self._atom_tables)

    # -- evaluation ------------------------------------------------------------
    def translate(self, formula: ast.Formula) -> Translation:
        """The SQL script for a formula over the loaded atoms."""
        return self.translator.translate(
            formula, self._atom_tables, self._atom_maxima
        )

    def evaluate(self, formula: ast.Formula) -> SimilarityList:
        """Translate, execute the statement sequence, read back the result."""
        if self._n_segments is None:
            raise UnsupportedFormulaError(
                "call load_segments() before evaluating queries"
            )
        return _run(self.connection, self.translate(formula))


class Type2SQLSystem:
    """SQL-based evaluation of type (2) formulas over a video.

    The front end matches the direct engine's: the formula's maximal
    non-temporal subformulas go to the picture-retrieval system, whose
    similarity tables (evaluation rows + interval lists) are bulk-loaded
    into relations; the generated SQL then computes the combined table and
    the final prefix-∃ projection.  Results equal the direct engine in its
    default (paper, inner-join) mode — property-tested.
    """

    def __init__(self, threshold: float = DEFAULT_UNTIL_THRESHOLD):
        self.connection = _connect()
        self.translator = Type2SQLTranslator(threshold)
        self._atom_counter = 0

    def evaluate_on_video(self, formula, video, level: int = 2):
        """Evaluate a closed type (2) formula at a level of one video."""
        from repro.pictures.retrieval import PictureRetrievalSystem
        from repro.pictures.scoring import exists_pool

        nodes = video.nodes_at_level(level)
        pictures = PictureRetrievalSystem([node.metadata for node in nodes])
        universe = exists_pool(video.object_universe())
        _load_segments(self.connection, len(nodes))
        cache: Dict[object, LoadedAtom] = {}

        def loader(atom) -> LoadedAtom:
            if atom not in cache:
                table = pictures.similarity_table(atom, universe=universe)
                cache[atom] = self.load_atom_table(atom, table)
            return cache[atom]

        try:
            return _run(
                self.connection, self.translator.translate(formula, loader)
            )
        finally:
            # The atom relations belong to this call's video.
            for loaded in cache.values():
                for table in (loaded.entries_table, loaded.evals_table):
                    self.connection.execute(f"DROP TABLE IF EXISTS {table}")

    # -- loading ------------------------------------------------------------
    def load_atom_table(self, atom, table) -> LoadedAtom:
        """Bulk-load one atom's similarity table into two relations."""
        if table.attr_vars:
            raise UnsupportedFormulaError(
                "type (2) formulas carry no attribute variables; "
                f"atom has columns {table.attr_vars}"
            )
        self._atom_counter += 1
        base = f"atom{self._atom_counter}"
        variables = table.object_vars
        var_decls = [f"v_{name} TEXT" for name in variables]
        _create(
            self.connection,
            base,
            var_decls + _ENTRY_COLUMNS,
            (
                tuple(row.objects) + (entry.begin, entry.end, float(entry.actual))
                for row in table.rows
                for entry in row.sim
            ),
        )
        _create(
            self.connection,
            f"{base}_ev",
            var_decls + ["dummy INTEGER"],
            (tuple(row.objects) + (1,) for row in table.rows),
        )
        return LoadedAtom(
            entries_table=base,
            evals_table=f"{base}_ev",
            variables=variables,
            maximum=table.maximum,
        )
