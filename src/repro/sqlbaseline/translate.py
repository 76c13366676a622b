"""HTL → SQL translation (paper §4, second system).

The paper's SQL-based system "first generates a sequence of SQL queries
which take as inputs the tables for g1 and g2 and output the table
corresponding to g, and then executes the sequence of SQL queries"; it
notes the generation is non-trivial (full details were deferred to the
first author's M.S. thesis, ref [22]) and that "the intermediate relations
may become quite large".  This module reconstructs such a translation for
type (1) formulas — the class the experiments measure.

Table convention: every (sub)formula value is a relation
``(beg_id INTEGER, end_id INTEGER, act REAL)`` of disjoint intervals, the
similarity-table shape of §3.1; atomic predicates are loaded in that shape
and a helper relation ``segments(id INTEGER PRIMARY KEY)`` enumerates the
axis.  The script is SQLite's dialect: scalar ``MAX``/``MIN`` of two
non-NULL arguments, window functions, and a ``CREATE INDEX`` on every
column a join or correlated subquery probes, so no statement rescans a
table per row.  Joins are written in loop order with ``CROSS JOIN``,
which SQLite never reorders.  Per-operator plans (the maximum of a
subformula is computed on the Python side, a function of the formula):

* conjunction — expand both operands to per-segment rows (the "large
  intermediate relations", keyed by segment id), join the ids, then two
  anti-joins for the one-sided partial matches;
* next — interval arithmetic, one linear statement;
* eventually — boundary pieces between consecutive interval ends
  (``LAG``), each valued by the suffix ``MAX`` window;
* until — threshold filter and gaps-and-islands run coalescing (windows),
  candidate matching of runs against indexed witness intervals, per-run
  ``LAG`` and suffix ``MAX`` windows for the in-run pieces, and an
  expanded anti-join for the outside-run pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.ops import DEFAULT_UNTIL_THRESHOLD
from repro.core.simlist import SIM_EPS
from repro.errors import UnsupportedFormulaError
from repro.htl import ast
from repro.htl.classify import FormulaClass, skeleton_class


@dataclass
class Translation:
    """The generated SQL script and its bookkeeping."""

    statements: List[str]
    output_table: str
    maximum: float
    temp_tables: List[str] = field(default_factory=list)

    def script(self) -> str:
        return ";\n".join(self.statements) + ";"


class SQLTranslator:
    """Translates type (1) formulas over named atomic predicates."""

    def __init__(self, threshold: float = DEFAULT_UNTIL_THRESHOLD):
        if threshold <= SIM_EPS:
            raise UnsupportedFormulaError(
                "the until threshold must be strictly positive"
            )
        self.threshold = threshold

    def translate(
        self,
        formula: ast.Formula,
        atom_tables: Dict[str, str],
        atom_maxima: Dict[str, float],
    ) -> Translation:
        """Produce the SQL script computing the formula's similarity table.

        ``atom_tables`` maps atomic-predicate names to their relation
        names; ``atom_maxima`` to their max similarity values.
        """
        if skeleton_class(formula) > FormulaClass.TYPE1:
            raise UnsupportedFormulaError(
                "the SQL-based system implements type (1) formulas (as in "
                "the paper's experiments)"
            )
        state = _TranslationState(atom_tables, atom_maxima, self.threshold)
        table, maximum = state.emit(formula)
        return Translation(
            statements=state.statements,
            output_table=table,
            maximum=maximum,
            temp_tables=state.temp_tables,
        )


class _TranslationState:
    def __init__(
        self,
        atom_tables: Dict[str, str],
        atom_maxima: Dict[str, float],
        threshold: float,
    ):
        self.atom_tables = atom_tables
        self.atom_maxima = atom_maxima
        self.threshold = threshold
        self.statements: List[str] = []
        self.temp_tables: List[str] = []
        self._counter = 0

    # -- helpers -------------------------------------------------------------
    def _fresh(self, kind: str) -> str:
        self._counter += 1
        name = f"t{self._counter}_{kind}"
        self.temp_tables.append(name)
        return name

    def _create_entries(self, kind: str) -> str:
        name = self._fresh(kind)
        self.statements.append(
            f"CREATE TABLE {name} (beg_id INTEGER, end_id INTEGER, act REAL)"
        )
        return name

    def _create_ids(self, kind: str, with_act: bool = False) -> str:
        """A per-segment relation; ids are unique, so they are the key."""
        name = self._fresh(kind)
        act = ", act REAL" if with_act else ""
        self.statements.append(
            f"CREATE TABLE {name} (id INTEGER PRIMARY KEY{act})"
        )
        return name

    def _index(self, table: str, column: str) -> str:
        """Index a probed column and return the index name; an index on a
        loaded atom table outlives the query and serves the later ones."""
        name = f"ix_{table}_{column}"
        self.statements.append(
            f"CREATE INDEX IF NOT EXISTS {name} ON {table} ({column})"
        )
        return name

    def _expand(self, entries: str) -> str:
        """Per-segment expansion — the paper's 'quite large' intermediates."""
        expanded = self._create_ids("exp", with_act=True)
        self.statements.append(
            f"INSERT INTO {expanded} "
            f"SELECT s.id, a.act FROM {entries} a CROSS JOIN segments s "
            f"WHERE s.id BETWEEN a.beg_id AND a.end_id"
        )
        return expanded

    # -- dispatch ------------------------------------------------------------
    def emit(self, formula: ast.Formula) -> Tuple[str, float]:
        if isinstance(formula, ast.AtomicRef):
            if formula.name not in self.atom_tables:
                raise UnsupportedFormulaError(
                    f"no similarity table loaded for atomic predicate "
                    f"{formula.name!r}"
                )
            return (
                self.atom_tables[formula.name],
                self.atom_maxima[formula.name],
            )
        if isinstance(formula, ast.And):
            return self._emit_and(formula)
        if isinstance(formula, ast.Next):
            return self._emit_next(formula)
        if isinstance(formula, ast.Eventually):
            return self._emit_eventually(formula)
        if isinstance(formula, ast.Until):
            return self._emit_until(formula)
        raise UnsupportedFormulaError(
            f"the SQL translation covers type (1) operators over named "
            f"atomic predicates; cannot translate {type(formula).__name__} "
            "(evaluate metadata atoms through the picture system first)"
        )

    # -- operators ------------------------------------------------------------
    def _emit_and(self, formula: ast.And) -> Tuple[str, float]:
        left_table, left_max = self.emit(formula.left)
        right_table, right_max = self.emit(formula.right)
        left_expanded = self._expand(left_table)
        right_expanded = self._expand(right_table)
        out = self._create_entries("and")
        self.statements.append(
            f"INSERT INTO {out} "
            f"SELECT x.id, x.id, x.act + y.act "
            f"FROM {left_expanded} x CROSS JOIN {right_expanded} y "
            f"WHERE x.id = y.id"
        )
        self.statements.append(
            f"INSERT INTO {out} "
            f"SELECT x.id, x.id, x.act FROM {left_expanded} x "
            f"WHERE NOT EXISTS (SELECT * FROM {right_expanded} y "
            f"WHERE y.id = x.id)"
        )
        self.statements.append(
            f"INSERT INTO {out} "
            f"SELECT y.id, y.id, y.act FROM {right_expanded} y "
            f"WHERE NOT EXISTS (SELECT * FROM {left_expanded} x "
            f"WHERE x.id = y.id)"
        )
        return out, left_max + right_max

    def _emit_next(self, formula: ast.Next) -> Tuple[str, float]:
        operand, maximum = self.emit(formula.sub)
        out = self._create_entries("next")
        self.statements.append(
            f"INSERT INTO {out} "
            f"SELECT MAX(a.beg_id - 1, 1), a.end_id - 1, a.act "
            f"FROM {operand} a WHERE a.end_id > 1"
        )
        return out, maximum

    def _emit_eventually(self, formula: ast.Eventually) -> Tuple[str, float]:
        operand, maximum = self.emit(formula.sub)
        out = self._create_entries("ev")
        self.statements.append(
            f"INSERT INTO {out} "
            f"SELECT LAG(a.end_id, 1, 0) OVER (ORDER BY a.end_id) + 1, "
            f"a.end_id, "
            f"MAX(a.act) OVER (ORDER BY a.end_id DESC "
            f"ROWS UNBOUNDED PRECEDING) "
            f"FROM {operand} a"
        )
        return out, maximum

    def _emit_until(self, formula: ast.Until) -> Tuple[str, float]:
        left_table, left_max = self.emit(formula.left)
        right_table, right_max = self.emit(formula.right)
        bound = self.threshold * left_max - SIM_EPS * left_max

        # Gaps-and-islands: coalesce adjacent thresholded intervals into
        # runs.  An interval starts a run (brk = 1) unless it begins right
        # after the previous one ends; the running sum of brk numbers runs.
        runs = self._fresh("runs")
        self.statements.append(
            f"CREATE TABLE {runs} (beg_id INTEGER, end_id INTEGER)"
        )
        self.statements.append(
            f"INSERT INTO {runs} "
            f"SELECT MIN(k.beg_id), MAX(k.end_id) FROM "
            f"(SELECT g.beg_id, g.end_id, SUM(g.brk) OVER (ORDER BY g.beg_id "
            f"ROWS UNBOUNDED PRECEDING) AS run FROM "
            f"(SELECT f.beg_id, f.end_id, "
            f"LAG(f.end_id, 1, -1) OVER (ORDER BY f.beg_id) + 1 < f.beg_id "
            f"AS brk FROM {left_table} f WHERE f.act >= {bound!r}) g) k "
            f"GROUP BY k.run"
        )
        # Candidate witnesses per run: h intervals starting inside the run
        # (or one past it), plus the single interval straddling the run's
        # start from the left.
        self._index(right_table, "beg_id")
        by_end = self._index(right_table, "end_id")
        cand = self._fresh("cand")
        self.statements.append(
            f"CREATE TABLE {cand} "
            f"(rbeg INTEGER, rend INTEGER, hend INTEGER, act REAL)"
        )
        self.statements.append(
            f"INSERT INTO {cand} "
            f"SELECT r.beg_id, r.end_id, h.end_id, h.act "
            f"FROM {runs} r CROSS JOIN {right_table} h "
            f"WHERE h.beg_id >= r.beg_id AND h.beg_id <= r.end_id + 1"
        )
        self.statements.append(
            f"INSERT INTO {cand} "
            f"SELECT r.beg_id, r.end_id, h.end_id, h.act "
            f"FROM {runs} r CROSS JOIN {right_table} h INDEXED BY {by_end} "
            f"WHERE h.end_id = (SELECT MIN(x.end_id) FROM {right_table} x "
            f"WHERE x.end_id >= r.beg_id) AND h.beg_id < r.beg_id"
        )
        out = self._create_entries("until")
        # In-run pieces: between consecutive candidate ends, valued by the
        # suffix maximum of candidate actuals within the run.
        self.statements.append(
            f"INSERT INTO {out} "
            f"SELECT MAX(c.rbeg, c.prev + 1), MIN(c.hend, c.rend), c.best "
            f"FROM (SELECT rbeg, rend, hend, "
            f"LAG(hend, 1, 0) OVER (PARTITION BY rbeg ORDER BY hend) AS prev, "
            f"MAX(act) OVER (PARTITION BY rbeg ORDER BY hend DESC "
            f"ROWS UNBOUNDED PRECEDING) AS best FROM {cand}) c "
            f"WHERE MIN(c.hend, c.rend) >= MAX(c.rbeg, c.prev + 1)"
        )
        # Outside-run pieces: witness segments not covered by any run keep
        # their direct value (per-segment expansion + keyed anti-join).
        expanded_h = self._expand(right_table)
        expanded_runs = self._create_ids("exprun")
        self.statements.append(
            f"INSERT INTO {expanded_runs} "
            f"SELECT s.id FROM {runs} r CROSS JOIN segments s "
            f"WHERE s.id BETWEEN r.beg_id AND r.end_id"
        )
        self.statements.append(
            f"INSERT INTO {out} "
            f"SELECT x.id, x.id, x.act FROM {expanded_h} x "
            f"WHERE NOT EXISTS (SELECT * FROM {expanded_runs} e "
            f"WHERE e.id = x.id)"
        )
        return out, right_max
