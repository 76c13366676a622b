"""HTL → SQL translation for type (2) formulas.

The paper's SQL-based system "uses translations into SQL for computation
of the similarity tables for any conjunctive formula" (§4) — only the
*direct* system was restricted to type (1) in their implementation.  This
module covers type (2): similarity *tables* whose rows carry an
evaluation of the free object variables plus an interval list (paper
§3.2), encoded relationally as

    T_h(v_<x1> TEXT, ..., v_<xk> TEXT, beg_id INTEGER, end_id INTEGER, act REAL)

with a companion *evaluation* relation ``E_h(v_<x1>, ..., v_<xk>)``
holding every relevant evaluation — including those whose combined list
came out empty, which the joins must still see (the same subtlety the
in-memory tables handle by keeping empty rows).

Semantics match the engine's ``join_mode="inner"`` (the paper's
algorithm): evaluations join on shared variables; within a joined pair,
segment-level combination follows the §3.1 list algorithms.  The final
prefix-``∃`` projects the variables away with a per-segment ``MAX``.

The SQL is SQLite's dialect, as in :mod:`repro.sqlbaseline.translate`:
every probed relation gets a ``CREATE INDEX`` led by its evaluation
columns, and the prefix/suffix aggregates are window functions
partitioned by them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.ops import DEFAULT_UNTIL_THRESHOLD
from repro.core.simlist import SIM_EPS
from repro.core.tables import SimilarityTable
from repro.errors import UnsupportedFormulaError
from repro.htl import ast
from repro.htl.classify import FormulaClass, is_non_temporal, skeleton_class
from repro.htl.variables import free_object_vars

@dataclass(frozen=True)
class LoadedAtom:
    """An atom's relations as loaded by the system: entry rows, evaluation
    rows (including evaluations whose lists are empty), variables in
    column order, and the atom's maximum similarity."""

    entries_table: str
    evals_table: str
    variables: Tuple[str, ...]
    maximum: float


#: Loader callback: a non-temporal atom → its loaded relations.
AtomLoader = Callable[[ast.Formula], LoadedAtom]


@dataclass
class Type2Translation:
    """The generated script plus the output table's shape."""

    statements: List[str]
    output_table: str
    output_vars: Tuple[str, ...]
    maximum: float
    temp_tables: List[str]

    def script(self) -> str:
        return ";\n".join(self.statements) + ";"


def _columns(variables: Sequence[str]) -> List[str]:
    return [f"v_{name}" for name in variables]


class Type2SQLTranslator:
    """Translates type (2) formulas over relationally-loaded atom tables."""

    def __init__(self, threshold: float = DEFAULT_UNTIL_THRESHOLD):
        if threshold <= SIM_EPS:
            raise UnsupportedFormulaError(
                "the until threshold must be strictly positive"
            )
        self.threshold = threshold

    def translate(
        self, formula: ast.Formula, atom_loader: AtomLoader
    ) -> Type2Translation:
        actual_class = skeleton_class(formula)
        if actual_class > FormulaClass.TYPE2:
            raise UnsupportedFormulaError(
                "the type (2) SQL translation covers prefix-∃ conjunctive "
                f"formulas without the freeze operator; this one is "
                f"{actual_class.name}"
            )
        state = _State(atom_loader, self.threshold)
        prefix_vars: List[str] = []
        body = formula
        while isinstance(body, ast.Exists) and not is_non_temporal(body):
            prefix_vars.extend(body.vars)
            body = body.sub
        table = state.emit(body)
        output = state.project_exists(table, prefix_vars)
        return Type2Translation(
            statements=state.statements,
            output_table=output.name,
            output_vars=output.variables,
            maximum=table.maximum,
            temp_tables=state.temp_tables,
        )


@dataclass(frozen=True)
class _Rel:
    """One materialised subformula: entry + evaluation relations."""

    name: str
    evals: str
    variables: Tuple[str, ...]
    maximum: float

    def var_columns(self) -> List[str]:
        return _columns(self.variables)


class _State:
    def __init__(self, atom_loader: AtomLoader, threshold: float):
        self.atom_loader = atom_loader
        self.threshold = threshold
        self.statements: List[str] = []
        self.temp_tables: List[str] = []
        self._counter = 0

    # -- helpers -------------------------------------------------------------
    def _fresh(self, kind: str) -> str:
        self._counter += 1
        name = f"q{self._counter}_{kind}"
        self.temp_tables.append(name)
        return name

    def _create(self, kind: str, variables: Sequence[str], extra: str) -> str:
        name = self._fresh(kind)
        var_decls = "".join(f"{column} TEXT, " for column in _columns(variables))
        self.statements.append(f"CREATE TABLE {name} ({var_decls}{extra})")
        return name

    def _index(
        self, table: str, variables: Sequence[str], *columns: str
    ) -> str:
        """Index a probed relation on its evaluation columns, then
        ``columns``; an index on a loaded atom table is reused by later
        statements.  Returns the index name."""
        columns = _columns(variables) + list(columns)
        name = f"ix_{table}_{'_'.join(columns)}"
        self.statements.append(
            f"CREATE INDEX IF NOT EXISTS {name} "
            f"ON {table} ({', '.join(columns)})"
        )
        return name

    def _entries_rel(
        self, kind: str, variables: Sequence[str], maximum: float
    ) -> _Rel:
        name = self._create(
            kind, variables, "beg_id INTEGER, end_id INTEGER, act REAL"
        )
        evals = self._create(kind + "_ev", variables, "dummy INTEGER")
        return _Rel(name, evals, tuple(variables), maximum)

    def _expand(self, rel: _Rel) -> str:
        """Per-segment expansion, evaluation columns carried along."""
        expanded = self._create(
            "exp", rel.variables, "id INTEGER, act REAL"
        )
        var_cols = "".join(f"a.{c}, " for c in rel.var_columns())
        self.statements.append(
            f"INSERT INTO {expanded} "
            f"SELECT {var_cols}s.id, a.act "
            f"FROM {rel.name} a CROSS JOIN segments s "
            f"WHERE s.id BETWEEN a.beg_id AND a.end_id"
        )
        self._index(expanded, rel.variables, "id")
        return expanded

    # -- dispatch ------------------------------------------------------------
    def emit(self, formula: ast.Formula) -> _Rel:
        if is_non_temporal(formula):
            return self._emit_atom(formula)
        if isinstance(formula, ast.And):
            return self._emit_and(formula)
        if isinstance(formula, ast.Next):
            return self._emit_next(formula)
        if isinstance(formula, ast.Eventually):
            return self._emit_eventually(formula)
        if isinstance(formula, ast.Until):
            return self._emit_until(formula)
        raise UnsupportedFormulaError(
            f"cannot translate {type(formula).__name__} in a type (2) formula"
        )

    # -- atoms ------------------------------------------------------------
    def _emit_atom(self, atom: ast.Formula) -> _Rel:
        loaded = self.atom_loader(atom)
        expected = tuple(sorted(free_object_vars(atom)))
        if loaded.variables != expected:
            raise UnsupportedFormulaError(
                f"atom loaded with variables {loaded.variables}, "
                f"expected {expected}"
            )
        return _Rel(
            loaded.entries_table,
            loaded.evals_table,
            loaded.variables,
            loaded.maximum,
        )

    # -- conjunction -----------------------------------------------------------
    def _emit_and(self, formula: ast.And) -> _Rel:
        left = self.emit(formula.left)
        right = self.emit(formula.right)
        out_vars = _merge_vars(left.variables, right.variables)
        out = self._entries_rel("and", out_vars, left.maximum + right.maximum)

        pairs = self._pairs(left, right, out_vars)
        left_expanded = self._expand(left)
        right_expanded = self._expand(right)

        out_cols_from = _pair_projection(out_vars, "p")

        def eq(alias_a: str, alias_b: str, vars_):
            return " AND ".join(
                f"{alias_a}.v_{v} = {alias_b}.v_{v}" for v in vars_
            )

        # Matched segments: sum.
        conditions = ["x.id = y.id"]
        if left.variables:
            conditions.append(eq("x", "p", left.variables))
        if right.variables:
            conditions.append(eq("y", "p", right.variables))
        self.statements.append(
            f"INSERT INTO {out.name} "
            f"SELECT {out_cols_from}x.id, x.id, x.act + y.act "
            f"FROM {pairs.name} p CROSS JOIN {left_expanded} x "
            f"CROSS JOIN {right_expanded} y "
            f"WHERE {' AND '.join(conditions)}"
        )
        # Left-only segments within a pair.
        self._emit_one_sided(
            out, pairs, left, left_expanded, right, right_expanded, out_cols_from
        )
        # Right-only segments within a pair.
        self._emit_one_sided(
            out, pairs, right, right_expanded, left, left_expanded, out_cols_from
        )
        self._copy_evals(out, pairs)
        return out

    def _emit_one_sided(
        self,
        out: _Rel,
        pairs: "_Pairs",
        mine: _Rel,
        mine_expanded: str,
        other: _Rel,
        other_expanded: str,
        out_cols_from: str,
    ) -> None:
        conditions = []
        if mine.variables:
            conditions.append(
                " AND ".join(
                    f"x.v_{v} = p.v_{v}" for v in mine.variables
                )
            )
        else:
            conditions.append("1 = 1")
        anti_conditions = ["y.id = x.id"] + [
            f"y.v_{v} = p.v_{v}" for v in other.variables
        ]
        conditions.append(
            f"NOT EXISTS (SELECT * FROM {other_expanded} y "
            f"WHERE {' AND '.join(anti_conditions)})"
        )
        self.statements.append(
            f"INSERT INTO {out.name} "
            f"SELECT {out_cols_from}x.id, x.id, x.act "
            f"FROM {pairs.name} p CROSS JOIN {mine_expanded} x "
            f"WHERE {' AND '.join(conditions)}"
        )

    # -- next -----------------------------------------------------------------
    def _emit_next(self, formula: ast.Next) -> _Rel:
        operand = self.emit(formula.sub)
        out = self._entries_rel("next", operand.variables, operand.maximum)
        var_cols = "".join(f"a.{c}, " for c in operand.var_columns())
        self.statements.append(
            f"INSERT INTO {out.name} "
            f"SELECT {var_cols}MAX(a.beg_id - 1, 1), a.end_id - 1, a.act "
            f"FROM {operand.name} a WHERE a.end_id > 1"
        )
        self._copy_eval_rows(out, operand)
        return out

    # -- eventually --------------------------------------------------------------
    def _emit_eventually(self, formula: ast.Eventually) -> _Rel:
        operand = self.emit(formula.sub)
        out = self._entries_rel("ev", operand.variables, operand.maximum)
        var_cols = "".join(f"a.{c}, " for c in operand.var_columns())
        partition = _partition(f"a.{c}" for c in operand.var_columns())
        self.statements.append(
            f"INSERT INTO {out.name} "
            f"SELECT {var_cols}"
            f"LAG(a.end_id, 1, 0) OVER ({partition}ORDER BY a.end_id) + 1, "
            f"a.end_id, "
            f"MAX(a.act) OVER ({partition}ORDER BY a.end_id DESC "
            f"ROWS UNBOUNDED PRECEDING) "
            f"FROM {operand.name} a"
        )
        self._copy_eval_rows(out, operand)
        return out

    # -- until -----------------------------------------------------------------
    def _emit_until(self, formula: ast.Until) -> _Rel:
        left = self.emit(formula.left)
        right = self.emit(formula.right)
        out_vars = _merge_vars(left.variables, right.variables)
        out = self._entries_rel("until", out_vars, right.maximum)
        bound = self.threshold * left.maximum - SIM_EPS * left.maximum

        # Gaps-and-islands per g-side evaluation: coalesce adjacent
        # thresholded intervals into runs.
        runs = self._create(
            "runs", left.variables, "beg_id INTEGER, end_id INTEGER"
        )
        g_vars = "".join(f"{c}, " for c in left.var_columns())
        g_partition = _partition(left.var_columns())
        self.statements.append(
            f"INSERT INTO {runs} "
            f"SELECT {g_vars}MIN(beg_id), MAX(end_id) FROM "
            f"(SELECT {g_vars}beg_id, end_id, SUM(brk) OVER "
            f"({g_partition}ORDER BY beg_id ROWS UNBOUNDED PRECEDING) AS run "
            f"FROM (SELECT {g_vars}beg_id, end_id, "
            f"LAG(end_id, 1, -1) OVER ({g_partition}ORDER BY beg_id) + 1 "
            f"< beg_id AS brk FROM {left.name} WHERE act >= {bound!r})) "
            f"GROUP BY {g_vars}run"
        )
        self._index(runs, left.variables, "beg_id")

        # Candidate witnesses per (pair, run): the pair relation aligns
        # the g-side and h-side evaluations on shared variables.
        pairs = self._pairs(left, right, out_vars)
        self._index(right.name, right.variables, "beg_id")
        by_end = self._index(right.name, right.variables, "end_id")
        cand_vars = out_vars
        cand = self._create(
            "cand", cand_vars, "rbeg INTEGER, rend INTEGER, hend INTEGER, act REAL"
        )
        p_cols = "".join(f"p.{c}, " for c in _columns(cand_vars))
        r_eq = "".join(
            f"r.v_{v} = p.v_{v} AND " for v in left.variables
        )
        h_eq = "".join(
            f"h.v_{v} = p.v_{v} AND " for v in right.variables
        )
        self.statements.append(
            f"INSERT INTO {cand} "
            f"SELECT {p_cols}r.beg_id, r.end_id, h.end_id, h.act "
            f"FROM {pairs.name} p CROSS JOIN {runs} r "
            f"CROSS JOIN {right.name} h "
            f"WHERE {r_eq}{h_eq}"
            f"h.beg_id >= r.beg_id AND h.beg_id <= r.end_id + 1"
        )
        x_eq = "".join(
            f"x.v_{v} = p.v_{v} AND " for v in right.variables
        )
        self.statements.append(
            f"INSERT INTO {cand} "
            f"SELECT {p_cols}r.beg_id, r.end_id, h.end_id, h.act "
            f"FROM {pairs.name} p CROSS JOIN {runs} r "
            f"CROSS JOIN {right.name} h INDEXED BY {by_end} "
            f"WHERE {r_eq}{h_eq}"
            f"h.end_id = (SELECT MIN(x.end_id) FROM {right.name} x "
            f"WHERE {x_eq}x.end_id >= r.beg_id) AND h.beg_id < r.beg_id"
        )

        # In-run pieces per (evaluation, run): between consecutive
        # candidate ends, valued by the suffix maximum within the run.
        c_cols = "".join(f"c.{col}, " for col in _columns(cand_vars))
        c_vars = "".join(f"{col}, " for col in _columns(cand_vars))
        c_partition = f"PARTITION BY {c_vars}rbeg "
        self.statements.append(
            f"INSERT INTO {out.name} "
            f"SELECT {c_cols}MAX(c.rbeg, c.prev + 1), MIN(c.hend, c.rend), "
            f"c.best "
            f"FROM (SELECT {c_vars}rbeg, rend, hend, "
            f"LAG(hend, 1, 0) OVER ({c_partition}ORDER BY hend) AS prev, "
            f"MAX(act) OVER ({c_partition}ORDER BY hend DESC "
            f"ROWS UNBOUNDED PRECEDING) AS best FROM {cand}) c "
            f"WHERE MIN(c.hend, c.rend) >= MAX(c.rbeg, c.prev + 1)"
        )

        # Outside-run pieces per pair: h segments not covered by the
        # paired g-evaluation's runs keep their direct value.
        expanded_h = self._expand(right)
        expanded_runs = self._create("exprun", left.variables, "id INTEGER")
        r_cols = "".join(f"r.{c}, " for c in left.var_columns())
        self.statements.append(
            f"INSERT INTO {expanded_runs} "
            f"SELECT {r_cols}s.id FROM {runs} r CROSS JOIN segments s "
            f"WHERE s.id BETWEEN r.beg_id AND r.end_id"
        )
        self._index(expanded_runs, left.variables, "id")
        xh_eq = "".join(
            f"x.v_{v} = p.v_{v} AND " for v in right.variables
        )
        er_eq = "".join(
            f"e.v_{v} = p.v_{v} AND " for v in left.variables
        )
        self.statements.append(
            f"INSERT INTO {out.name} "
            f"SELECT {p_cols}x.id, x.id, x.act "
            f"FROM {pairs.name} p CROSS JOIN {expanded_h} x "
            f"WHERE {xh_eq}"
            f"NOT EXISTS (SELECT * FROM {expanded_runs} e "
            f"WHERE {er_eq}e.id = x.id)"
        )
        self._copy_evals(out, pairs)
        return out

    # -- pairs and evaluation bookkeeping -----------------------------------------
    def _pairs(self, left: _Rel, right: _Rel, out_vars: Tuple[str, ...]) -> "_Pairs":
        """The joined evaluation relation (inner join on shared vars)."""
        name = self._create("pairs", out_vars, "dummy INTEGER")
        select_cols = []
        for variable in out_vars:
            source = "a" if variable in left.variables else "b"
            select_cols.append(f"{source}.v_{variable}")
        shared = [v for v in left.variables if v in right.variables]
        join_condition = " AND ".join(
            f"a.v_{v} = b.v_{v}" for v in shared
        )
        where = f" WHERE {join_condition}" if join_condition else ""
        if shared:
            self._index(right.evals, shared)
        columns = ", ".join(select_cols) if select_cols else "1"
        trailer = ", 1" if select_cols else ""
        self.statements.append(
            f"INSERT INTO {name} "
            f"SELECT DISTINCT {columns}{trailer} "
            f"FROM {left.evals} a CROSS JOIN {right.evals} b{where}"
        )
        return _Pairs(name, out_vars)

    def _copy_evals(self, out: _Rel, pairs: "_Pairs") -> None:
        columns = ", ".join(f"p.{c}" for c in _columns(pairs.variables)) or "1"
        trailer = ", 1" if pairs.variables else ""
        self.statements.append(
            f"INSERT INTO {out.evals} SELECT {columns}{trailer} "
            f"FROM {pairs.name} p"
        )

    def _copy_eval_rows(self, out: _Rel, operand: _Rel) -> None:
        columns = ", ".join(f"e.{c}" for c in _columns(operand.variables))
        if columns:
            self.statements.append(
                f"INSERT INTO {out.evals} SELECT {columns}, 1 "
                f"FROM {operand.evals} e"
            )
        else:
            self.statements.append(
                f"INSERT INTO {out.evals} SELECT 1 FROM {operand.evals} e"
            )

    # -- final ∃ projection ------------------------------------------------------
    def project_exists(
        self, rel: _Rel, prefix_vars: Sequence[str]
    ) -> "_Pairs":
        remaining = tuple(
            v for v in rel.variables if v not in set(prefix_vars)
        )
        if remaining:
            raise UnsupportedFormulaError(
                f"free variables {remaining} not bound by the ∃ prefix"
            )
        out = self._create("final", (), "beg_id INTEGER, end_id INTEGER, act REAL")
        self.statements.append(
            f"INSERT INTO {out} "
            f"SELECT s.id, s.id, MAX(a.act) "
            f"FROM {rel.name} a CROSS JOIN segments s "
            f"WHERE s.id BETWEEN a.beg_id AND a.end_id GROUP BY s.id"
        )
        return _Pairs(out, ())


@dataclass(frozen=True)
class _Pairs:
    name: str
    variables: Tuple[str, ...]


def _merge_vars(
    left: Tuple[str, ...], right: Tuple[str, ...]
) -> Tuple[str, ...]:
    merged = list(left)
    for variable in right:
        if variable not in merged:
            merged.append(variable)
    return tuple(merged)


def _partition(columns) -> str:
    """A window's ``PARTITION BY`` clause over evaluation columns, or ''."""
    columns = ", ".join(columns)
    return f"PARTITION BY {columns} " if columns else ""


def _pair_projection(
    out_vars: Tuple[str, ...], pairs_alias: str
) -> str:
    """Leading select-list fragment for the evaluation columns ('' or
    'p.v_x, p.v_y, ')."""
    return "".join(f"{pairs_alias}.v_{v}, " for v in out_vars)
