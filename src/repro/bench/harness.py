"""Experiment harness: run one query on both systems and time it.

Mirrors the paper's §4.2 measurement: the inputs are the similarity tables
of the atomic predicates; the direct time covers sorting plus the list
algorithms, the SQL time covers translation plus execution of the
generated statement sequence ("the time required is the time for
executing the sequence of SQL queries").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.simlist import SimilarityList
from repro.htl import ast, parse


@dataclass
class Measurement:
    """One timed evaluation."""

    seconds: float
    result: SimilarityList


@dataclass
class ComparisonRow:
    """One row of a Table 5/6-style comparison."""

    size: int
    direct_seconds: float
    sql_seconds: float
    results_equal: bool

    @property
    def speedup(self) -> float:
        if self.direct_seconds == 0:
            return float("inf")
        return self.sql_seconds / self.direct_seconds


def time_call(
    fn: Callable[[], SimilarityList], repeat: int = 3
) -> Measurement:
    """Best-of-``repeat`` wall-clock timing."""
    best: Optional[float] = None
    result: Optional[SimilarityList] = None
    for __ in range(max(repeat, 1)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    assert result is not None and best is not None
    return Measurement(best, result)


def run_direct(
    formula: ast.Formula,
    lists: Dict[str, SimilarityList],
    repeat: int = 3,
    config: Optional[EngineConfig] = None,
) -> Measurement:
    """Time the direct (list-algorithm) system on precomputed atom lists."""
    engine = RetrievalEngine(config)
    return time_call(lambda: engine.combine_lists(formula, lists), repeat)


def run_sql(
    formula: ast.Formula,
    lists: Dict[str, SimilarityList],
    n_segments: int,
    repeat: int = 1,
) -> Measurement:
    """Time the SQL-based system (loading excluded, per the paper)."""
    # Imported here so that a process importing repro.bench only for
    # its reporting helpers never loads sqlite3 (~1 MB of peak RSS).
    from repro.sqlbaseline.system import SQLRetrievalSystem

    system = SQLRetrievalSystem()
    system.load_segments(n_segments)
    for name, sim in lists.items():
        system.load_atomic(name, sim)
    return time_call(lambda: system.evaluate(formula), repeat)


def compare_systems(
    formula_text: str,
    lists: Dict[str, SimilarityList],
    n_segments: int,
    direct_repeat: int = 3,
    sql_repeat: int = 1,
) -> ComparisonRow:
    """Run both systems on one workload and cross-check the results."""
    formula = parse(formula_text)
    direct = run_direct(formula, lists, repeat=direct_repeat)
    sql = run_sql(formula, lists, n_segments, repeat=sql_repeat)
    return ComparisonRow(
        size=n_segments,
        direct_seconds=direct.seconds,
        sql_seconds=sql.seconds,
        results_equal=direct.result == sql.result,
    )
