"""Every translated statement runs on an index or a window, never a rescan.

SQLite does not decorrelate subqueries: a correlated subquery that SCANs
its table repeats the scan once per outer row, and a join whose inner
loop scans (or walks an open-ended index range) is quadratic too.  For
each operator of both translators this asks SQLite for the plan of every
statement the system executes (``EXPLAIN QUERY PLAN``, no timing) and
checks its loops:

* every table access inside a correlated subquery is a SEARCH on a
  declared index — never a SCAN, never an automatic index;
* in a join, every loop after the outermost is such a SEARCH, keyed by
  equalities and at most a two-sided range.

The prefix/suffix aggregates of ``eventually`` and ``until`` are window
functions, so their scripts must carry ``OVER (`` clauses.
"""

import random
import re
import sqlite3

import pytest

from repro.core.engine import RetrievalEngine
from repro.htl import parse
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.sqlbaseline import SQLRetrievalSystem, Type2SQLSystem
from repro.workloads.synthetic import perf_workload

#: A SEARCH on a declared index: its name, then the probed constraints.
INDEXED_SEARCH = re.compile(
    r"^SEARCH \S+ USING (?:INTEGER PRIMARY KEY|(?:COVERING )?INDEX \S+) "
    r"\((?P<constraints>.+)\)$"
)


class PlanRecorder:
    """Stands in for a system's connection and records the plan of every
    query statement before running it."""

    def __init__(self, connection):
        self.connection = connection
        self.plans = []

    def execute(self, statement, *parameters):
        if statement.startswith(("INSERT", "SELECT")):
            rows = self.connection.execute(
                "EXPLAIN QUERY PLAN " + statement
            ).fetchall()
            self.plans.append((statement, rows))
        return self.connection.execute(statement, *parameters)

    def executemany(self, statement, rows):
        return self.connection.executemany(statement, rows)


def is_loop(detail):
    return detail.startswith(("SCAN ", "SEARCH "))


def open_range(constraints):
    ranges = [c for c in constraints.split(" AND ") if "<" in c or ">" in c]
    return len(ranges) == 1


def plan_faults(rows):
    """The loops of one statement's plan that rescan a table."""
    children = {}
    for node, parent, __, detail in rows:
        children.setdefault(parent, []).append((node, detail))
    faults = []

    def walk(parent, correlated):
        loops = [d for __, d in children.get(parent, []) if is_loop(d)]
        for position, detail in enumerate(loops):
            if position == 0 and not correlated:
                continue
            search = INDEXED_SEARCH.match(detail)
            if search is None:
                faults.append(detail)
            elif not correlated and open_range(search["constraints"]):
                faults.append(detail)
        for node, detail in children.get(parent, []):
            walk(node, correlated or detail.startswith("CORRELATED"))

    walk(0, False)
    return faults


def assert_no_rescans(recorder):
    assert recorder.plans
    for statement, rows in recorder.plans:
        faults = plan_faults(rows)
        assert not faults, f"{statement}\n  rescans: {faults}"


TYPE1 = {
    "and": ("$P1 and $P2", False),
    "next": ("next $P1", False),
    "eventually": ("eventually $P1", True),
    "until": ("$P1 until $P2", True),
    "until-over-derived": ("$P1 until next ($P2 and $P3)", True),
    "eventually-over-and": ("eventually ($P1 and $P2)", True),
    "next-over-until": ("next ($P1 until $P2)", True),
    "and-of-until-and-eventually": (
        "($P1 until $P2) and eventually ($P1 and $P3)",
        True,
    ),
}


@pytest.mark.parametrize("operator", sorted(TYPE1))
def test_type1_plans_search_indexes(operator):
    text, windowed = TYPE1[operator]
    workload = perf_workload(400, extra_predicates=1)
    system = SQLRetrievalSystem()
    system.load_segments(workload.size)
    for name, sim in workload.lists.items():
        system.load_atomic(name, sim)
    recorder = PlanRecorder(system.connection)
    system.connection = recorder
    formula = parse(text)
    result = system.evaluate(formula)
    assert_no_rescans(recorder)
    assert windowed == (" OVER (" in system.translate(formula).script())
    assert result == RetrievalEngine().combine_lists(formula, workload.lists)


def random_video(n_shots=60, seed=3):
    rng = random.Random(seed)
    objects = [("t1", "train"), ("t2", "train"), ("s1", "station"), ("p1", "person")]
    return flat_video(
        "plans",
        [
            SegmentMetadata(
                objects=[
                    make_object(name, kind)
                    for name, kind in rng.sample(objects, k=rng.randint(0, 3))
                ]
            )
            for __ in range(n_shots)
        ],
    )


TYPE2 = {
    "and": ("exists x . present(x) and next (present(x) and type(x) = 'train')", False),
    "next": ("exists x . next (present(x) and type(x) = 'station')", False),
    "eventually": ("exists x . eventually (present(x) and type(x) = 'train')", True),
    "until": (
        "exists x, y . (present(x) and type(x) = 'train') "
        "until (present(x) and present(y) and type(y) = 'station')",
        True,
    ),
    "eventually-over-next": (
        "exists x . eventually (present(x) and next present(x))",
        True,
    ),
    # Operands share a variable: over disjoint variables the evaluation
    # pairs are a cross product by definition, with nothing to search by.
    "and-of-two-variables": (
        "exists x, y . (present(x) and present(y)) "
        "and next (present(y) and type(y) = 'station')",
        False,
    ),
}


@pytest.mark.parametrize("operator", sorted(TYPE2))
def test_type2_plans_search_indexes(operator):
    text, windowed = TYPE2[operator]
    video = random_video()
    system = Type2SQLSystem()
    recorder = PlanRecorder(system.connection)
    system.connection = recorder
    formula = parse(text)
    result = system.evaluate_on_video(formula, video)
    assert_no_rescans(recorder)
    scripts = " ".join(statement for statement, __ in recorder.plans)
    assert windowed == (" OVER (" in scripts)
    assert result == RetrievalEngine().evaluate_video(formula, video)


def test_a_correlated_scan_is_caught():
    """The check itself: an anti-join over an unindexed table fails it."""
    connection = sqlite3.connect(":memory:")
    connection.execute("CREATE TABLE a (id INTEGER)")
    connection.execute("CREATE TABLE b (id INTEGER)")
    rows = connection.execute(
        "EXPLAIN QUERY PLAN SELECT id FROM a WHERE NOT EXISTS "
        "(SELECT * FROM b WHERE b.id = a.id)"
    ).fetchall()
    assert plan_faults(rows)
    connection.execute("CREATE INDEX b_id ON b (id)")
    rows = connection.execute(
        "EXPLAIN QUERY PLAN SELECT id FROM a WHERE NOT EXISTS "
        "(SELECT * FROM b WHERE b.id = a.id)"
    ).fetchall()
    assert not plan_faults(rows)
