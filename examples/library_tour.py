#!/usr/bin/env python3
"""A tour of the library features beyond the paper's experiments.

Shows the pieces a downstream user combines in practice:

1. define named predicates as metadata queries (macros),
2. inspect a query (classification, evaluation plan),
3. evaluate with both join modes and with the full-language extensions,
4. persist the annotated database as a store snapshot and reload it.

Run:  python examples/library_tour.py
"""

import tempfile

from repro import EngineConfig, RetrievalEngine, parse, pretty
from repro.core.explain import explain
from repro.htl import paper_class, skeleton_class
from repro.htl.macros import PredicateRegistry
from repro.store import Store
from repro.workloads.casablanca import casablanca_database


def main() -> None:
    database = casablanca_database()
    video = database.get("making-of-casablanca")

    # 1. Named predicates: define the paper's atomic queries once.
    registry = PredicateRegistry()
    registry.define(
        "Train", "weight(10.0, exists t . moving_train_scene(t))"
    )
    registry.define(
        "Couple", "weight(8.0, exists x, y . man_woman_pair(x, y))"
    )
    query = registry.expand(
        parse("atomic('Couple') and eventually atomic('Train')")
    )
    print("expanded query:")
    print(" ", pretty(query)[:76], "...\n")

    # 2. Inspect: class and plan.
    print(f"paper class:    {paper_class(query).name}")
    print(f"skeleton class: {skeleton_class(query).name}")
    print()
    print(explain(query))
    print()

    # 3. Evaluate in both modes; on this query they agree.
    for mode in ("inner", "outer"):
        engine = RetrievalEngine(EngineConfig(join_mode=mode))
        result = engine.evaluate_video(query, video)
        print(
            f"{mode:>5} mode: best shot scores "
            f"{max(entry.actual for entry in result):g} / {result.maximum:g}"
        )
    # ... and the full-language mode accepts disjunction:
    wide = RetrievalEngine(
        EngineConfig(join_mode="outer", allow_extensions=True)
    )
    either = wide.evaluate_video(
        registry.expand(
            parse("(eventually atomic('Train')) or always atomic('Couple')")
        ),
        video,
    )
    print(
        f"extension mode: disjunctive query covers "
        f"{either.support_size()} shots\n"
    )

    # 4. Persist as an atomic, checksummed store snapshot and reload.
    with tempfile.TemporaryDirectory() as root:
        saved = Store(root).save(database)
        restored = Store(root).load().database
        engine = RetrievalEngine()
        again = engine.evaluate_video(
            query, restored.get("making-of-casablanca")
        )
        original = engine.evaluate_video(query, video)
        print(f"database round-trip through snapshot {saved.snapshot_id}")
        print(f"results identical after reload: {again == original}")


if __name__ == "__main__":
    main()
