"""Atom-table construction: naive full scan vs. index-driven evaluation.

Not a paper table — this measures the picture-retrieval substrate rewrite
(ISSUE 2): support-set analysis over the meta-data posting lists, baseline
runs emitted directly in compressed form, one content-profile memo under
the sweep and binding batching (DESIGN.md §7).  The workload sweeps
segment count and object density (the fraction of segments each object
appears in); the paper's own experiments assume the picture layer answers
atomic queries "employing indices on the meta-data", which is precisely
the path under test.

Emits ``BENCH_pictures.json`` in the current working directory.  Set
``BENCH_QUICK=1`` for a seconds-scale run (CI); the committed numbers come
from the full mode.

The gates are on the *work* the index-driven path does, which repeats
exactly under the seed, not on the naive/indexed time ratio: that ratio
has the naive scan as its denominator and falls whenever the scorer gets
faster (14.9x -> 6.4x on the 5%/5 000 row when the scorer was compiled:
the naive scan went 0.25 -> 0.11 s, the indexed path stayed at 0.017 s).
What the code guarantees is that a swept binding visits exactly its
candidate set, each visit a kernel call or a profile-memo hit; how the
visits split between the two depends on how much whole-segment content
the corpus repeats, so the split is pinned (full mode), not bounded.  On
the dense row every binding is routed to the naive scan's loop (the
density cutoff), so the sweep visits nothing there.  Both times stay in
the report, next to the parent commit's.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.bench.reporting import write_report_json
from repro.core import trace
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.htl import parse
from repro.model.hierarchy import flat_video
from repro.model.metadata import Relationship, SegmentMetadata, make_object
from repro.pictures.retrieval import PictureRetrievalSystem

QUICK = bool(os.environ.get("BENCH_QUICK"))
#: (n_segments, density) configurations; density = fraction of segments
#: each object appears in.
CONFIGS = (
    [(500, 0.05), (500, 0.50)]
    if QUICK
    else [(1_000, 0.05), (5_000, 0.02), (5_000, 0.05), (5_000, 0.50)]
)
N_OBJECTS = 6
REPEAT = 2 if QUICK else 3
#: Full mode, by (n_segments, density): the work counters of the committed
#: report — the seed fixes them, so a full run must reproduce them — and
#: the times of the parent commit (whose indexed path still swept dense
#: bindings directly; the fastest of three runs) on the machine that
#: wrote it.
COMMITTED = {
    (1_000, 0.05): dict(
        segments_scored=1020, fingerprint_hits=1476, candidate_segments=2496,
        dense_bindings=0, parent_naive_seconds=0.0084,
        parent_indexed_seconds=0.0015,
    ),
    (5_000, 0.02): dict(
        segments_scored=1179, fingerprint_hits=3975, candidate_segments=5154,
        dense_bindings=0, parent_naive_seconds=0.0406,
        parent_indexed_seconds=0.0025,
    ),
    (5_000, 0.05): dict(
        segments_scored=3219, fingerprint_hits=9075, candidate_segments=12294,
        dense_bindings=0, parent_naive_seconds=0.0428,
        parent_indexed_seconds=0.0060,
    ),
    (5_000, 0.50): dict(
        segments_scored=0, fingerprint_hits=0, candidate_segments=0,
        dense_bindings=24, parent_naive_seconds=0.0765,
        parent_indexed_seconds=0.0828,
    ),
}  # fmt: skip
WORK_COUNTERS = (
    "segments_scored",
    "fingerprint_hits",
    "candidate_segments",
    "dense_bindings",
)

ATOMS = [
    ("open-type", parse("present(x) and type(x) = 'person'")),
    ("closed-exists", parse("exists x . present(x) and holds_gun(x)")),
    ("negation", parse("exists x . not present(x)")),
]

RESULTS_PATH = Path("BENCH_pictures.json")


def best_of(fn, repeat=REPEAT):
    best = None
    value = None
    for __ in range(repeat):
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, value


def build_segments(n_segments, density, rng):
    """Sparse synthetic meta-data: each object in ~density of the segments."""
    per_segment = [
        {"objects": [], "relationships": [], "attributes": {}}
        for __ in range(n_segments)
    ]
    appearances = max(1, int(n_segments * density))
    for position in range(N_OBJECTS):
        object_id = f"o{position}"
        type_name = "person" if position % 2 else "plane"
        for segment_index in rng.sample(range(n_segments), appearances):
            slot = per_segment[segment_index]
            slot["objects"].append(
                make_object(
                    object_id,
                    type_name,
                    confidence=rng.choice([1.0, 0.5]),
                    height=rng.choice([50, 100, 300]),
                )
            )
            if rng.random() < 0.3:
                slot["relationships"].append(
                    Relationship("holds_gun", (object_id,), confidence=1.0)
                )
    for segment_index in rng.sample(
        range(n_segments), max(1, int(n_segments * density))
    ):
        per_segment[segment_index]["attributes"]["kind"] = "battle"
    return [
        SegmentMetadata(
            attributes=slot["attributes"],
            objects=slot["objects"],
            relationships=slot["relationships"],
        )
        for slot in per_segment
    ]


def assert_tables_identical(indexed, naive):
    assert indexed.object_vars == naive.object_vars
    assert indexed.attr_vars == naive.attr_vars
    assert len(indexed.rows) == len(naive.rows)
    for mine, theirs in zip(indexed.rows, naive.rows):
        assert mine.objects == theirs.objects
        assert mine.sim == theirs.sim


def test_atom_table_construction(report):
    rng = random.Random(1997)
    results = []
    for n_segments, density in CONFIGS:
        segments = build_segments(n_segments, density, rng)
        build_start = time.perf_counter()
        system = PictureRetrievalSystem(segments)
        index_build_seconds = time.perf_counter() - build_start

        def all_tables(use_index):
            return [
                system.similarity_table(atom, use_index=use_index)
                for __, atom in ATOMS
            ]

        naive_seconds, naive_tables = best_of(lambda: all_tables(False))
        system.stats.reset()
        indexed_seconds, indexed_tables = best_of(lambda: all_tables(True))
        for indexed, naive in zip(indexed_tables, naive_tables):
            assert_tables_identical(indexed, naive)

        speedup = naive_seconds / indexed_seconds
        stats = system.stats
        committed = {} if QUICK else COMMITTED[(n_segments, density)]
        results.append(
            {
                "n_segments": n_segments,
                "density": density,
                "naive_seconds": naive_seconds,
                "indexed_seconds": indexed_seconds,
                "speedup": speedup,
                "parent_naive_seconds": committed.get("parent_naive_seconds"),
                "parent_indexed_seconds": committed.get(
                    "parent_indexed_seconds"
                ),
                "index_build_seconds": index_build_seconds,
                "bindings": stats.bindings,
                "work_share": stats.segments_scored
                / (n_segments * stats.bindings),
                "segments_scored": stats.segments_scored,
                "fingerprint_hits": stats.fingerprint_hits,
                "candidate_segments": stats.candidate_segments,
                "dense_bindings": stats.dense_bindings,
                "tables_identical": True,
            }
        )
        report(
            "Atom-table construction: naive scan vs index-driven (seconds)",
            {
                "Segments": n_segments,
                "Density": f"{density:.0%}",
                "Naive": f"{naive_seconds:.4f}",
                "Indexed": f"{indexed_seconds:.4f}",
                "Speedup": f"{speedup:.1f}x",
                "Scored": stats.segments_scored,
                "Memo hits": stats.fingerprint_hits,
            },
        )

    sparse = [row for row in results if row["density"] < 0.10]
    assert sparse, "no sparse configuration measured"
    for row in sparse:
        assert row["dense_bindings"] == 0
        visited = row["segments_scored"] + row["fingerprint_hits"]
        assert visited == row["candidate_segments"], (
            f"index-driven path visited {visited} (binding, segment) pairs "
            f"for {row['candidate_segments']} candidates at "
            f"{row['n_segments']} segments / {row['density']:.0%} density"
        )

    # Dense regime: near-universal postings trip the density cutoff, so
    # every binding is routed to the naive scan's loop and the sweep
    # visits nothing (the tables were checked against the naive scan
    # above).  The naive/indexed ratio is reported, not gated.
    dense = [row for row in results if row["density"] >= 0.50]
    assert dense, "no dense configuration measured"
    for row in dense:
        where = f"{row['n_segments']} segments / {row['density']:.0%} density"
        assert row["dense_bindings"] == row["bindings"], (
            f"not every binding routed at {where}"
        )
        assert row["segments_scored"] == row["fingerprint_hits"] == 0, (
            f"the sweep visited segments at {where}"
        )

    if not QUICK:
        for row in results:
            committed = COMMITTED[(row["n_segments"], row["density"])]
            assert {name: row[name] for name in WORK_COUNTERS} == {
                name: committed[name] for name in WORK_COUNTERS
            }, f"work moved at {row['n_segments']} / {row['density']:.0%}"

    payload = {
        "quick": QUICK,
        "n_objects": N_OBJECTS,
        "atoms": [name for name, __ in ATOMS],
        "configs": results,
    }
    write_report_json(RESULTS_PATH, payload)


def test_stage_breakdown(report):
    """Per-stage attribution of an end-to-end query via ``trace.METRICS``."""
    rng = random.Random(42)
    n_segments = 300 if QUICK else 2_000
    segments = build_segments(n_segments, 0.05, rng)
    video = flat_video("stage-bench", segments)
    query = parse(
        "(exists x . present(x) and type(x) = 'person') and "
        "eventually (exists x . holds_gun(x))"
    )

    breakdown = {}
    for label, config in (
        ("indexed", EngineConfig()),
        ("naive", EngineConfig(naive_atoms=True)),
    ):
        trace.METRICS.enable()
        try:
            RetrievalEngine(config).evaluate_video(query, video)
        finally:
            trace.METRICS.disable()
        totals = trace.METRICS.totals()
        breakdown[label] = {
            name: total.seconds for name, total in totals.items()
        }
        report(
            f"Per-stage timing, {label} atom path (seconds)",
            {
                "Stage": trace.ATOM_SCORING,
                "Seconds": f"{totals[trace.ATOM_SCORING].seconds:.4f}",
                "Calls": totals[trace.ATOM_SCORING].calls,
            },
        )
        report(
            f"Per-stage timing, {label} atom path (seconds)",
            {
                "Stage": trace.LIST_ALGEBRA,
                "Seconds": f"{totals[trace.LIST_ALGEBRA].seconds:.4f}",
                "Calls": totals[trace.LIST_ALGEBRA].calls,
            },
        )

    assert trace.ATOM_SCORING in breakdown["indexed"]
    assert trace.LIST_ALGEBRA in breakdown["indexed"]
    if RESULTS_PATH.exists():
        payload = json.loads(RESULTS_PATH.read_text())
        payload["stage_breakdown"] = breakdown
        write_report_json(RESULTS_PATH, payload)
