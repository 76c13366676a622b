"""Resilience overhead and recovery latency under injected faults.

Not a paper table — this measures the fault-tolerance layer (ISSUE 3,
DESIGN.md §8).  Two questions:

1. What does an armed :class:`~repro.core.resilience.QueryBudget` cost on
   the hot path when it never fires?  The budget threads cooperative
   ``charge()`` calls through atom scoring and a forced deadline check
   through every engine subformula; the acceptance gate is < 5% overhead
   on the sparse 5k-segment configuration in full mode.

2. How expensive is degraded operation?  With faults injected at the
   index-lookup site, every failing indexed atom table is rebuilt by the
   naive scan.  The recovered ranking must be exactly the fault-free one;
   the benchmark reports the latency ratio of the degraded path.

Emits ``BENCH_chaos.json`` in the current working directory.  Set
``BENCH_QUICK=1`` for a seconds-scale run (CI) with a relaxed overhead
gate — sub-millisecond timings make the 5% gate pure noise there.
"""

import json
import os
import random
import time
from pathlib import Path

from repro.bench.reporting import write_report_json
from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.testing.faults import FaultSpec, inject

from benchmarks.bench_atom_tables import build_segments

QUICK = bool(os.environ.get("BENCH_QUICK"))
#: Budget-overhead configurations; the gate applies to the sparse-5k row.
CONFIGS = [(500, 0.05)] if QUICK else [(1_000, 0.05), (5_000, 0.05)]
REPEAT = 3 if QUICK else 5
#: Full mode gates the armed-but-idle budget at < 5% overhead; quick mode
#: only smoke-tests that the budget does not multiply the runtime.
OVERHEAD_LIMIT = 0.50 if QUICK else 0.05

N_VIDEOS = 3 if QUICK else 5
RECOVERY_SEGMENTS = 200 if QUICK else 800

QUERY = parse(
    "(exists x . present(x) and type(x) = 'person') and "
    "eventually (exists x . holds_gun(x))"
)

RESULTS_PATH = Path("BENCH_chaos.json")

#: Generous enough that neither limit can fire during the measurement:
#: the point is the cost of carrying the budget, not of tripping it.
GENEROUS = dict(deadline_ms=10**9, max_steps=10**12)


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


def _write_payload(key, value):
    payload = (
        json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() else {}
    )
    payload["quick"] = QUICK
    payload[key] = value
    write_report_json(RESULTS_PATH, payload)


def test_budget_check_overhead(report):
    rng = random.Random(1997)
    results = []
    for n_segments, density in CONFIGS:
        video = flat_video(
            f"budget-{n_segments}", build_segments(n_segments, density, rng)
        )
        engine = RetrievalEngine()

        def bare():
            return engine.evaluate_video(QUERY, video)

        def budgeted():
            budget = resilience.QueryBudget(**GENEROUS)
            with resilience.scope(budget=budget):
                return engine.evaluate_video(QUERY, video)

        bare_seconds, bare_sim = best_of(bare)
        budgeted_seconds, budgeted_sim = best_of(budgeted)
        # An idle budget must never change the answer, only the clock.
        assert budgeted_sim == bare_sim

        overhead = budgeted_seconds / bare_seconds - 1.0
        results.append(
            {
                "n_segments": n_segments,
                "density": density,
                "bare_seconds": bare_seconds,
                "budgeted_seconds": budgeted_seconds,
                "overhead": overhead,
            }
        )
        report(
            "Armed-but-idle query budget overhead (seconds)",
            {
                "Segments": n_segments,
                "Density": f"{density:.0%}",
                "No budget": f"{bare_seconds:.4f}",
                "Budget": f"{budgeted_seconds:.4f}",
                "Overhead": f"{overhead:+.1%}",
            },
        )

    gated = [
        row
        for row in results
        if row["n_segments"] >= (500 if QUICK else 5_000)
    ]
    assert gated, "no gated configuration measured"
    for row in gated:
        assert row["overhead"] <= OVERHEAD_LIMIT, (
            f"budget checks cost {row['overhead']:+.1%} at "
            f"{row['n_segments']} segments "
            f"(limit {OVERHEAD_LIMIT:+.0%})"
        )

    _write_payload(
        "budget_overhead",
        {"limit": OVERHEAD_LIMIT, "configs": results},
    )


def test_fallback_recovery_latency(report):
    rng = random.Random(11)
    database = VideoDatabase()
    for position in range(N_VIDEOS):
        database.add(
            flat_video(
                f"v{position}",
                build_segments(RECOVERY_SEGMENTS, 0.05, rng),
            )
        )
    planner = RetrievalEngine().planner
    k = 10

    # A fresh engine (one shared planner) per run: the list memo would
    # answer a repeat without touching the faulty index.
    def fault_free():
        engine = RetrievalEngine(planner=planner)
        return top_k_across_videos(engine, QUERY, database, k=k)

    def degraded():
        engine = RetrievalEngine(planner=planner)
        with resilience.scope():
            with inject(
                FaultSpec(resilience.SITE_INDEX_LOOKUP), seed=7
            ):
                return top_k_across_videos(engine, QUERY, database, k=k)

    clean_seconds, clean_ranking = best_of(fault_free)
    trace.METRICS.reset()
    degraded_seconds, degraded_ranking = best_of(degraded)
    fallbacks = trace.METRICS.counters().get(trace.ATOM_FALLBACK, 0)

    # Recovery must be lossless: the naive oracle scorer answers every
    # atom the broken index cannot, so the ranking is exactly preserved.
    assert list(degraded_ranking) == list(clean_ranking)
    assert fallbacks > 0, "no atom fallback engaged under index faults"

    slowdown = degraded_seconds / clean_seconds
    report(
        "Degraded-path latency: index faults -> naive atom fallback",
        {
            "Videos": N_VIDEOS,
            "Segments/video": RECOVERY_SEGMENTS,
            "Fault-free": f"{clean_seconds:.4f}",
            "Degraded": f"{degraded_seconds:.4f}",
            "Slowdown": f"{slowdown:.1f}x",
            "Fallbacks": fallbacks,
        },
    )
    _write_payload(
        "fallback_recovery",
        {
            "n_videos": N_VIDEOS,
            "segments_per_video": RECOVERY_SEGMENTS,
            "fault_free_seconds": clean_seconds,
            "degraded_seconds": degraded_seconds,
            "slowdown": slowdown,
            "atom_fallbacks": fallbacks,
            "ranking_identical": True,
        },
    )
