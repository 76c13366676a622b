"""Observability overhead: span sites when tracing is off, and the cost
of a fully traced query (DESIGN.md §10).

Not a paper table — this gates the tracing layer's contract:

1. **Disabled path.**  Every span site costs one thread-local attribute
   read (plus one boolean check at ``staged_span`` sites) when no
   recorder is installed.  End-to-end A/B timing cannot resolve a <= 2%
   effect against run-to-run noise on this workload, so the gate is
   analytic and deterministic: micro-benchmark the disabled-path cost of
   one site, count the sites an actual query executes (one span per site
   execution in a traced run), and require

       site_count * per_site_seconds / bare_seconds <= 2%

   on the sparse 5k-segment configuration (500 segments in quick mode —
   same gate, the analytic estimate does not get noisier when fast).

2. **Enabled path.**  A fully traced, metrics-enabled run is allowed to
   cost real money; the benchmark reports the ratio and the per-stage
   breakdown/histograms so a regression in the tracing layer itself is
   visible in ``BENCH_trace.json``.

Emits ``BENCH_trace.json`` in the current working directory.  Set
``BENCH_QUICK=1`` for a seconds-scale run (CI).
"""

import json
import os
import random
import time
from pathlib import Path

from repro.bench.reporting import metrics_payload, write_report_json
from repro.core import trace
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video

from benchmarks.bench_atom_tables import build_segments

QUICK = bool(os.environ.get("BENCH_QUICK"))
N_SEGMENTS = 500 if QUICK else 5_000
DENSITY = 0.05
N_VIDEOS = 3 if QUICK else 4
REPEAT = 3 if QUICK else 5
#: The disabled-path contract: span sites may cost at most 2% of the
#: bare sparse-5k runtime.  The analytic estimate is deterministic, so
#: quick mode keeps the same gate.
OVERHEAD_LIMIT = 0.02
#: Iterations of the disabled-site micro-benchmark.
MICRO_ITERATIONS = 20_000 if QUICK else 100_000

QUERY = parse(
    "(exists x . present(x) and type(x) = 'person') and "
    "eventually (exists x . holds_gun(x))"
)

RESULTS_PATH = Path("BENCH_trace.json")


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


def _corpus():
    rng = random.Random(1997)
    database = VideoDatabase()
    for position in range(N_VIDEOS):
        database.add(
            flat_video(
                f"v{position}", build_segments(N_SEGMENTS, DENSITY, rng)
            )
        )
    return database


def _disabled_site_seconds():
    """Best-of cost of one span site on the disabled path (no recorder,
    metrics off): the exact code every instrumented region runs when
    observability is idle."""
    assert trace.current() is None
    assert not trace.METRICS.is_enabled()

    def burst():
        for __ in range(MICRO_ITERATIONS):
            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "bench-noop"
            ):
                pass

    seconds, __ = best_of(burst)
    return seconds / MICRO_ITERATIONS


def test_disabled_path_overhead(report):
    trace.METRICS.disable()
    trace.METRICS.reset()
    database = _corpus()
    engine = RetrievalEngine()
    k = 10

    def bare():
        return top_k_across_videos(engine, QUERY, database, k=k)

    bare_seconds, bare_ranking = best_of(bare)

    # One span per site execution: a traced run of the same query counts
    # exactly the sites the bare run passes through.
    traced = top_k_across_videos(
        RetrievalEngine(), QUERY, database, k=k, profile=True
    )
    assert traced.segments == bare_ranking.segments
    span_sites = sum(1 for __ in traced.profile.walk())

    per_site = _disabled_site_seconds()
    estimated = span_sites * per_site / bare_seconds

    report(
        "Tracing disabled-path overhead (analytic gate)",
        {
            "Segments": N_SEGMENTS,
            "Videos": N_VIDEOS,
            "Bare": f"{bare_seconds:.4f}s",
            "Sites": span_sites,
            "Per-site": f"{per_site * 1e9:.0f}ns",
            "Estimated": f"{estimated:+.2%}",
            "Limit": f"{OVERHEAD_LIMIT:+.0%}",
        },
    )
    assert estimated <= OVERHEAD_LIMIT, (
        f"disabled span sites cost an estimated {estimated:+.2%} of the "
        f"bare runtime ({span_sites} sites x {per_site * 1e9:.0f}ns on "
        f"{bare_seconds:.4f}s; limit {OVERHEAD_LIMIT:+.0%})"
    )
    _write_payload(
        "disabled_overhead",
        {
            "n_segments": N_SEGMENTS,
            "n_videos": N_VIDEOS,
            "bare_seconds": bare_seconds,
            "span_sites": span_sites,
            "per_site_seconds": per_site,
            "estimated_overhead": estimated,
            "limit": OVERHEAD_LIMIT,
        },
    )


def test_enabled_tracing_cost(report):
    database = _corpus()
    engine = RetrievalEngine()
    k = 10

    def bare():
        return top_k_across_videos(engine, QUERY, database, k=k)

    def traced():
        trace.METRICS.enable()
        try:
            return top_k_across_videos(
                engine, QUERY, database, k=k, profile=True
            )
        finally:
            trace.METRICS.disable()

    bare_seconds, bare_ranking = best_of(bare)
    traced_seconds, traced_ranking = best_of(traced)
    # Tracing must never change the answer, only the clock.
    assert traced_ranking.segments == bare_ranking.segments

    ratio = traced_seconds / bare_seconds
    root = traced_ranking.profile
    breakdown = {
        name: {"seconds": total.seconds, "calls": total.calls}
        for name, total in root.stage_totals().items()
    }
    report(
        "Fully traced query cost (tracing + metrics enabled)",
        {
            "Segments": N_SEGMENTS,
            "Videos": N_VIDEOS,
            "Bare": f"{bare_seconds:.4f}s",
            "Traced": f"{traced_seconds:.4f}s",
            "Ratio": f"{ratio:.2f}x",
            "Spans": sum(1 for __ in root.walk()),
        },
    )
    _write_payload(
        "enabled_tracing",
        {
            "n_segments": N_SEGMENTS,
            "n_videos": N_VIDEOS,
            "bare_seconds": bare_seconds,
            "traced_seconds": traced_seconds,
            "ratio": ratio,
            "stage_breakdown": breakdown,
            "metrics": metrics_payload(),
        },
    )
