"""Streaming ingestion: incremental index maintenance vs. full rebuild.

Not a paper table — this measures the crash-safe ingest path
(DESIGN.md §15).  Three questions:

1. What does extending a warm picture system by one batch cost versus
   rebuilding it over the whole sequence?  The acceptance gate: at the
   paper's 5k-segment scale, the incremental append must be at least
   5x faster than the rebuild — otherwise "incremental maintenance"
   is a rebuild with extra bookkeeping.
2. What sustained rate does the durable path reach — WAL append, fsync
   commit, and in-place apply per batch?
3. How stale is the index after a commit?  The freshness lag is the
   extra latency of the first query after an append (which pays the
   incremental index extension) over a steady-state repeat query.

Emits ``BENCH_ingest.json`` in the current working directory.  Set
``BENCH_QUICK=1`` for a seconds-scale run (CI) with a relaxed ratio
gate — at a few hundred segments the rebuild is itself only
milliseconds, so the 5x gate would measure allocator noise.
"""

import os
import random
import time

from repro.bench.reporting import write_report_json
from repro.core.engine import RetrievalEngine
from repro.htl import parse
from repro.ingest import initialise
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.pictures.retrieval import PictureRetrievalSystem
from repro.workloads.synthetic import random_similarity_list

from benchmarks.bench_atom_tables import build_segments

QUICK = bool(os.environ.get("BENCH_QUICK"))
N_SEGMENTS = 500 if QUICK else 5_000
DENSITY = 0.02
#: One streaming batch: the shots a cut detector emits per arrival.
BATCH = 50
REPEAT = 3 if QUICK else 5
#: Full mode enforces the design gate (>= 5x); quick mode only checks
#: the incremental path is not slower than rebuilding.
SPEEDUP_FLOOR = 1.0 if QUICK else 5.0
#: Batches driven through the durable path for the throughput section.
N_BATCHES = 4 if QUICK else 10

RESULTS_PATH = "BENCH_ingest.json"

QUERY = "exists x . present(x) and type(x) = 'person'"

#: Both tests contribute to one report; the second writes it out.
_RESULTS = {}


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


def make_corpus(rng):
    prefix = build_segments(N_SEGMENTS, DENSITY, rng)
    batch = build_segments(BATCH, DENSITY, rng)
    return prefix, batch


def test_incremental_append_vs_rebuild(report):
    rng = random.Random(20260808)
    prefix, batch = make_corpus(rng)

    # best_of cannot time the append: each repeat mutates the video, so
    # the warm prefix system is rebuilt untimed before every measurement.
    incremental_seconds = None
    appended = None
    for __ in range(REPEAT):
        video = flat_video("bench", prefix)
        system = video.root.pictures_at_level(2)
        start = time.perf_counter()
        video.append_segments(batch)
        elapsed = time.perf_counter() - start
        if incremental_seconds is None or elapsed < incremental_seconds:
            incremental_seconds = elapsed
            appended = system

    rebuild_seconds, rebuilt = best_of(
        lambda: PictureRetrievalSystem(prefix + batch)
    )

    # Same answers, not just same speed class.
    assert appended.index.to_dict() == rebuilt.index.to_dict()
    speedup = rebuild_seconds / incremental_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental append is only {speedup:.1f}x faster than a full "
        f"rebuild at {N_SEGMENTS} segments (gate {SPEEDUP_FLOOR:.0f}x): "
        f"{incremental_seconds:.4f}s vs {rebuild_seconds:.4f}s"
    )

    report(
        "Streaming ingestion: index maintenance (seconds)",
        {
            "Segments": N_SEGMENTS,
            "Batch": BATCH,
            "Append (incremental)": f"{incremental_seconds:.4f}",
            "Rebuild (full)": f"{rebuild_seconds:.4f}",
            "Speedup": f"{speedup:.1f}x",
        },
    )
    _RESULTS.update(
        {
            "quick": QUICK,
            "n_segments": N_SEGMENTS,
            "batch": BATCH,
            "density": DENSITY,
            "append_seconds": incremental_seconds,
            "rebuild_seconds": rebuild_seconds,
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
        }
    )


def test_ingest_while_query_throughput(tmp_path, report):
    rng = random.Random(7)
    prefix, __ = make_corpus(rng)
    database = VideoDatabase()
    database.add(flat_video("live", prefix))
    database.register_atomic(
        "P1", "live", random_similarity_list(len(prefix), rng=rng)
    )
    formula = parse(QUERY)
    engine = RetrievalEngine()

    with initialise(tmp_path / "ingest", database) as ingester:
        video = ingester.database.get("live")
        # Warm the query path before streaming starts.
        engine.evaluate_video(formula, video, database=ingester.database)

        ingested = 0
        append_seconds = 0.0
        fresh_lags = []
        warm_queries = []
        for index in range(N_BATCHES):
            batch = build_segments(BATCH, DENSITY, random.Random(100 + index))
            start = time.perf_counter()
            ingester.append_segments("live", batch)
            ingester.commit()
            append_seconds += time.perf_counter() - start
            ingested += len(batch)

            start = time.perf_counter()
            engine.evaluate_video(
                formula, video, database=ingester.database
            )
            first_query = time.perf_counter() - start
            # The warm query runs on a fresh engine (one shared planner):
            # it measures a warm index, not a list memo hit.
            warm_engine = RetrievalEngine(planner=engine.planner)
            start = time.perf_counter()
            warm_engine.evaluate_video(
                formula, video, database=ingester.database
            )
            warm_query = time.perf_counter() - start
            fresh_lags.append(max(0.0, first_query - warm_query))
            warm_queries.append(warm_query)

        assert len(video.nodes_at_level(2)) == len(prefix) + ingested

    throughput = ingested / append_seconds
    freshness_lag = sum(fresh_lags) / len(fresh_lags)
    warm_query_seconds = sum(warm_queries) / len(warm_queries)

    report(
        "Streaming ingestion: durable path",
        {
            "Segments/s (WAL+apply+fsync)": f"{throughput:.0f}",
            "Freshness lag (s)": f"{freshness_lag:.4f}",
            "Warm query (s)": f"{warm_query_seconds:.4f}",
            "Batches": N_BATCHES,
        },
    )
    _RESULTS.update(
        {
            "ingest_segments_per_second": throughput,
            "freshness_lag_seconds": freshness_lag,
            "warm_query_seconds": warm_query_seconds,
            "n_batches": N_BATCHES,
        }
    )
    write_report_json(RESULTS_PATH, dict(_RESULTS))
