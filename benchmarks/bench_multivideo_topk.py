"""Multi-video top-k fast path: cold vs warm-cache vs pruned.

Not a paper table — this measures the retrieval fast path added on top of
the reproduction (ISSUE 1): an :class:`~repro.core.cache.EvaluationCache`
memoizing subformula tables and whole-query lists, and bound-based video
pruning in :func:`~repro.core.topk.top_k_across_videos`.  The synthetic
corpus is N flat videos of M segments with ``P1``/``P2`` similarity
lists drawn by :mod:`repro.workloads.synthetic` at the paper's ~10%
selectivity.

Emits ``BENCH_multivideo.json`` next to the current working directory so
CI logs carry machine-readable numbers.  Set ``BENCH_QUICK=1`` for a
seconds-scale run.
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from repro.bench.reporting import write_report_json
from repro.core.cache import EvaluationCache
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata
from repro.workloads.synthetic import random_similarity_list

QUICK = bool(os.environ.get("BENCH_QUICK"))
N_VIDEOS = 8 if QUICK else 32
N_SEGMENTS = 500 if QUICK else 5_000
K = 25
FORMULA = parse("$P1 and eventually $P2")
REPEAT = 3 if QUICK else 5

RESULTS_PATH = Path("BENCH_multivideo.json")


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


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(1997)
    database = VideoDatabase()
    for position in range(N_VIDEOS):
        video = flat_video(
            f"vid{position:03d}",
            [SegmentMetadata() for __ in range(N_SEGMENTS)],
        )
        database.add(video)
        for name in ("P1", "P2"):
            database.register_atomic(
                name,
                video.name,
                random_similarity_list(N_SEGMENTS, rng=rng),
            )
    return database


def test_multivideo_topk_fast_path(corpus, report):
    cold_engine = RetrievalEngine()
    cold_seconds, baseline = best_of(
        lambda: top_k_across_videos(
            cold_engine, FORMULA, corpus, K, prune=False
        )
    )

    cache = EvaluationCache()
    warm_engine = RetrievalEngine(cache=cache)
    # Populate the cache, then time repeated-query latency.
    top_k_across_videos(warm_engine, FORMULA, corpus, K)
    populated = cache.stats()
    warm_seconds, warm_result = best_of(
        lambda: top_k_across_videos(warm_engine, FORMULA, corpus, K)
    )
    stats = cache.stats()

    pruned_seconds, pruned_result = best_of(
        lambda: top_k_across_videos(
            RetrievalEngine(), FORMULA, corpus, K, prune=True
        )
    )

    # Acceptance: identical rankings, and the warm cache does what the
    # cold/warm time ratio stood for — every warm query answered from the
    # whole-query list memo, no subformula table built or even looked up.
    # The ratio itself is reported, not gated: it falls whenever the cold
    # path gets faster (quick mode 8.2x -> 4.0x, full mode 64x -> 23x when
    # the object universe stopped being re-walked per request: cold 71.5
    # -> 24.8 ms, warm 1.1 ms before and after); the counts repeat exactly.
    assert warm_result == baseline
    assert pruned_result == baseline
    speedup = cold_seconds / warm_seconds
    assert stats.misses == populated.misses, (stats, populated)
    assert stats.table_hits == populated.table_hits, (stats, populated)
    # (the videos pruning skips are never looked up at all)
    warm_hits = stats.list_hits - populated.list_hits
    assert warm_hits == populated.list_entries * REPEAT, (stats, populated)

    rows = {
        "Videos": N_VIDEOS,
        "Segments": N_SEGMENTS,
        "Cold": f"{cold_seconds:.4f}",
        "Warm cache": f"{warm_seconds:.4f}",
        "Warm speedup": f"{speedup:.1f}x",
        "Pruned": f"{pruned_seconds:.4f}",
    }
    report("Multi-video top-k fast path (seconds)", rows)

    payload = {
        "n_videos": N_VIDEOS,
        "n_segments": N_SEGMENTS,
        "k": K,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "warm_speedup": speedup,
        "pruned_seconds": pruned_seconds,
        "cache": {
            "table_hits": stats.table_hits,
            "table_misses": stats.table_misses,
            "list_hits": stats.list_hits,
            "list_misses": stats.list_misses,
            "hit_rate": stats.hit_rate,
        },
        "rankings_identical": True,
    }
    write_report_json(RESULTS_PATH, payload)
