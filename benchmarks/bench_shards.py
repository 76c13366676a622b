"""Sharded top-k: scaling and shared-heap pruning.

Not a paper table — this measures the sharded corpus front end
(:mod:`repro.shard`): the corpus is partitioned round-robin into N
shards and a query runs them one after another, streaming every shard's
videos into one size-k heap, so the running global k-th-best score
prunes later shards' videos.

Two claims are gated here:

* **Identity** — every sharded configuration (any shard count, and the
  naive scatter-gather baseline) returns the byte-identical ranking of
  the unsharded serial scan.
* **Pruning** — on the sparse corpus, the shared heap scores *strictly
  fewer* segments than naive scatter-gather (each shard pruning only
  against its own local heap).  Segment counts are exact, not timed:
  shards run in a fixed order, so the schedule is deterministic.  The
  JSON keeps the ``exchange_*`` key names of the bound exchange the
  shared heap replaced, so its trajectory stays comparable.

The dense (50% selectivity) corpus is tracked but not gated: high
density compresses the spread between per-video bounds, so the shared
heap may win little there — when it stops winning at all, the run reports
the regression loudly (``dense_regressed`` in the JSON, a ``!`` row in
the table) without failing CI.

Emits ``BENCH_shards.json``.  Set ``BENCH_QUICK=1`` for a seconds-scale
run.
"""

import os
import random
import time
from pathlib import Path

import pytest

from repro.bench.reporting import write_report_json
from repro.core.engine import RetrievalEngine
from repro.core.topk import (
    OUTCOME_OK,
    OUTCOME_PRUNED,
    TopKResult,
    top_k_across_videos,
)
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata
from repro.shard import ShardedCorpus
from repro.store import split_database
from repro.workloads.synthetic import random_similarity_list

QUICK = bool(os.environ.get("BENCH_QUICK"))
N_VIDEOS = 8 if QUICK else 16
#: Per-video segments; the full sparse corpus totals ~5k segments.
N_SEGMENTS = 125 if QUICK else 320
K = 10
SPARSE = 0.1
DENSE = 0.5
SHARD_COUNTS = (1, 2, 4)
FORMULA = parse("$P1 and $P2")
REPEAT = 3 if QUICK else 5

RESULTS_PATH = Path("BENCH_shards.json")


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


def graded_corpus(density, seed=1997):
    """N flat videos whose similarity ceilings *differ* video to video.

    The per-video ``maximum`` grows with position, so the admissible
    upper bounds spread out — a corpus where every video tops out at the
    same ceiling gives pruning nothing to cut, which is the uniform
    degenerate case, not the case sharding is for.
    """
    rng = random.Random(seed)
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
                random_similarity_list(
                    N_SEGMENTS,
                    satisfy_fraction=density,
                    maximum=2.0 + 2.5 * position,
                    rng=rng,
                ),
            )
    return database


def scored_segments(result):
    """Segments actually scored: every segment of every evaluated video.

    A pruned video is skipped before any of its segments are scored, so
    the count is exact (and deterministic under serial scatter).
    """
    evaluated = sum(1 for o in result.outcomes if o.status == OUTCOME_OK)
    return evaluated * N_SEGMENTS


@pytest.fixture(scope="module")
def sparse_corpus():
    return graded_corpus(SPARSE)


@pytest.fixture(scope="module")
def dense_corpus():
    return graded_corpus(DENSE, seed=2003)


def _pruning_row(database, n_shards):
    """Deterministic naive vs shared-heap segment counts.

    Naive scatter-gather is every shard ranked on its own — pruning only
    against its local heap — and the results merged.
    """
    engine = RetrievalEngine()
    naive = TopKResult.merge(
        *(
            top_k_across_videos(engine, FORMULA, part, K)
            for part in split_database(database, n_shards)
        ),
        k=K,
    )
    corpus = ShardedCorpus.from_database(database, n_shards)
    exchange = corpus.top_k(engine, FORMULA, K)
    assert naive == exchange
    return {
        "naive_scored": scored_segments(naive),
        "exchange_scored": scored_segments(exchange),
        "naive_pruned_videos": sum(
            1 for o in naive.outcomes if o.status == OUTCOME_PRUNED
        ),
        "exchange_pruned_videos": sum(
            1 for o in exchange.outcomes if o.status == OUTCOME_PRUNED
        ),
        "ranking": [
            (r.video, r.segment_id, r.actual, r.maximum) for r in exchange
        ],
    }


def test_shard_scaling_and_pruning(sparse_corpus, dense_corpus, report):
    planner = RetrievalEngine().planner

    def engine():
        """A fresh engine (one shared planner) per timed run: the list
        memo would answer a repeat."""
        return RetrievalEngine(planner=planner)

    serial_seconds, serial = best_of(
        lambda: top_k_across_videos(
            engine(), FORMULA, sparse_corpus, K, prune=False
        )
    )
    expected = [(r.video, r.segment_id, r.actual, r.maximum) for r in serial]

    # -- scaling vs shard count (one shared heap, pruning on) ------------
    scaling = {}
    for n_shards in SHARD_COUNTS:
        corpus = ShardedCorpus.from_database(sparse_corpus, n_shards)
        seconds, result = best_of(
            lambda corpus=corpus: corpus.top_k(engine(), FORMULA, K)
        )
        assert result == serial, f"ranking diverged at {n_shards} shard(s)"
        scaling[n_shards] = seconds

    # -- pruning effectiveness (fixed shard order => exact counts) -------
    sparse = _pruning_row(sparse_corpus, 4)
    dense = _pruning_row(dense_corpus, 4)
    assert sparse["ranking"] == expected

    total = N_VIDEOS * N_SEGMENTS
    # The gate: on the sparse corpus the shared heap must beat naive
    # scatter-gather outright, or cross-shard bound flow is dead weight.
    assert sparse["exchange_scored"] < sparse["naive_scored"], (
        f"shared heap scored {sparse['exchange_scored']} segments, "
        f"naive scatter-gather {sparse['naive_scored']} — it pruned "
        f"nothing beyond local heaps"
    )

    # Tracked, not gated: report a dense regression loudly.
    dense_regressed = dense["exchange_scored"] >= dense["naive_scored"]

    for label, row in (("sparse 10%", sparse), ("dense 50%", dense)):
        marker = (
            " !regressed" if label.startswith("dense") and dense_regressed
            else ""
        )
        report(
            "Sharded pruning (segments scored, 4 shards)",
            {
                "Corpus": label + marker,
                "Total": total,
                "Naive": row["naive_scored"],
                "Shared heap": row["exchange_scored"],
                "Saved": f"{1 - row['exchange_scored'] / row['naive_scored']:.0%}",
                "Pruned videos": (
                    f"{row['naive_pruned_videos']}->"
                    f"{row['exchange_pruned_videos']}"
                ),
            },
        )
    report(
        "Sharded scaling (seconds, sparse corpus)",
        {
            "Videos": N_VIDEOS,
            "Segments/video": N_SEGMENTS,
            "Serial unsharded": f"{serial_seconds:.4f}",
            **{
                f"{n} shard(s)": f"{scaling[n]:.4f}"
                for n in SHARD_COUNTS
            },
        },
    )

    write_report_json(
        RESULTS_PATH,
        {
            "n_videos": N_VIDEOS,
            "n_segments_per_video": N_SEGMENTS,
            "total_segments": total,
            "k": K,
            "shard_counts": list(SHARD_COUNTS),
            "serial_seconds": serial_seconds,
            "scaling_seconds": {
                str(n): scaling[n] for n in SHARD_COUNTS
            },
            "sparse": {
                key: value
                for key, value in sparse.items()
                if key != "ranking"
            },
            "dense": {
                key: value
                for key, value in dense.items()
                if key != "ranking"
            },
            "dense_regressed": dense_regressed,
            "pruning_gate": (
                "sparse.exchange_scored < sparse.naive_scored"
            ),
            "rankings_identical": True,
        },
    )
    if dense_regressed:
        print(
            "\nWARNING: dense-corpus shared heap no longer beats naive "
            f"scatter-gather ({dense['exchange_scored']} vs "
            f"{dense['naive_scored']} segments scored)"
        )
