"""Cost-based query planner: work saved and plan-cache effectiveness.

Not a paper table — this measures the statistics-driven planner
(:mod:`repro.core.planner`, ISSUE 7, DESIGN.md §13) on a
skewed-selectivity corpus: a rare object type appears in 2 of 16 videos
while a common type appears everywhere.  The benchmark query conjoins
an everywhere-true atom with a rare-type atom of the same shape (one
free variable, one temporal operator) — only posting-list statistics can
tell them apart — so structural order (``EngineConfig(plan=False)``)
keeps the written order while the planner evaluates the selective side
first and short-circuits the expensive side wherever the rare type is
absent.  The planner prices each side in counted visits (bindings ×
candidates, or × segments when the density rule routes the binding); it
does not choose an atom's path.

Four claims are gated:

* **Work** — the planned engine scores *strictly fewer* segments than
  the structural-order engine (exact counts from the per-video picture
  systems, not timings).
* **Plan count** — the cold sweep builds exactly one plan per distinct
  (formula, statistics signature) pair: a plan is a function of that
  key, so the count is exact, not a bound.
* **Plan-cache warmth** — a warm repeat of the corpus sweep runs zero
  additional support probes and builds zero additional plans: planning
  cost is paid once per (formula, index-shape), not per query.
* **Identity** — the planned ranking is byte-identical to the
  structural-order engine's ranking, row for row.

Emits ``BENCH_planner.json``.  Set ``BENCH_QUICK=1`` for a
seconds-scale run.
"""

import os
import time
from pathlib import Path

import pytest

from repro.bench.reporting import write_report_json
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.planner import Statistics
from repro.core.topk import top_k_across_videos
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object

QUICK = bool(os.environ.get("BENCH_QUICK"))
N_VIDEOS = 8 if QUICK else 16
#: Per-video segments; the full corpus totals ~5k segments.
N_SEGMENTS = 125 if QUICK else 320
RARE_VIDEOS = 2  #: videos that contain the rare type at all
RARE_PER_VIDEO = 8  #: rare-type segments within those videos
K = 10
REPEAT = 3 if QUICK else 5

#: Both conjuncts are (1 free var, 1 temporal op, size 2) — a structural
#: tie that only index statistics can break.
FORMULA = parse(
    "exists x . ((eventually present(x)) and (eventually type(x) = 'person'))"
)

RESULTS_PATH = Path("BENCH_planner.json")


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


def skewed_corpus():
    """16 videos, rare type 'person' in the first 2 only.

    Every segment carries a distinct ``height`` attribute so the
    content-profile memo cannot collapse the corpus into a handful of
    representatives — scored-segment counts then reflect real sweep
    work, not memo hits.
    """
    database = VideoDatabase()
    for position in range(N_VIDEOS):
        segments = []
        for index in range(N_SEGMENTS):
            objects = [
                make_object(
                    f"plane{index % 37}", "plane", height=float(index)
                )
            ]
            if position < RARE_VIDEOS and index % (
                N_SEGMENTS // RARE_PER_VIDEO
            ) == 0:
                objects.append(
                    make_object(f"person{index}", "person", height=170.0)
                )
            segments.append(SegmentMetadata(objects=objects))
        database.add(flat_video(f"vid{position:03d}", segments))
    return database


def corpus_segments_scored(database):
    """Exact scored-segment count summed over every video's pictures."""
    return sum(
        video.root.pictures_at_level(2).stats.segments_scored
        for video in database.videos()
    )


def _sweep(engine, database):
    return top_k_across_videos(
        engine, FORMULA, database, K, prune=False
    )


def test_planner_work_cache_and_identity(report):
    # Separate databases per mode: picture-system counters are cumulative
    # per video, so each engine gets its own untouched corpus.
    planned_db = skewed_corpus()
    structural_db = skewed_corpus()

    planned_engine = RetrievalEngine()
    structural_engine = RetrievalEngine(EngineConfig(plan=False))

    planned_seconds, planned = best_of(
        lambda: _sweep(planned_engine, planned_db), repeat=1
    )
    structural_seconds, structural = best_of(
        lambda: _sweep(structural_engine, structural_db), repeat=1
    )

    # -- identity gate ---------------------------------------------------
    planned_rows = [
        (r.video, r.segment_id, r.actual, r.maximum) for r in planned
    ]
    structural_rows = [
        (r.video, r.segment_id, r.actual, r.maximum) for r in structural
    ]
    assert planned_rows == structural_rows, (
        "planned ranking diverged from structural-order ranking"
    )

    # -- work gate -------------------------------------------------------
    planned_scored = corpus_segments_scored(planned_db)
    structural_scored = corpus_segments_scored(structural_db)
    assert planned_scored < structural_scored, (
        f"planner scored {planned_scored} segments, structural order "
        f"{structural_scored} — statistics-driven ordering saved nothing"
    )

    # -- plan-count gate -------------------------------------------------
    stats_after_cold = planned_engine.planner.stats
    index_shapes = {
        Statistics.from_pictures(video.root.pictures_at_level(2)).signature
        for video in planned_db.videos()
    }
    assert stats_after_cold.plans_built == len(index_shapes), (
        f"cold sweep built {stats_after_cold.plans_built} plans for "
        f"{len(index_shapes)} distinct (formula, statistics signature) pairs"
    )

    # -- plan-cache warmth gate ------------------------------------------
    # A warm sweep must be pure cache hits: no support probes, no plan
    # builds.
    warm_seconds, warm = best_of(
        lambda: _sweep(planned_engine, planned_db), repeat=1
    )
    stats_after_warm = planned_engine.planner.stats
    assert [
        (r.video, r.segment_id, r.actual, r.maximum) for r in warm
    ] == planned_rows
    assert (
        stats_after_warm.support_probes == stats_after_cold.support_probes
    ), "warm queries re-ran support analysis despite the plan cache"
    assert (
        stats_after_warm.plans_built == stats_after_cold.plans_built
    ), "warm queries rebuilt plans despite the plan cache"

    # Timed repeats for the report (cold numbers above are exact-count
    # gates; timings here are best-of and informational).
    total = N_VIDEOS * N_SEGMENTS
    saved = 1 - planned_scored / structural_scored
    report(
        "Cost-based planner vs structural order (segments scored)",
        {
            "Corpus": f"{N_VIDEOS}x{N_SEGMENTS} "
            f"(rare type in {RARE_VIDEOS} videos)",
            "Total": total,
            "Structural": structural_scored,
            "Planned": planned_scored,
            "Saved": f"{saved:.0%}",
            "Plans built": stats_after_warm.plans_built,
            "Cache hits": stats_after_warm.cache_hits,
        },
    )
    report(
        "Cost-based planner timings (seconds, single sweep)",
        {
            "Structural": f"{structural_seconds:.4f}",
            "Planned cold": f"{planned_seconds:.4f}",
            "Planned warm": f"{warm_seconds:.4f}",
            "Support probes": stats_after_warm.support_probes,
            "Skipped subformulas": stats_after_warm.skipped_subformulas,
        },
    )

    write_report_json(
        RESULTS_PATH,
        {
            "quick": QUICK,
            "n_videos": N_VIDEOS,
            "n_segments_per_video": N_SEGMENTS,
            "total_segments": total,
            "rare_videos": RARE_VIDEOS,
            "k": K,
            "formula": str(FORMULA),
            "structural_scored": structural_scored,
            "planned_scored": planned_scored,
            "scored_saved_fraction": saved,
            "structural_seconds": structural_seconds,
            "planned_cold_seconds": planned_seconds,
            "planned_warm_seconds": warm_seconds,
            "plans_built": stats_after_warm.plans_built,
            "cache_hits": stats_after_warm.cache_hits,
            "support_probes": stats_after_warm.support_probes,
            "skipped_subformulas": stats_after_warm.skipped_subformulas,
            "distinct_index_shapes": len(index_shapes),
            "work_gate": "planned_scored < structural_scored",
            "plan_count_gate": (
                "cold plans_built == distinct (formula, statistics "
                "signature) pairs"
            ),
            "warm_gate": (
                "warm sweep adds no support probes and builds no plans"
            ),
            "rankings_identical": True,
        },
    )
