"""One path table for the ranked fan-out.

Every ranked query runs the one loop of ``ShardedCorpus.top_k``, and
``top_k_across_videos`` runs a database there as a one-shard corpus
(DESIGN.md §6, §12), so every way of running a query — direct or through
1/2/4 shards, strict or lenient, on indexed or naive atoms, planned or
not — must give the direct indexed run's answer.
Each row below is a corpus + query; each column a path; each fault a way
for a video to go missing.
"""

import random

import pytest

from repro.core import resilience
from repro.core.engine import EngineConfig, RetrievalEngine, actual_upper_bound
from repro.core.topk import (
    OUTCOME_FAILED,
    OUTCOME_PRUNED,
    OUTCOME_TIMED_OUT,
    top_k_across_videos,
)
from repro.errors import BudgetExceededError, UnsupportedFormulaError
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.pictures.signature import clip_from_segments, resolve_clips
from repro.shard import ShardedCorpus
from repro.workloads.clips import clips_video
from repro.workloads.synthetic import random_similarity_list

from tests.core.test_topk import RecordingEngine

K = 5


def skewed_corpus(n_videos=8, n_segments=30, seed=15):
    """A rare object type in a few leading segments of each video, plus
    registered lists whose ceilings differ per video so pruning fires."""
    rng = random.Random(seed)
    database = VideoDatabase()
    for position in range(n_videos):
        segments = []
        for index in range(n_segments):
            objects = [make_object("common", "plane")]
            if index <= position % 3:
                objects.append(make_object(f"rare{index}", "person"))
            segments.append(SegmentMetadata(objects=objects))
        video = flat_video(f"vid{position:02d}", segments)
        database.add(video)
        for name in ("P1", "P2"):
            database.register_atomic(
                name,
                video.name,
                random_similarity_list(
                    n_segments,
                    satisfy_fraction=0.2,
                    maximum=2.0 + 1.5 * position,
                    rng=rng,
                ),
            )
    return database


def clips_corpus(n_videos=5):
    """Rotations of the analyzer-produced broadcast: every video carries
    content signatures, each ranks the anchor desk at different ids."""
    shots = [node.metadata for node in clips_video().nodes_at_level(2)]
    database = VideoDatabase()
    for position in range(n_videos):
        database.add(
            flat_video(
                f"clips{position}", shots[position:] + shots[:position]
            )
        )
    return database, clip_from_segments(shots[:1])


#: (id, corpus, query text, prune)
ROWS = [
    ("registered", "skewed", "$P1 and eventually $P2", True),
    (
        "metadata",
        "skewed",
        "exists x . (present(x) and type(x) = 'person')",
        True,
    ),
    ("unpruned", "skewed", "$P1 until $P2", False),
    ("looks-like", "clips", "looks_like('anchor', 0.9)", True),
]

#: Shard counts; None is the direct database.
PATHS = [None, 1, 2, 4]

#: Engine configurations a path may run under; none changes a result
#: (DESIGN.md §7 for naive atoms, §13 for the planner).
CONFIGS = {
    "indexed": EngineConfig(),
    "naive-atoms": EngineConfig(naive_atoms=True),
    "unplanned": EngineConfig(plan=False),
}

def build(row):
    __, corpus, text, prune = row
    if corpus == "clips":
        database, anchor = clips_corpus()
        return database, resolve_clips(parse(text), {"anchor": anchor}), prune
    return skewed_corpus(), parse(text), prune


def never_pruned(database, formula):
    """The video with the largest admissible bound: the pruning floor is
    a score some video reached, so it can never exceed this bound."""

    def bound(video):
        try:
            return actual_upper_bound(formula, video, 2, database)
        except UnsupportedFormulaError:
            return float("inf")

    return max(database.videos(), key=bound).name


def expiring_steps(database, formula, prune, at=2):
    """A step ceiling the direct serial run exhausts inside video ``at``."""
    traced = top_k_across_videos(
        RetrievalEngine(), formula, database, K, prune=prune,
        budget=resilience.QueryBudget(max_steps=10**9), profile=True,
    )
    steps = [
        span.attrs["budget-steps"]
        for span in traced.profile.walk()
        if span.kind == "video"
    ]
    assert steps[at] > 0
    return sum(steps[: at + 1]) - 1


def run(row, shards, lenient, fault, engine=None, config=None):
    database, formula, prune = build(row)
    engine = engine or RetrievalEngine(config)
    options = {"prune": prune, "lenient": lenient}
    if fault == "named":
        engine = RecordingEngine([never_pruned(database, formula)], config=config)
    if fault == "budget":
        options["budget"] = resilience.QueryBudget(
            max_steps=expiring_steps(database, formula, prune)
        )
    if shards is None:
        return top_k_across_videos(engine, formula, database, K, **options)
    corpus = ShardedCorpus.from_database(database, shards)
    return corpus.top_k(engine, formula, K, **options)


def ranking(result):
    return [(s.video, s.segment_id, s.actual, s.maximum) for s in result]


def ledger(result, exact):
    """Status per video; which videos a floor happened to prune depends on
    evaluation order, so only unpruned rows compare that exactly."""
    return {
        outcome.video: outcome.status
        if exact or outcome.status != OUTCOME_PRUNED
        else "ok"
        for outcome in result.outcomes
    }


@pytest.mark.parametrize("config", list(CONFIGS))
@pytest.mark.parametrize("fault", ["none", "named", "budget"])
@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
@pytest.mark.parametrize("shards", PATHS, ids=[f"shards={s}" for s in PATHS])
@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_every_path_gives_the_direct_serial_answer(
    row, shards, lenient, fault, config
):
    config = CONFIGS[config]
    n_videos = len(build(row)[0].names())
    if fault != "none" and not lenient:
        expected = RuntimeError if fault == "named" else BudgetExceededError
        with pytest.raises(expected):
            run(row, None, lenient, fault)
        with pytest.raises(expected):
            run(row, shards, lenient, fault, config=config)
        return
    reference = run(row, None, lenient, fault)
    result = run(row, shards, lenient, fault, config=config)
    assert len(result.outcomes) == len(reference.outcomes) == n_videos
    if fault == "budget":
        statuses = [outcome.status for outcome in reference.outcomes]
        assert OUTCOME_TIMED_OUT not in statuses[:2]
        assert statuses[2:] == [OUTCOME_TIMED_OUT] * (n_videos - 2)
        assert result.partial
        return
    assert ranking(result) == ranking(reference)
    exact = not row[3]
    assert ledger(result, exact) == ledger(reference, exact)
    assert result.partial == (fault == "named")
    if fault == "named":
        assert list(ledger(result, exact).values()).count(OUTCOME_FAILED) == 1


@pytest.mark.parametrize("shards", PATHS)
@pytest.mark.parametrize("row", ROWS, ids=[row[0] for row in ROWS])
def test_serial_paths_repeat_their_planner_counters(row, shards):
    """A plan is a function of formula and index shape, so running one
    serial path twice from cold repeats every planner counter."""
    stats = []
    for __ in range(2):
        engine = RetrievalEngine()
        run(row, shards, False, "none", engine=engine)
        stats.append(engine.planner.stats)
    assert stats[0] == stats[1]
