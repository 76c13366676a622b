"""Tests for top-k retrieval and ranked presentation."""

import heapq
import random

import pytest
from hypothesis import given, settings

from repro.core.engine import RetrievalEngine, actual_upper_bound
from repro.core.simlist import SIM_EPS, SimilarityList
from repro.core.topk import (
    ranked_entries,
    top_k_across_videos,
    top_k_segments,
)
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.shard import ShardedCorpus
from repro.workloads.synthetic import random_similarity_list

from tests.integration.strategies import flat_videos, type1_formulas


@pytest.fixture
def sim():
    return SimilarityList.from_entries(
        [((1, 3), 2.0), ((5, 5), 6.0), ((8, 9), 4.0)], 8.0
    )


class TestRankedEntries:
    def test_descending_similarity(self, sim):
        assert ranked_entries(sim) == [
            (5, 5, 6.0),
            (8, 9, 4.0),
            (1, 3, 2.0),
        ]

    def test_ties_break_on_begin(self):
        tied = SimilarityList.from_entries(
            [((7, 7), 2.0), ((1, 1), 2.0)], 4.0
        )
        assert ranked_entries(tied) == [(1, 1, 2.0), (7, 7, 2.0)]


class TestTopKSegments:
    def test_takes_best_first(self, sim):
        segments = top_k_segments(sim, 3, video="v")
        assert [(s.segment_id, s.actual) for s in segments] == [
            (5, 6.0),
            (8, 4.0),
            (9, 4.0),
        ]

    def test_expands_intervals_in_order(self, sim):
        segments = top_k_segments(sim, 6)
        assert [s.segment_id for s in segments] == [5, 8, 9, 1, 2, 3]

    def test_k_larger_than_support(self, sim):
        assert len(top_k_segments(sim, 100)) == sim.support_size()

    def test_k_zero(self, sim):
        assert top_k_segments(sim, 0) == []

    def test_fraction(self, sim):
        best = top_k_segments(sim, 1)[0]
        assert best.fraction == pytest.approx(0.75)

    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize("seed", range(4))
    def test_ranks_as_a_one_video_query_for_every_k(self, seed, tied):
        """One list through the query heap ranks as the query loop ranks a
        one-video corpus registering it, for every k up to past the
        list's support."""
        rng = random.Random(seed)
        sim = random_similarity_list(40, rng=rng)
        if tied:
            sim = SimilarityList.from_entries(
                [
                    ((entry.begin, entry.end), float(rng.randint(1, 3)))
                    for entry in sim
                ],
                sim.maximum,
            )
        database = VideoDatabase()
        database.add(flat_video("v", [SegmentMetadata() for __ in range(40)]))
        database.register_atomic("P", "v", sim)
        for k in range(sim.support_size() + 3):
            assert top_k_segments(sim, k, "v") == top_k_across_videos(
                RetrievalEngine(), parse("$P"), database, k, prune=False
            )


def two_video_database():
    database = VideoDatabase()
    first = flat_video(
        "alpha",
        [
            SegmentMetadata(objects=[make_object("a", "train")]),
            SegmentMetadata(),
        ],
    )
    second = flat_video(
        "beta",
        [
            SegmentMetadata(),
            SegmentMetadata(objects=[make_object("a", "train")]),
            SegmentMetadata(objects=[make_object("a", "train")]),
        ],
    )
    database.add(first)
    database.add(second)
    return database


class TestAcrossVideos:
    def test_global_ranking(self):
        database = two_video_database()
        engine = RetrievalEngine()
        formula = parse("exists x . present(x) and type(x) = 'train'")
        results = top_k_across_videos(engine, formula, database, k=4)
        assert [(r.video, r.segment_id) for r in results] == [
            ("alpha", 1),
            ("beta", 2),
            ("beta", 3),
        ]

    def test_k_limits(self):
        database = two_video_database()
        engine = RetrievalEngine()
        formula = parse("exists x . present(x)")
        results = top_k_across_videos(engine, formula, database, k=2)
        assert len(results) == 2

    def test_video_ranking(self):
        database = two_video_database()
        engine = RetrievalEngine()
        # Whole-video browsing: does the video eventually show a train?
        formula = parse(
            "at_next_level(eventually "
            "(exists x . present(x) and type(x) = 'train'))"
        )
        ranking = ShardedCorpus.from_database(database).top_k(
            engine, formula, k=2, level=1
        )
        assert [(hit.video, hit.segment_id) for hit in ranking] == [
            ("alpha", 1),
            ("beta", 1),
        ]
        assert ranking[0].actual == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# the multi-video fast path: streaming heap and pruning
# ---------------------------------------------------------------------------
def synthetic_corpus(n_videos=8, n_segments=300, seed=23):
    rng = random.Random(seed)
    database = VideoDatabase()
    for position in range(n_videos):
        video = flat_video(
            f"vid{position:02d}", [SegmentMetadata() for __ in range(n_segments)]
        )
        database.add(video)
        for name in ("P1", "P2"):
            database.register_atomic(
                name, video.name, random_similarity_list(n_segments, rng=rng)
            )
    return database


def oracle_top_k(engine, formula, database, k, level=2):
    """The pre-rewrite implementation: full expansion + nsmallest."""
    candidates = []
    for video in database.videos():
        sim = engine.evaluate_video(
            formula, video, level=level, database=database
        )
        for entry in sim.entries:
            for segment_id in entry.interval:
                candidates.append(
                    (entry.actual, video.name, segment_id, sim.maximum)
                )
    best = heapq.nsmallest(
        k, candidates, key=lambda item: (-item[0], item[1], item[2])
    )
    return [(video, seg, actual, maximum) for actual, video, seg, maximum in best]


CORPUS_FORMULAS = [
    "$P1 and $P2",
    "$P1 until $P2",
    "$P1 and eventually $P2",
    "next ($P1 and $P2)",
]


class TestFastPathIdentity:
    @pytest.mark.parametrize("text", CORPUS_FORMULAS)
    @pytest.mark.parametrize("k", [1, 7, 50, 10_000])
    def test_matches_expansion_oracle(self, text, k):
        database = synthetic_corpus()
        engine = RetrievalEngine()
        formula = parse(text)
        expected = oracle_top_k(engine, formula, database, k)
        got = top_k_across_videos(engine, formula, database, k, prune=False)
        assert [
            (r.video, r.segment_id, r.actual, r.maximum) for r in got
        ] == expected

    @pytest.mark.parametrize("text", CORPUS_FORMULAS)
    def test_pruned_identical_to_unpruned(self, text):
        database = synthetic_corpus()
        formula = parse(text)
        unpruned = top_k_across_videos(
            RetrievalEngine(), formula, database, 12, prune=False
        )
        # Twice on one engine: the second run's lists are memo hits.
        engine = RetrievalEngine()
        for __ in range(2):
            pruned = top_k_across_videos(engine, formula, database, 12)
            assert pruned == unpruned

    def test_prune_without_registered_bound_is_safe(self):
        # Metadata atoms have only structural bounds; unregistered $refs
        # yield no bound at all — neither may change the answer.
        database = two_video_database()
        engine = RetrievalEngine()
        formula = parse("eventually (exists x . present(x))")
        assert top_k_across_videos(
            engine, formula, database, k=2, prune=True
        ) == top_k_across_videos(engine, formula, database, k=2, prune=False)

    def test_k_zero(self):
        database = synthetic_corpus(n_videos=2, n_segments=20)
        assert (
            top_k_across_videos(
                RetrievalEngine(), parse("$P1"), database, k=0
            )
            == []
        )


class TestUpperBound:
    def test_registered_atomics_tighten_the_bound(self):
        database = synthetic_corpus(n_videos=1, n_segments=50)
        video = database.get("vid00")
        formula = parse("$P1 and $P2")
        bound = actual_upper_bound(formula, video, 2, database)
        best = max(
            entry.actual
            for entry in RetrievalEngine().evaluate_video(
                formula, video, database=database
            )
        )
        assert best <= bound + SIM_EPS
        # The actual-based bound is tighter than the structural maximum.
        assert bound < 40.0

    @settings(max_examples=30, deadline=None)
    @given(video=flat_videos(), formula=type1_formulas())
    def test_bound_is_admissible_on_random_formulas(self, video, formula):
        database = VideoDatabase()
        database.add(video)
        bound = actual_upper_bound(formula, video, 2, database)
        sim = RetrievalEngine().evaluate_video(
            formula, video, database=database
        )
        for entry in sim.entries:
            assert entry.actual <= bound + SIM_EPS


# ---------------------------------------------------------------------------
# resilience: provenance, partial results, cancellation
# ---------------------------------------------------------------------------
from repro.core import resilience  # noqa: E402
from repro.core.topk import (  # noqa: E402
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_PRUNED,
    OUTCOME_TIMED_OUT,
    TopKResult,
    VideoOutcome,
)
from repro.errors import BudgetExceededError  # noqa: E402


class RecordingEngine(RetrievalEngine):
    """A real engine that logs which videos it evaluated and can be told
    to fail for some of them."""

    def __init__(self, fail_for=(), **kwargs):
        super().__init__(**kwargs)
        self.fail_for = set(fail_for)
        self.calls = []

    def evaluate_video(self, formula, video, level=2, database=None,
                       atomic_lists=None):
        self.calls.append(video.name)
        if video.name in self.fail_for:
            raise RuntimeError(f"evaluation down for {video.name}")
        return super().evaluate_video(
            formula, video, level=level, database=database,
            atomic_lists=atomic_lists,
        )


class TestTopKResult:
    def test_sequence_protocol_and_list_equality(self):
        database = two_video_database()
        formula = parse("exists x . present(x)")
        result = top_k_across_videos(RetrievalEngine(), formula, database, k=3)
        assert isinstance(result, TopKResult)
        assert len(result) == 3
        assert result[0].video == result.segments[0].video
        assert list(result) == result.segments
        assert result == result.segments  # list on the right
        assert result.segments == list(result)

    def test_outcomes_cover_every_video_in_order(self):
        database = two_video_database()
        formula = parse("exists x . present(x)")
        result = top_k_across_videos(RetrievalEngine(), formula, database, k=3)
        assert [o.video for o in result.outcomes] == ["alpha", "beta"]
        assert all(o.status == OUTCOME_OK for o in result.outcomes)
        assert not result.partial
        assert result.failed_videos == []
        assert result.outcome_for("alpha").ok
        assert result.outcome_for("nope") is None

    def test_pruned_videos_are_marked_not_degraded(self):
        database = synthetic_corpus(n_videos=6, n_segments=100)
        formula = parse("$P1 and $P2")
        result = top_k_across_videos(
            RetrievalEngine(), formula, database, k=1, prune=True
        )
        statuses = {o.status for o in result.outcomes}
        assert OUTCOME_PRUNED in statuses  # at least one prune fired
        assert not result.partial  # pruning is not degradation


class TestLenientMode:
    def test_failed_video_recorded_rest_still_ranked(self):
        database = two_video_database()
        formula = parse("exists x . present(x)")
        engine = RecordingEngine(fail_for=["beta"])
        result = top_k_across_videos(
            engine, formula, database, k=4, lenient=True
        )
        assert result.partial
        assert result.failed_videos == ["beta"]
        assert result.outcome_for("beta").status == OUTCOME_FAILED
        assert isinstance(result.outcome_for("beta").error, RuntimeError)
        assert {s.video for s in result} == {"alpha"}

    def test_strict_mode_raises_first_failure(self):
        database = two_video_database()
        formula = parse("exists x . present(x)")
        engine = RecordingEngine(fail_for=["beta"])
        with pytest.raises(RuntimeError, match="beta"):
            top_k_across_videos(engine, formula, database, k=4)

    def test_budget_timeout_marks_remaining_videos(self):
        database = two_video_database()
        formula = parse("exists x . present(x)")
        engine = RecordingEngine()
        result = top_k_across_videos(
            engine, formula, database, k=4,
            budget=resilience.QueryBudget(max_steps=1),
            lenient=True,
        )
        assert result.partial
        assert [o.status for o in result.outcomes] == [
            OUTCOME_TIMED_OUT, OUTCOME_TIMED_OUT,
        ]
        # The deadline aborted the fan-out: beta was never evaluated.
        assert engine.calls == ["alpha"]
        assert isinstance(
            result.outcome_for("beta").error, BudgetExceededError
        )

    def test_strict_budget_raises(self):
        database = two_video_database()
        formula = parse("exists x . present(x)")
        with pytest.raises(BudgetExceededError):
            top_k_across_videos(
                RetrievalEngine(), formula, database, k=4,
                budget=resilience.QueryBudget(max_steps=1),
            )

    def test_ambient_scope_supplies_budget_and_policy(self):
        database = two_video_database()
        formula = parse("exists x . present(x)")
        engine = RecordingEngine()
        with resilience.scope(
            budget=resilience.QueryBudget(max_steps=1), lenient=True
        ):
            result = top_k_across_videos(engine, formula, database, k=4)
        assert result.partial
        assert result.outcome_for("alpha").status == OUTCOME_TIMED_OUT


class TestFailureHandling:
    def test_failure_propagates_and_stops_later_videos(self):
        database = synthetic_corpus(n_videos=6, n_segments=30)
        formula = parse("$P1 and $P2")
        engine = RecordingEngine(fail_for=["vid00"])
        with pytest.raises(RuntimeError, match="vid00"):
            top_k_across_videos(engine, formula, database, k=5, prune=False)
        # Strict mode: no video after the failing one evaluates.
        assert engine.calls == ["vid00"]

    def test_lenient_keeps_ranking_other_videos(self):
        database = synthetic_corpus(n_videos=5, n_segments=40)
        formula = parse("$P1 and $P2")
        # The expected partial answer is the exact ranking over the corpus
        # with the failing video absent.
        reduced = VideoDatabase()
        for video in database.videos():
            if video.name == "vid02":
                continue
            reduced.add(video)
            for name in ("P1", "P2"):
                reduced.register_atomic(
                    name, video.name, database.atomic_list(name, video.name)
                )
        expected = top_k_across_videos(
            RetrievalEngine(), formula, reduced, k=6, prune=False
        )
        engine = RecordingEngine(fail_for=["vid02"])
        result = top_k_across_videos(
            engine, formula, database, k=6, prune=False, lenient=True
        )
        assert result.partial
        assert result.failed_videos == ["vid02"]
        assert result == expected

    def test_lenient_pruned_matches_plain(self):
        database = synthetic_corpus(n_videos=5, n_segments=60)
        formula = parse("$P1 until $P2")
        plain = top_k_across_videos(
            RetrievalEngine(), formula, database, k=8, prune=False
        )
        lenient = top_k_across_videos(
            RetrievalEngine(), formula, database, k=8, lenient=True
        )
        assert lenient == plain
        assert not lenient.partial

# ---------------------------------------------------------------------------
# sharding primitives: provenance-preserving merge, the pruning floor
# ---------------------------------------------------------------------------
from repro.core import trace  # noqa: E402
from repro.core.intervals import Interval  # noqa: E402
from repro.core.simlist import SimEntry, SimilarityList  # noqa: E402
from repro.core.topk import RetrievedSegment, _stream_entries  # noqa: E402


def _seg(video, segment_id, actual, maximum=20.0):
    return RetrievedSegment(video, segment_id, actual, maximum)


class TestTopKResultMerge:
    def test_disjoint_union_reranks_canonically(self):
        left = TopKResult(
            [_seg("a", 1, 9.0), _seg("a", 2, 3.0)],
            [VideoOutcome("a", OUTCOME_OK)],
        )
        right = TopKResult(
            [_seg("b", 7, 5.0)], [VideoOutcome("b", OUTCOME_OK)]
        )
        merged = TopKResult.merge(left, right)
        assert [(s.video, s.segment_id) for s in merged] == [
            ("a", 1), ("b", 7), ("a", 2),
        ]
        assert sorted(o.video for o in merged.outcomes) == ["a", "b"]
        assert not merged.partial

    def test_truncates_to_k(self):
        left = TopKResult([_seg("a", i, 10.0 - i) for i in range(1, 6)])
        right = TopKResult([_seg("b", i, 9.5 - i) for i in range(1, 6)])
        merged = TopKResult.merge(left, right, k=3)
        assert [(s.video, s.segment_id) for s in merged] == [
            ("a", 1), ("b", 1), ("a", 2),
        ]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_keeps_no_segment(self, k):
        # As ShardedCorpus.top_k answers k <= 0; outcomes still merge.
        result = TopKResult(
            [_seg("a", 1, 9.0), _seg("a", 2, 3.0)],
            [VideoOutcome("a", OUTCOME_OK)],
        )
        merged = TopKResult.merge(result, k=k)
        assert merged == []
        assert [o.video for o in merged.outcomes] == ["a"]

    def test_ties_break_by_video_then_segment(self):
        left = TopKResult([_seg("b", 2, 5.0), _seg("b", 1, 5.0)])
        right = TopKResult([_seg("a", 9, 5.0)])
        merged = TopKResult.merge(left, right)
        assert [(s.video, s.segment_id) for s in merged] == [
            ("a", 9), ("b", 1), ("b", 2),
        ]

    def test_duplicate_video_segment_keeps_highest_actual(self):
        # Overlapping corpora (e.g. a retried shard): the same segment
        # reported twice must appear once, at its best score.
        left = TopKResult([_seg("a", 1, 4.0)])
        right = TopKResult([_seg("a", 1, 6.0), _seg("a", 2, 1.0)])
        merged = TopKResult.merge(left, right)
        assert [(s.video, s.segment_id, s.actual) for s in merged] == [
            ("a", 1, 6.0), ("a", 2, 1.0),
        ]

    def test_conflicting_outcomes_most_informative_wins(self):
        error = RuntimeError("boom")
        ok_then_failed = TopKResult.merge(
            TopKResult([], [VideoOutcome("a", OUTCOME_OK)]),
            TopKResult([], [VideoOutcome("a", OUTCOME_FAILED, error)]),
        )
        # ok beats failed regardless of order...
        assert ok_then_failed.outcomes[0].status == OUTCOME_OK
        failed_then_ok = TopKResult.merge(
            TopKResult([], [VideoOutcome("a", OUTCOME_FAILED, error)]),
            TopKResult([], [VideoOutcome("a", OUTCOME_OK)]),
        )
        assert failed_then_ok.outcomes[0].status == OUTCOME_OK
        # ...failed beats pruned (damage stays visible)...
        merged = TopKResult.merge(
            TopKResult([], [VideoOutcome("a", OUTCOME_PRUNED)]),
            TopKResult([], [VideoOutcome("a", OUTCOME_FAILED, error)]),
        )
        assert merged.outcomes[0].status == OUTCOME_FAILED
        assert merged.outcomes[0].error is error
        assert merged.partial
        # ...and equal ranks keep the first-seen outcome.
        first = VideoOutcome("a", OUTCOME_FAILED, RuntimeError("first"))
        second = VideoOutcome("a", OUTCOME_TIMED_OUT, RuntimeError("second"))
        merged = TopKResult.merge(
            TopKResult([], [first]), TopKResult([], [second])
        )
        assert merged.outcomes[0] is first

    def test_partial_recomputed_from_merged_outcomes(self):
        healthy = TopKResult([], [VideoOutcome("a", OUTCOME_OK)])
        degraded = TopKResult(
            [],
            [VideoOutcome("b", OUTCOME_TIMED_OUT, TimeoutError())],
            partial=True,
        )
        assert not TopKResult.merge(healthy, healthy).partial
        assert TopKResult.merge(healthy, degraded).partial

    def test_profile_keeps_first_span(self):
        with trace.recording() as recorder:
            with recorder.span(trace.KIND_QUERY, "q") as span:
                pass
        first = TopKResult([], profile=span)
        second = TopKResult([])
        assert TopKResult.merge(second, first).profile is span
        assert TopKResult.merge(first, second).profile is span

    def test_empty_merge(self):
        merged = TopKResult.merge()
        assert merged == []
        assert not merged.outcomes
        assert not merged.partial


class TestPruningFloor:
    """The query heap's k-th score is the floor every shard prunes
    against: each entry counts once per segment, up to k."""

    @staticmethod
    def floor(heap, k):
        return heap[0][0] if len(heap) == k else None

    def stream(self, heap, k, entries, video="v"):
        sim = SimilarityList.from_columns(
            [entry.begin for entry in entries],
            [entry.end for entry in entries],
            [entry.actual for entry in entries],
            20.0,
        )
        _stream_entries(heap, k, sim, video)

    def test_no_floor_before_k_segments(self):
        heap = []
        self.stream(heap, 3, [SimEntry(Interval(1, 2), 4.0)])
        # Only 2 candidate segments so far — below k, still no floor.
        assert self.floor(heap, 3) is None

    def test_floor_is_kth_best(self):
        heap = []
        entries = [
            SimEntry(Interval(1, 1), 5.0),
            SimEntry(Interval(2, 2), 9.0),
            SimEntry(Interval(3, 3), 7.0),
        ]
        self.stream(heap, 2, entries)
        assert self.floor(heap, 2) == pytest.approx(7.0)

    def test_runs_count_per_segment(self):
        # A run of 4 segments at one value is 4 candidate answers.
        heap = []
        self.stream(heap, 3, [SimEntry(Interval(1, 4), 6.0)])
        assert self.floor(heap, 3) == pytest.approx(6.0)

    def test_floor_only_improves_across_videos(self):
        heap = []
        self.stream(heap, 1, [SimEntry(Interval(1, 1), 3.0)], "a")
        self.stream(heap, 1, [SimEntry(Interval(1, 1), 1.0)], "b")
        assert self.floor(heap, 1) == pytest.approx(3.0)
        self.stream(heap, 1, [SimEntry(Interval(1, 1), 8.0)], "c")
        assert self.floor(heap, 1) == pytest.approx(8.0)
