"""Tests for the type (1) list algorithms, including the paper's Figure 2.

Every operator is cross-checked against a naive per-segment computation of
the paper's §2.5 definitions (the property tests), and the worked UNTIL
example of Figure 2 is reproduced entry for entry.
"""

import collections

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import K, LEVEL, SMOKE, WORKLOADS
from repro.core import resilience
from repro.core.engine import RetrievalEngine
from repro.core.intervals import Interval
from repro.core.extensions import (
    bounded_always,
    bounded_eventually,
    fuzzy_and_lists,
    or_lists,
)
from repro.core.ops import (
    always_list,
    and_lists,
    eventually_list,
    max_merge_lists,
    next_list,
    pointwise_lists,
    threshold_runs,
    until_lists,
    until_runs,
)
from repro.core.simlist import SIM_EPS, SimEntry, SimilarityList
from repro.core.topk import top_k_across_videos
from repro.errors import SimilarityListInvariantError
from repro.htl.parser import parse

from tests.core.test_simlist import run_pieces, similarity_lists


def naive_and(left, right, horizon):
    return {
        i: left.actual_at(i) + right.actual_at(i)
        for i in range(1, horizon + 1)
    }


def naive_until(left, right, horizon, threshold):
    values = {}
    for position in range(1, horizon + 1):
        best = 0.0
        for witness in range(position, horizon + 1):
            best = max(best, right.actual_at(witness))
            if left.fraction_at(witness) + SIM_EPS < threshold:
                break
        values[position] = best
    return values


class TestAnd:
    def test_overlap_sums(self):
        left = SimilarityList.from_entries([((1, 10), 2.0)], 5.0)
        right = SimilarityList.from_entries([((5, 15), 3.0)], 7.0)
        result = and_lists(left, right)
        assert result.maximum == pytest.approx(12.0)
        assert result.actual_at(3) == pytest.approx(2.0)
        assert result.actual_at(7) == pytest.approx(5.0)
        assert result.actual_at(12) == pytest.approx(3.0)
        assert result.actual_at(16) == 0.0

    def test_one_side_empty_passes_through(self):
        left = SimilarityList.from_entries([((2, 4), 1.0)], 2.0)
        right = SimilarityList.empty(3.0)
        result = and_lists(left, right)
        assert result.maximum == pytest.approx(5.0)
        assert result.actual_at(3) == pytest.approx(1.0)

    def test_partial_satisfaction_kept(self):
        """Paper: 'even if one of a1 and a2 is zero ... f may be partially
        satisfied' — segments on only one list stay in the output."""
        left = SimilarityList.from_entries([((1, 1), 1.0)], 2.0)
        right = SimilarityList.from_entries([((9, 9), 1.5)], 2.0)
        result = and_lists(left, right)
        assert result.to_segment_values() == {
            1: pytest.approx(1.0),
            9: pytest.approx(1.5),
        }

    @given(similarity_lists(), similarity_lists())
    def test_matches_naive(self, left, right):
        result = and_lists(left, right)
        horizon = max(left.last_id(), right.last_id()) + 2
        naive = naive_and(left, right, horizon)
        for i in range(1, horizon + 1):
            assert result.actual_at(i) == pytest.approx(naive[i])

    @given(similarity_lists(), similarity_lists())
    def test_commutative(self, left, right):
        assert and_lists(left, right) == and_lists(right, left)

    @given(similarity_lists(), similarity_lists(), similarity_lists())
    @settings(max_examples=30)
    def test_associative(self, a, b, c):
        left_first = and_lists(and_lists(a, b), c)
        right_first = and_lists(a, and_lists(b, c))
        assert left_first == right_first


class TestNext:
    def test_shift(self):
        sim = SimilarityList.from_entries([((3, 5), 2.0)], 4.0)
        assert next_list(sim).to_segment_values() == {
            2: pytest.approx(2.0),
            3: pytest.approx(2.0),
            4: pytest.approx(2.0),
        }

    def test_entry_at_first_segment_clamped(self):
        sim = SimilarityList.from_entries([((1, 2), 2.0)], 4.0)
        assert next_list(sim).to_segment_values() == {1: pytest.approx(2.0)}

    def test_single_first_segment_disappears(self):
        sim = SimilarityList.from_entries([((1, 1), 2.0)], 4.0)
        assert not next_list(sim)

    @given(similarity_lists())
    def test_matches_naive(self, sim):
        shifted = next_list(sim)
        for i in range(1, sim.last_id() + 2):
            assert shifted.actual_at(i) == pytest.approx(sim.actual_at(i + 1))


class TestThresholdRuns:
    def test_filters_and_coalesces(self):
        sim = SimilarityList.from_entries(
            [((1, 4), 1.0), ((5, 9), 8.0), ((10, 12), 9.0), ((20, 22), 8.0)],
            maximum=10.0,
        )
        runs = threshold_runs(sim, 0.5)
        assert runs == [Interval(5, 12), Interval(20, 22)]

    def test_threshold_inclusive(self):
        sim = SimilarityList.from_entries([((1, 2), 5.0)], 10.0)
        assert threshold_runs(sim, 0.5) == [Interval(1, 2)]

    def test_zero_threshold_keeps_all(self):
        sim = SimilarityList.from_entries([((1, 2), 0.1)], 10.0)
        assert threshold_runs(sim, 0.0) == [Interval(1, 2)]


class TestUntilFigure2:
    """The paper's worked example, Figure 2, reproduced exactly."""

    L1_RUNS = [Interval(25, 100), Interval(200, 250)]
    L2 = SimilarityList.from_entries(
        [((10, 50), 10.0), ((55, 60), 15.0), ((90, 110), 12.0), ((125, 175), 10.0)],
        maximum=20.0,
    )
    EXPECTED = SimilarityList.from_entries(
        [((10, 24), 10.0), ((25, 60), 15.0), ((61, 110), 12.0), ((125, 175), 10.0)],
        maximum=20.0,
    )

    def test_paper_example(self):
        assert until_runs(self.L1_RUNS, self.L2) == self.EXPECTED

    def test_paper_example_via_thresholded_lists(self):
        left = SimilarityList.from_entries(
            [((25, 100), 18.0), ((120, 124), 2.0), ((200, 250), 18.0)],
            maximum=20.0,
        )
        assert until_lists(left, self.L2, threshold=0.5) == self.EXPECTED


class TestUntil:
    def test_h_only_segments_keep_direct_value(self):
        result = until_runs([], SimilarityList.from_entries([((3, 5), 2.0)], 4.0))
        assert result.to_segment_values() == {
            3: pytest.approx(2.0),
            4: pytest.approx(2.0),
            5: pytest.approx(2.0),
        }

    def test_h_entry_starting_just_past_run_is_reachable(self):
        """The off-by-one the paper's informal property misses: g holding
        on [u, u''-1] lets the witness sit one past the run's end."""
        runs = [Interval(1, 10)]
        right = SimilarityList.from_entries([((11, 11), 3.0)], 4.0)
        result = until_runs(runs, right)
        assert result.actual_at(1) == pytest.approx(3.0)
        assert result.actual_at(10) == pytest.approx(3.0)
        assert result.actual_at(11) == pytest.approx(3.0)
        assert result.actual_at(12) == 0.0

    def test_h_entry_past_gap_not_reachable(self):
        runs = [Interval(1, 10)]
        right = SimilarityList.from_entries([((12, 12), 3.0)], 4.0)
        result = until_runs(runs, right)
        assert result.actual_at(5) == 0.0
        assert result.actual_at(12) == pytest.approx(3.0)

    def test_later_better_witness_wins(self):
        runs = [Interval(1, 20)]
        right = SimilarityList.from_entries(
            [((2, 2), 1.0), ((9, 9), 4.0)], 4.0
        )
        result = until_runs(runs, right)
        assert result.actual_at(1) == pytest.approx(4.0)
        assert result.actual_at(5) == pytest.approx(4.0)
        assert result.actual_at(9) == pytest.approx(4.0)
        assert result.actual_at(10) == 0.0

    @given(similarity_lists(), similarity_lists())
    @settings(max_examples=60)
    def test_matches_naive(self, left, right):
        threshold = 0.5
        result = until_lists(left, right, threshold)
        horizon = max(left.last_id(), right.last_id()) + 2
        naive = naive_until(left, right, horizon, threshold)
        for i in range(1, horizon + 1):
            assert result.actual_at(i) == pytest.approx(naive[i]), f"at {i}"

    def test_zero_threshold_rejected(self):
        left = SimilarityList.from_entries([((1, 2), 1.0)], 2.0)
        right = SimilarityList.from_entries([((3, 3), 1.0)], 2.0)
        with pytest.raises(SimilarityListInvariantError):
            until_lists(left, right, threshold=0.0)

    @given(similarity_lists(), similarity_lists(), st.floats(0.01, 1.0))
    @settings(max_examples=40)
    def test_matches_naive_any_threshold(self, left, right, threshold):
        result = until_lists(left, right, threshold)
        horizon = max(left.last_id(), right.last_id()) + 2
        naive = naive_until(left, right, horizon, threshold)
        for i in range(1, horizon + 1):
            assert result.actual_at(i) == pytest.approx(naive[i]), f"at {i}"


class TestEventually:
    def test_suffix_max(self):
        sim = SimilarityList.from_entries(
            [((3, 5), 2.0), ((9, 9), 4.0), ((12, 14), 1.0)], 4.0
        )
        result = eventually_list(sim)
        assert result.actual_at(1) == pytest.approx(4.0)
        assert result.actual_at(9) == pytest.approx(4.0)
        assert result.actual_at(10) == pytest.approx(1.0)
        assert result.actual_at(14) == pytest.approx(1.0)
        assert result.actual_at(15) == 0.0

    def test_empty(self):
        assert not eventually_list(SimilarityList.empty(4.0))

    @given(similarity_lists())
    def test_matches_naive(self, sim):
        result = eventually_list(sim)
        horizon = sim.last_id() + 2
        for i in range(1, horizon + 1):
            expected = max(
                (sim.actual_at(j) for j in range(i, horizon + 1)), default=0.0
            )
            assert result.actual_at(i) == pytest.approx(expected)

    @given(similarity_lists())
    def test_equals_true_until(self, sim):
        """eventually g ≡ true until g."""
        horizon = max(sim.last_id(), 1)
        true_list = SimilarityList.from_entries([((1, horizon), 1.0)], 1.0)
        assert until_lists(true_list, sim, 0.5) == eventually_list(sim)

    @given(similarity_lists())
    def test_idempotent(self, sim):
        once = eventually_list(sim)
        assert eventually_list(once) == once


class TestAlways:
    def test_trailing_block_minimum(self):
        sim = SimilarityList.from_entries(
            [((1, 3), 4.0), ((6, 8), 3.0), ((9, 10), 2.0)], 4.0
        )
        result = always_list(sim, axis_end=10)
        assert result.actual_at(10) == pytest.approx(2.0)
        assert result.actual_at(9) == pytest.approx(2.0)
        assert result.actual_at(6) == pytest.approx(2.0)
        assert result.actual_at(5) == 0.0  # gap at 4..5
        assert result.actual_at(1) == 0.0

    def test_uncovered_axis_end_all_zero(self):
        sim = SimilarityList.from_entries([((1, 5), 4.0)], 4.0)
        assert not always_list(sim, axis_end=6)

    def test_full_coverage(self):
        sim = SimilarityList.from_entries([((1, 6), 2.5)], 4.0)
        result = always_list(sim, axis_end=6)
        assert result.actual_at(1) == pytest.approx(2.5)

    @given(similarity_lists(max_id=30), st.integers(1, 35))
    def test_matches_naive(self, sim, axis_end):
        result = always_list(sim, axis_end)
        for i in range(1, axis_end + 1):
            expected = min(
                sim.actual_at(j) for j in range(i, axis_end + 1)
            )
            assert result.actual_at(i) == pytest.approx(expected)


class TestMaxMerge:
    def test_pointwise_max(self):
        a = SimilarityList.from_entries([((1, 10), 2.0)], 5.0)
        b = SimilarityList.from_entries([((5, 15), 3.0)], 5.0)
        c = SimilarityList.from_entries([((8, 8), 1.0)], 5.0)
        merged = max_merge_lists([a, b, c])
        assert merged.actual_at(3) == pytest.approx(2.0)
        assert merged.actual_at(7) == pytest.approx(3.0)
        assert merged.actual_at(8) == pytest.approx(3.0)
        assert merged.actual_at(12) == pytest.approx(3.0)
        assert merged.actual_at(16) == 0.0

    def test_single_list_identity(self):
        a = SimilarityList.from_entries([((1, 3), 2.0)], 5.0)
        assert max_merge_lists([a]) is a

    def test_mismatched_maxima_rejected(self):
        a = SimilarityList.from_entries([((1, 3), 2.0)], 5.0)
        b = SimilarityList.from_entries([((1, 3), 2.0)], 6.0)
        with pytest.raises(SimilarityListInvariantError):
            max_merge_lists([a, b])

    def test_no_lists_rejected(self):
        with pytest.raises(SimilarityListInvariantError):
            max_merge_lists([])

    @given(st.lists(similarity_lists(), min_size=1, max_size=5))
    @settings(max_examples=50)
    def test_matches_naive(self, lists):
        merged = max_merge_lists(lists)
        horizon = max((sim.last_id() for sim in lists), default=0) + 2
        for i in range(1, horizon + 1):
            expected = max(sim.actual_at(i) for sim in lists)
            assert merged.actual_at(i) == pytest.approx(expected)


#: Actual values with many ties, so unions produce adjacent equal-valued
#: runs (which must coalesce), plus sums that are not exactly representable.
TIED_ACTUALS = st.sampled_from([0.1, 0.2, 0.5, 1.0, 2.5, 10.0]) | st.floats(
    0.5, 10.0, allow_nan=False
)


@st.composite
def tied_lists(draw, maximum=10.0):
    return SimilarityList.from_sorted_pieces(
        draw(run_pieces(TIED_ACTUALS)), maximum
    )


def exact(sim):
    """A walk output's exact value, after the full invariant scan."""
    sim.validate()
    return sim.maximum, [(e.begin, e.end, repr(e.actual)) for e in sim]


class TestPointwiseWalk:
    """The one two-cursor walk under ``∧`` (sum), ``∨`` (max) and fuzzy
    ``∧`` (min of fractions) against a per-segment dict reference."""

    @given(tied_lists(), tied_lists(maximum=40.0))
    @example(SimilarityList.empty(10.0), SimilarityList.empty(40.0))
    @settings(max_examples=150)
    def test_matches_per_segment_reference(self, left, right):
        mine = left.to_segment_values()
        theirs = right.to_segment_values()
        connectives = [
            (and_lists, lambda a, b: a + b, left.maximum + right.maximum),
            (or_lists, max, max(left.maximum, right.maximum)),
            (
                fuzzy_and_lists,
                lambda a, b: min(a / left.maximum, b / right.maximum),
                1.0,
            ),
        ]
        for connective, combine, maximum in connectives:
            reference = SimilarityList.from_segment_values(
                {
                    i: combine(mine.get(i, 0.0), theirs.get(i, 0.0))
                    for i in mine.keys() | theirs.keys()
                },
                maximum,
            )
            assert exact(connective(left, right)) == exact(reference)

    def test_adjacent_equal_runs_coalesce_and_zero_results_vanish(self):
        left = SimilarityList.from_entries([((1, 4), 2.0)], 4.0)
        right = SimilarityList.from_entries([((5, 9), 2.0)], 4.0)
        assert exact(or_lists(left, right)) == (4.0, [(1, 9, "2.0")])
        assert exact(and_lists(left, right)) == (8.0, [(1, 9, "2.0")])
        assert not fuzzy_and_lists(left, right)  # disjoint supports

    def test_one_combine_per_run_of_the_union(self):
        """Linear, not ``n log n`` and not per segment: two staggered
        20 000-entry lists, runs five ids long."""
        n = 20_000
        left = SimilarityList.from_sorted_pieces(
            ((8 * k + 1, 8 * k + 5, 1.0 + k % 7) for k in range(n)), 10.0
        )
        right = SimilarityList.from_sorted_pieces(
            ((8 * k + 4, 8 * k + 8, 2.0 + k % 5) for k in range(n)), 10.0
        )
        assert len(left) == len(right) == n
        calls = []

        def counted_sum(a, b):
            calls.append(1)
            return a + b

        walked = pointwise_lists(left, right, counted_sum, 20.0)
        assert len(calls) <= 2 * (len(left) + len(right)) + 1
        assert exact(walked) == exact(and_lists(left, right))
        assert walked.support_size() == 8 * n


class TestColumnWalks:
    """Every other operator of ``ops.py`` / ``extensions.py`` — all of them
    read and write columns — against the per-segment dict reference, with
    ``repr``-identical floats (they select values, they do no arithmetic)."""

    @staticmethod
    def reference(values, maximum):
        return exact(SimilarityList.from_segment_values(values, maximum))

    @given(tied_lists())
    @example(SimilarityList.empty(10.0))
    @example(SimilarityList.from_sorted_pieces([(1, 1, 2.0)], 10.0))
    @example(SimilarityList.from_sorted_pieces([(1, 3, 2.0), (4, 4, 1.0)], 10.0))
    @settings(max_examples=150)
    def test_next_eventually_always(self, sim):
        values = sim.to_segment_values()
        horizon = sim.last_id() + 1
        ids = range(1, horizon + 1)
        assert exact(next_list(sim)) == self.reference(
            {i: values.get(i + 1, 0.0) for i in ids}, sim.maximum
        )
        assert exact(eventually_list(sim)) == self.reference(
            {
                i: max(values.get(u, 0.0) for u in range(i, horizon + 1))
                for i in ids
            },
            sim.maximum,
        )
        for axis_end in (horizon - 1, horizon, max(1, horizon // 2)):
            assert exact(always_list(sim, axis_end)) == self.reference(
                {
                    i: min(values.get(u, 0.0) for u in range(i, axis_end + 1))
                    for i in range(1, axis_end + 1)
                },
                sim.maximum,
            )

    @given(
        tied_lists(),
        tied_lists(maximum=40.0),
        st.sampled_from([0.01, 0.05, 0.25, 0.5, 1.0]),
    )
    @example(SimilarityList.empty(10.0), SimilarityList.empty(40.0), 0.5)
    @settings(max_examples=200)
    def test_until(self, left, right, threshold):
        horizon = max(left.last_id(), right.last_id()) + 1
        assert exact(until_lists(left, right, threshold)) == self.reference(
            naive_until(left, right, horizon, threshold), right.maximum
        )
        # The public run form is the same computation over Interval runs.
        assert exact(
            until_runs(threshold_runs(left, threshold), right)
        ) == exact(until_lists(left, right, threshold))

    @given(st.lists(tied_lists(), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_max_merge(self, lists):
        expanded = [sim.to_segment_values() for sim in lists]
        ids = set().union(*expanded)
        assert exact(max_merge_lists(lists)) == self.reference(
            {i: max(values.get(i, 0.0) for values in expanded) for i in ids},
            10.0,
        )

    @given(tied_lists(), st.integers(0, 6), st.integers(1, 40))
    @settings(max_examples=100)
    def test_bounded_windows(self, sim, window, axis_end):
        values = sim.to_segment_values()
        horizon = sim.last_id() + 1
        assert exact(bounded_eventually(sim, window)) == self.reference(
            {
                i: max(values.get(u, 0.0) for u in range(i, i + window + 1))
                for i in range(1, horizon + 1)
            },
            sim.maximum,
        )
        assert exact(bounded_always(sim, window, axis_end)) == self.reference(
            {
                i: min(
                    values.get(u, 0.0)
                    for u in range(i, min(i + window, axis_end) + 1)
                )
                for i in range(1, axis_end + 1)
            },
            sim.maximum,
        )

    def test_until_pieces_need_no_sort(self):
        """Inside-run and outside-run pieces interleave; they reach the
        normalising loop merged in id order, so nothing sorts them."""
        left = SimilarityList.from_sorted_pieces(
            ((10 * k + 1, 10 * k + 6, 8.0) for k in range(50)), 10.0
        )
        right = SimilarityList.from_sorted_pieces(
            ((5 * k + 1, 5 * k + 3, 1.0 + (7 * k) % 9) for k in range(100)),
            10.0,
        )
        result = until_lists(left, right)
        assert result.begins == tuple(sorted(result.begins))
        assert exact(result) == self.reference(
            naive_until(left, right, 501, 0.5), 10.0
        )


#: Recorded at the parent commit (three merge bodies, two coalescing
#: loops) by running this very loop: the smoke-size ``temporal`` stream of
#: the end-to-end benchmark under seed 7.
PARENT_STEPS = {"engine-table": 159, "list-merge": 795}
PARENT_RANKINGS = {
    "$P1 and $P2": [
        ("vid000", 99, 31.45749473488332), ("vid001", 98, 29.335541393180087),
        ("vid001", 99, 29.335541393180087), ("vid002", 58, 26.853287320727443),
        ("vid001", 46, 22.064544200858276), ("vid002", 6, 19.5),
        ("vid002", 163, 19.5), ("vid001", 135, 19.0), ("vid001", 136, 19.0),
        ("vid001", 137, 19.0),
    ],
    "$P1 until $P2": [("vid002", 6, 19.5)]
    + [("vid001", i, 19.0) for i in range(135, 144)],
    "$P1 and eventually $P2": [
        ("vid001", i, 37.39896209043479) for i in range(93, 100)
    ]
    + [("vid000", i, 37.0) for i in range(52, 55)],
    "($P1 and next $P3) until ($P2 and eventually $P4)": [("vid002", 6, 39.0)]
    + [("vid000", i, 37.0) for i in range(84, 93)],
    "$P1 and ($P2 until ($P3 and eventually $P4))": [
        ("vid002", 163, 47.96220053615542)
    ]
    + [("vid000", i, 44.702633513399306) for i in range(55, 61)]
    + [("vid000", i, 40.471250778630704) for i in range(177, 180)],
    "eventually ($P1 and next ($P2 until $P3))": [
        ("vid001", i, 32.16566049224062) for i in range(1, 11)
    ],
}  # fmt: skip


class _SiteBudget(resilience.QueryBudget):
    """An unlimited budget that remembers which site charged what."""

    def __init__(self):
        super().__init__(max_steps=10**9)
        self.by_site = collections.Counter()

    def charge(self, n=1, site=""):
        self.by_site[site] += n
        super().charge(n, site)


def test_temporal_smoke_stream_is_the_parents(tmp_path):
    database, __, stream = WORKLOADS["temporal"](
        7, SMOKE, str(tmp_path)
    ).inputs()
    assert set(stream) == set(PARENT_RANKINGS)
    engine = RetrievalEngine()
    budget = _SiteBudget()
    for text in stream:
        result = top_k_across_videos(
            engine, parse(text), database, K, level=LEVEL, budget=budget
        )
        ranking = [
            (hit.video, hit.segment_id, hit.actual) for hit in result.segments
        ]
        assert ranking == PARENT_RANKINGS[text]  # exact floats
    assert budget.by_site == PARENT_STEPS


def test_temporal_smoke_stream_builds_no_entry_objects(tmp_path, monkeypatch):
    """The engine path reads and writes columns only: the whole smoke
    stream — algebra, bound, top-k streaming — constructs no ``SimEntry``."""
    database, __, stream = WORKLOADS["temporal"](
        7, SMOKE, str(tmp_path)
    ).inputs()
    built = []
    construct = SimEntry.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(SimEntry, "__init__", counted)
    engine = RetrievalEngine()
    results = [
        top_k_across_videos(engine, parse(text), database, K, level=LEVEL)
        for text in stream
    ]
    assert all(result.segments for result in results)
    assert not built
    # The counter does count: the outside view is where entries come from.
    assert len(database.atomic_list("P1", "vid000", LEVEL).entries) == len(built)
