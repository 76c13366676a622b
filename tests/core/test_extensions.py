"""Tests for the §5 future-work extension operators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import resilience
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.extensions import (
    bounded_always,
    bounded_eventually,
    fuzzy_and_lists,
    or_lists,
)
from repro.core.ops import eventually_list
from repro.core.resilience import QueryBudget
from repro.core.simlist import SimilarityList
from repro.errors import BudgetExceededError, SimilarityListInvariantError
from repro.htl.parser import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata

from tests.core.test_simlist import similarity_lists


class TestOrLists:
    def test_best_disjunct_wins(self):
        left = SimilarityList.from_entries([((1, 5), 2.0)], 4.0)
        right = SimilarityList.from_entries([((3, 8), 3.0)], 6.0)
        result = or_lists(left, right)
        assert result.maximum == pytest.approx(6.0)
        assert result.actual_at(2) == pytest.approx(2.0)
        assert result.actual_at(4) == pytest.approx(3.0)
        assert result.actual_at(7) == pytest.approx(3.0)
        assert result.actual_at(9) == 0.0

    @given(similarity_lists(), similarity_lists())
    def test_matches_naive(self, left, right):
        result = or_lists(left, right)
        horizon = max(left.last_id(), right.last_id()) + 2
        for position in range(1, horizon + 1):
            assert result.actual_at(position) == pytest.approx(
                max(left.actual_at(position), right.actual_at(position))
            )

    @given(similarity_lists(), similarity_lists())
    def test_commutative(self, left, right):
        assert or_lists(left, right) == or_lists(right, left)

    @given(similarity_lists())
    def test_idempotent(self, sim):
        assert or_lists(sim, sim) == sim

    def test_charges_the_step_budget_like_and(self):
        """A ``∨``-only query over long registered lists used to cost the
        budget its ``engine-table`` steps and nothing else.  (Atomic
        references join only through ``∧`` inside a non-temporal formula,
        hence the ``next``.)"""
        n = 5000
        video = flat_video("v", [SegmentMetadata() for _ in range(2 * n)])
        database = VideoDatabase()
        database.add(video)
        for name, offset in (("P1", 1), ("P2", 2)):
            runs = ((2 * k + offset, 2 * k + offset, 1.0) for k in range(n))
            database.register_atomic(
                name, "v", SimilarityList.from_sorted_pieces(runs, 4.0)
            )
        engine = RetrievalEngine(EngineConfig(allow_extensions=True))
        for connective in ("and", "or"):
            query = parse(f"next $P1 {connective} next $P2")
            with resilience.scope(budget=QueryBudget(max_steps=100)):
                with pytest.raises(BudgetExceededError, match="list-merge"):
                    engine.evaluate_video(query, video, database=database)


class TestFuzzyAnd:
    def test_min_of_fractions(self):
        left = SimilarityList.from_entries([((1, 5), 2.0)], 4.0)  # frac 0.5
        right = SimilarityList.from_entries([((3, 8), 3.0)], 6.0)  # frac 0.5
        result = fuzzy_and_lists(left, right)
        assert result.maximum == pytest.approx(1.0)
        assert result.actual_at(4) == pytest.approx(0.5)

    def test_zero_conjunct_zeroes(self):
        """Unlike the paper's sum, the fuzzy conjunction drops one-sided
        matches entirely."""
        left = SimilarityList.from_entries([((1, 5), 2.0)], 4.0)
        right = SimilarityList.empty(6.0)
        assert not fuzzy_and_lists(left, right)

    def test_exact_needs_both_exact(self):
        left = SimilarityList.from_entries([((1, 1), 4.0)], 4.0)
        right = SimilarityList.from_entries([((1, 1), 3.0)], 6.0)
        result = fuzzy_and_lists(left, right)
        assert result.actual_at(1) == pytest.approx(0.5)

    @given(similarity_lists(), similarity_lists())
    def test_matches_naive(self, left, right):
        result = fuzzy_and_lists(left, right)
        horizon = max(left.last_id(), right.last_id()) + 2
        for position in range(1, horizon + 1):
            expected = min(
                left.fraction_at(position), right.fraction_at(position)
            )
            assert result.actual_at(position) == pytest.approx(expected)


class TestBoundedEventually:
    def test_window_reaches_forward(self):
        sim = SimilarityList.from_entries([((10, 12), 3.0)], 4.0)
        result = bounded_eventually(sim, 4)
        assert result.actual_at(6) == pytest.approx(3.0)
        assert result.actual_at(5) == 0.0
        assert result.actual_at(12) == pytest.approx(3.0)
        assert result.actual_at(13) == 0.0

    def test_window_zero_is_identity(self):
        sim = SimilarityList.from_entries([((3, 5), 2.0), ((9, 9), 1.0)], 4.0)
        assert bounded_eventually(sim, 0) == sim

    def test_negative_window_rejected(self):
        sim = SimilarityList.from_entries([((1, 1), 1.0)], 4.0)
        with pytest.raises(SimilarityListInvariantError):
            bounded_eventually(sim, -1)

    @given(similarity_lists(max_id=40), st.integers(0, 15))
    @settings(max_examples=80)
    def test_matches_naive(self, sim, window):
        result = bounded_eventually(sim, window)
        horizon = sim.last_id() + 2
        for position in range(1, horizon + 1):
            expected = max(
                (
                    sim.actual_at(later)
                    for later in range(position, position + window + 1)
                ),
                default=0.0,
            )
            assert result.actual_at(position) == pytest.approx(expected)

    @given(similarity_lists(max_id=40))
    def test_large_window_equals_eventually(self, sim):
        huge = sim.last_id() + 5
        assert bounded_eventually(sim, huge) == eventually_list(sim)

    @given(similarity_lists(max_id=40), st.integers(0, 10), st.integers(0, 10))
    @settings(max_examples=50)
    def test_monotone_in_window(self, sim, w1, w2):
        small, large = sorted((w1, w2))
        narrow = bounded_eventually(sim, small)
        wide = bounded_eventually(sim, large)
        for position in range(1, sim.last_id() + 2):
            assert (
                narrow.actual_at(position) <= wide.actual_at(position) + 1e-9
            )


class TestBoundedAlways:
    def test_window_min(self):
        sim = SimilarityList.from_entries(
            [((1, 4), 3.0), ((5, 8), 2.0)], 4.0
        )
        result = bounded_always(sim, 2, axis_end=8)
        assert result.actual_at(1) == pytest.approx(3.0)  # [1..3] all 3.0
        assert result.actual_at(3) == pytest.approx(2.0)  # [3..5] min 2.0
        assert result.actual_at(7) == pytest.approx(2.0)  # clipped at 8

    def test_gap_zeroes_window(self):
        sim = SimilarityList.from_entries([((1, 2), 3.0), ((4, 6), 2.0)], 4.0)
        result = bounded_always(sim, 2, axis_end=6)
        assert result.actual_at(1) == 0.0  # window [1,3] hits the gap at 3
        assert result.actual_at(4) == pytest.approx(2.0)

    @given(similarity_lists(max_id=25), st.integers(0, 8), st.integers(1, 30))
    @settings(max_examples=80)
    def test_matches_naive(self, sim, window, axis_end):
        result = bounded_always(sim, window, axis_end)
        for position in range(1, axis_end + 1):
            stop = min(position + window, axis_end)
            expected = min(
                sim.actual_at(later) for later in range(position, stop + 1)
            )
            assert result.actual_at(position) == pytest.approx(expected), (
                f"at {position} (window {window}, axis {axis_end})"
            )
        assert result.last_id() <= axis_end
