"""Unit and property tests for similarity values and lists."""

import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.simlist import (
    SIM_EPS,
    SimEntry,
    SimilarityList,
    SimilarityValue,
)
from repro.core.tables import TableRow
from repro.core.intervals import Interval
from repro.errors import (
    InvalidIntervalError,
    InvalidSimilarityError,
    SimilarityListInvariantError,
)


class TestSimilarityValue:
    def test_fraction(self):
        value = SimilarityValue(5.0, 20.0)
        assert value.fraction == pytest.approx(0.25)

    def test_exact_match(self):
        assert SimilarityValue(7.0, 7.0).is_exact()
        assert not SimilarityValue(6.9, 7.0).is_exact()

    def test_actual_above_maximum_rejected(self):
        with pytest.raises(InvalidSimilarityError):
            SimilarityValue(8.0, 7.0)

    def test_negative_actual_rejected(self):
        with pytest.raises(InvalidSimilarityError):
            SimilarityValue(-1.0, 7.0)

    def test_nonpositive_maximum_rejected(self):
        with pytest.raises(InvalidSimilarityError):
            SimilarityValue(0.0, 0.0)


class TestConstruction:
    def test_from_entries_sorts(self):
        sim = SimilarityList.from_entries(
            [((10, 20), 3.0), ((1, 5), 2.0)], maximum=4.0
        )
        assert [entry.begin for entry in sim] == [1, 10]

    def test_from_entries_drops_zero(self):
        sim = SimilarityList.from_entries(
            [((1, 5), 0.0), ((7, 9), 2.0)], maximum=4.0
        )
        assert len(sim) == 1

    def test_from_entries_coalesces_equal_adjacent(self):
        sim = SimilarityList.from_entries(
            [((1, 5), 2.0), ((6, 9), 2.0)], maximum=4.0
        )
        assert len(sim) == 1
        assert sim.entries[0].interval == Interval(1, 9)

    def test_from_entries_keeps_distinct_adjacent(self):
        sim = SimilarityList.from_entries(
            [((1, 5), 2.0), ((6, 9), 3.0)], maximum=4.0
        )
        assert len(sim) == 2

    def test_overlapping_entries_rejected(self):
        with pytest.raises(SimilarityListInvariantError):
            SimilarityList.from_entries(
                [((1, 5), 2.0), ((5, 9), 3.0)], maximum=4.0
            )

    def test_actual_above_maximum_rejected(self):
        with pytest.raises(SimilarityListInvariantError):
            SimilarityList.from_entries([((1, 5), 9.0)], maximum=4.0)

    def test_raw_requires_normalised(self):
        unsorted = SimilarityList.from_columns([5, 1], [9, 4], [1.0, 1.0], 2.0)
        with pytest.raises(SimilarityListInvariantError):
            unsorted.validate()

    def test_from_segment_values(self):
        sim = SimilarityList.from_segment_values(
            {1: 2.0, 2: 2.0, 3: 2.0, 7: 1.0}, maximum=4.0
        )
        assert len(sim) == 2
        assert sim.entries[0].interval == Interval(1, 3)


class TestQueries:
    @pytest.fixture
    def sim(self):
        return SimilarityList.from_entries(
            [((2, 4), 1.5), ((8, 8), 3.0), ((10, 12), 0.5)], maximum=3.0
        )

    def test_value_at_inside(self, sim):
        assert sim.actual_at(3) == pytest.approx(1.5)

    def test_value_at_boundary(self, sim):
        assert sim.actual_at(8) == pytest.approx(3.0)

    def test_value_at_gap_is_zero(self, sim):
        assert sim.actual_at(5) == 0.0
        assert sim.actual_at(1) == 0.0
        assert sim.actual_at(99) == 0.0

    def test_fraction_at(self, sim):
        assert sim.fraction_at(8) == pytest.approx(1.0)

    def test_support_size(self, sim):
        assert sim.support_size() == 7

    def test_last_id(self, sim):
        assert sim.last_id() == 12

    def test_empty_list(self):
        empty = SimilarityList.empty(5.0)
        assert not empty
        assert empty.last_id() == 0
        assert empty.actual_at(1) == 0.0

    def test_segment_ids(self, sim):
        assert list(sim.segment_ids()) == [2, 3, 4, 8, 10, 11, 12]

    def test_restricted(self, sim):
        cut = sim.restricted(3, 10)
        assert cut.to_segment_values() == {
            3: pytest.approx(1.5),
            4: pytest.approx(1.5),
            8: pytest.approx(3.0),
            10: pytest.approx(0.5),
        }

    def test_scaled(self, sim):
        doubled = sim.scaled(2.0)
        assert doubled.maximum == pytest.approx(6.0)
        assert doubled.actual_at(8) == pytest.approx(6.0)

    def test_equality_tolerates_float_noise(self, sim):
        other = SimilarityList.from_entries(
            [((2, 4), 1.5 + 1e-12), ((8, 8), 3.0), ((10, 12), 0.5)],
            maximum=3.0,
        )
        assert sim == other


@st.composite
def similarity_lists(draw, max_id=80, maximum=10.0):
    """Random well-formed similarity lists."""
    n = draw(st.integers(0, 8))
    starts = draw(
        st.lists(
            st.integers(1, max_id), min_size=n, max_size=n, unique=True
        )
    )
    starts.sort()
    entries = []
    previous_end = 0
    for start in starts:
        begin = max(start, previous_end + 1)
        end = begin + draw(st.integers(0, 5))
        actual = draw(
            st.floats(0.5, maximum, allow_nan=False, allow_infinity=False)
        )
        entries.append(((begin, end), actual))
        previous_end = end
    return SimilarityList.from_entries(entries, maximum)


@st.composite
def run_pieces(draw, actuals, max_size=8):
    """Ascending disjoint ``(begin, end, actual)`` runs: gaps of 0-3 ids
    (so runs may touch), lengths 1-4, values drawn from ``actuals``."""
    pieces = []
    cursor = 1
    for gap, length, actual in draw(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(1, 4), actuals),
            max_size=max_size,
        )
    ):
        begin = cursor + gap
        cursor = begin + length
        pieces.append((begin, cursor - 1, actual))
    return pieces


class TestRoundTripProperties:
    @given(similarity_lists())
    def test_segment_expansion_round_trips(self, sim):
        rebuilt = SimilarityList.from_segment_values(
            sim.to_segment_values(), sim.maximum
        )
        assert rebuilt == sim

    @given(similarity_lists())
    def test_value_at_matches_expansion(self, sim):
        expanded = sim.to_segment_values()
        for segment_id in range(1, sim.last_id() + 2):
            assert sim.actual_at(segment_id) == pytest.approx(
                expanded.get(segment_id, 0.0)
            )


class TestFromSortedPieces:
    def test_matches_from_entries(self):
        pieces = [(1, 3, 0.5), (4, 4, 0.5), (5, 9, 2.0), (12, 14, 0.0)]
        built = SimilarityList.from_sorted_pieces(pieces, 4.0)
        expected = SimilarityList.from_entries(
            [((begin, end), actual) for begin, end, actual in pieces], 4.0
        )
        assert built == expected
        # adjacent equal-valued runs coalesce; zero runs are dropped
        assert [(e.begin, e.end) for e in built] == [(1, 4), (5, 9)]

    def test_empty_and_all_zero(self):
        assert SimilarityList.from_sorted_pieces([], 1.0) == (
            SimilarityList.empty(1.0)
        )
        assert not SimilarityList.from_sorted_pieces([(1, 5, 0.0)], 1.0)

    @given(similarity_lists())
    def test_round_trips_entries(self, sim):
        pieces = [(entry.begin, entry.end, entry.actual) for entry in sim]
        assert SimilarityList.from_sorted_pieces(pieces, sim.maximum) == sim

    @given(
        run_pieces(st.sampled_from([0.0, 1e-12, 0.5, 1.0, 2.5]), max_size=10),
        st.randoms(use_true_random=False),
    )
    def test_from_entries_is_sort_then_this(self, pieces, rng):
        """Unordered input, with zero runs and adjacent ties: sorting it
        and handing it to the one normalising loop is all ``from_entries``
        adds (bar coercion and per-piece interval validation)."""
        shuffled = [((begin, end), actual) for begin, end, actual in pieces]
        rng.shuffle(shuffled)
        mine = SimilarityList.from_entries(shuffled, 4.0)
        assert mine.entries == (
            SimilarityList.from_sorted_pieces(pieces, 4.0).entries
        )
        assert mine == SimilarityList.from_segment_values(
            {
                segment_id: actual
                for begin, end, actual in pieces
                for segment_id in range(begin, end + 1)
            },
            4.0,
        )

    def test_from_entries_validates_each_piece(self):
        """A reversed or off-axis piece must not hide inside a coalesced
        run or behind a zero value."""
        for bad in (
            [((1, 3), 1.0), ((4, 2), 1.0)],
            [((0, 2), 0.0)],
            [((5, 4), 0.0), ((1, 2), 1.0)],
        ):
            with pytest.raises(InvalidIntervalError):
                SimilarityList.from_entries(bad, 4.0)


class TestColumns:
    @given(run_pieces(st.floats(0.5, 4.0, allow_nan=False)))
    def test_columns_and_entry_view_round_trip(self, pieces):
        sim = SimilarityList.from_sorted_pieces(pieces, 4.0)
        assert len(sim.begins) == len(sim.ends) == len(sim.actuals) == len(sim)
        view = sim.entries
        assert view is sim.entries  # built once, then kept
        assert list(sim) == list(view)
        assert [(e.begin, e.end, e.actual) for e in view] == list(
            zip(sim.begins, sim.ends, sim.actuals)
        )
        assert all(e.interval == Interval(e.begin, e.end) for e in view)
        rebuilt = SimilarityList.from_columns(
            [e.begin for e in view],
            [e.end for e in view],
            [e.actual for e in view],
            4.0,
        )
        assert rebuilt == sim
        assert rebuilt.entries == view

    def test_columns_are_immutable(self):
        begins, ends, actuals = [1, 5], [2, 9], [1.0, 2.0]
        sim = SimilarityList.from_columns(begins, ends, actuals, 4.0)
        begins[0] = 7  # the caller's lists are not the list's body
        assert sim.begins == (1, 5)
        with pytest.raises(TypeError):
            sim.actuals[0] = 3.0

    def test_trusted_columns_are_scanned_by_validate(self):
        """The trusted constructor scans nothing; ``validate()`` catches
        every invariant violation with the typed error."""
        for begins, ends, actuals, maximum in (
            ([1, 3], [4, 6], [1.0, 1.0], 4.0),  # overlapping
            ([5, 1], [6, 2], [1.0, 1.0], 4.0),  # unsorted
            ([4], [2], [1.0], 4.0),  # begin past end
            ([0], [2], [1.0], 4.0),  # off the 1-based axis
            ([1], [2], [0.0], 4.0),  # zero value stored
            ([1], [2], [-2.0], 4.0),  # negative value stored
            ([1], [2], [9.0], 4.0),  # above the maximum
            ([1, 5], [2], [1.0], 4.0),  # ragged columns
            ([], [], [], 0.0),  # zero maximum
            ([], [], [], -2.0),  # negative maximum
        ):
            bad = SimilarityList.from_columns(begins, ends, actuals, maximum)
            with pytest.raises(SimilarityListInvariantError):
                bad.validate()

    def test_footprint_per_run(self):
        """Three column slots plus two ints and a float per run — about
        100 B, against 272 B for an ``Interval`` inside a ``SimEntry``."""
        n = 100_000
        pieces = [(3 * k + 1, 3 * k + 2, 1.0 + k % 7) for k in range(n)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            # New number objects, as the algebra's arithmetic makes them.
            sim = SimilarityList.from_sorted_pieces(
                ((begin + 0, end + 0, actual + 0.0) for begin, end, actual in pieces),
                10.0,
            )
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(sim) == n
        assert (after - before) / n <= 120


class TestFromEntriesChecksOutsideInput:
    """``from_entries`` is the outside-input constructor: the maximum and
    disjointness are checked there on every call — no list scan runs
    after it inside the algebra."""

    @pytest.mark.parametrize("maximum", [0.0, -2.0])
    def test_non_positive_maximum_raises(self, maximum):
        # A zero maximum would divide by zero in fraction_at.
        with pytest.raises(SimilarityListInvariantError):
            SimilarityList.from_entries([], maximum)

    def test_overlap_raises_without_the_gate(self):
        with pytest.raises(SimilarityListInvariantError):
            SimilarityList.from_entries([((1, 5), 0.5), ((3, 7), 0.6)], 1.0)
        with pytest.raises(SimilarityListInvariantError):  # also unsorted
            SimilarityList.from_entries([((5, 9), 0.5), ((1, 5), 0.6)], 1.0)
        with pytest.raises(SimilarityListInvariantError):  # also zero-valued
            SimilarityList.from_entries([((1, 5), 0.0), ((5, 7), 0.6)], 1.0)

    def test_actual_above_maximum_raises_without_the_gate(self):
        with pytest.raises(SimilarityListInvariantError):
            SimilarityList.from_entries([((1, 5), 1.5)], 1.0)
        # ... but the tolerance __eq__ grants is granted here too.
        assert SimilarityList.from_entries([((1, 5), 1.0 + SIM_EPS / 2)], 1.0)

    def test_touching_intervals_are_not_overlapping(self):
        sim = SimilarityList.from_entries([((6, 9), 0.6), ((1, 5), 0.5)], 1.0)
        assert list(zip(sim.begins, sim.ends)) == [(1, 5), (6, 9)]


class TestHash:
    def test_equal_lists_hash_equal(self):
        one = SimilarityList.from_entries([((2, 4), 1.5), ((8, 8), 3.0)], 3.0)
        other = SimilarityList.from_entries(
            [((2, 4), 1.5 + 1e-12), ((8, 8), 3.0 - 1e-12)], 3.0 + 1e-12
        )
        assert one == other
        assert hash(one) == hash(other)
        assert len({one, other}) == 1
        assert hash(one) != hash(one.restricted(2, 3))

    def test_rows_holding_lists_hash(self):
        sim = SimilarityList.from_entries([((2, 4), 1.5)], 3.0)
        same = SimilarityList.from_entries([((2, 4), 1.5 + 1e-12)], 3.0)
        assert hash(TableRow(("a",), (), sim)) == hash(TableRow(("a",), (), same))

    def test_hashing_builds_no_entry_view(self, monkeypatch):
        sim = SimilarityList.from_entries([((2, 4), 1.5)], 3.0)
        monkeypatch.setattr(
            SimEntry, "__init__", lambda *args: pytest.fail("entry built")
        )
        hash(sim)
