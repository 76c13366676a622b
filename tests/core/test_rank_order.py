"""A list's rank order and checked state: what the O(k) memo hit rests on.

Every ranking reads :attr:`SimilarityList.rank_order` — run indices by
descending actual, ties by ascending begin — and streams a video's runs
in that order into the one query heap, stopping at the first segment
that cannot enter it.  The properties: streaming any lists, with ties
inside runs, across runs and across videos, in any video order and for
any ``k``, keeps exactly the brute-force top k of every expanded segment
under ``(-actual, video, segment_id)``, whether the lists are fresh or
memo hits; :meth:`SimilarityList.validate` scans a list once; the
trusted constructor still lets a bad list reach a scan that raises.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cache import ListMemo
from repro.core.simlist import SimilarityList
from repro.core.topk import _drain, _stream_entries, ranked_entries
from repro.errors import SimilarityListInvariantError
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata

#: Few distinct values, so ties across runs and videos are common.
ACTUALS = (0.5, 1.0, 2.5, 4.0)
MAXIMUM = 4.0


@st.composite
def similarity_lists(draw):
    """A canonical list: runs of 1–4 ids, gaps of 0–2, tied values."""
    pieces, begin = [], 1
    for __ in range(draw(st.integers(0, 12))):
        begin += draw(st.integers(0, 2))
        end = begin + draw(st.integers(0, 3))
        pieces.append((begin, end, draw(st.sampled_from(ACTUALS))))
        begin = end + 1
    return SimilarityList.from_sorted_pieces(pieces, MAXIMUM)


corpora = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d", "e"]),
    similarity_lists(),
    min_size=1,
    max_size=4,
)


def brute_force(corpus, k):
    """Every segment of every list, sorted under the top-k order."""
    segments = sorted(
        (-actual, video, segment_id)
        for video, sim in corpus.items()
        for segment_id, actual in sim.to_segment_values().items()
    )
    return [
        (video, segment_id, -negated)
        for negated, video, segment_id in segments[:k]
    ]


def stream(corpus, order, k):
    heap = []
    for video in order:
        _stream_entries(heap, k, corpus[video], video)
    return [
        (segment.video, segment.segment_id, segment.actual)
        for segment in _drain(heap)
    ]


def memo_hit(sim):
    """The copy a list memo hands out for ``sim``."""
    memo = ListMemo()
    memo.put(("q", 2, "v", 1, 0), sim)
    return memo.get(("q", 2, "v", 1, 0))


@settings(max_examples=300, deadline=None)
@given(corpus=corpora, data=st.data())
def test_streaming_keeps_the_brute_force_top_k(corpus, data):
    total = sum(sim.support_size() for sim in corpus.values())
    k = data.draw(st.integers(1, total + 3), label="k")
    order = data.draw(st.permutations(sorted(corpus)), label="order")
    expected = brute_force(corpus, k)
    assert stream(corpus, order, k) == expected
    hits = {video: memo_hit(sim) for video, sim in corpus.items()}
    assert stream(hits, order, k) == expected


@settings(max_examples=200, deadline=None)
@given(sim=similarity_lists())
def test_rank_order_is_descending_actual_then_begin(sim):
    begins, ends, actuals = sim.begins, sim.ends, sim.actuals
    expected = sorted(
        range(len(sim)), key=lambda run: (-actuals[run], begins[run])
    )
    assert list(sim.rank_order) == expected
    assert sim.rank_order is sim.rank_order  # built once
    assert ranked_entries(sim) == [
        (begins[run], ends[run], actuals[run]) for run in expected
    ]
    hit = memo_hit(sim)
    assert hit is not sim and hit.rank_order is sim.rank_order


@settings(max_examples=50, deadline=None)
@given(sim=similarity_lists())
def test_pruning_bound_is_the_list_maximum(sim):
    database = VideoDatabase()
    database.add(flat_video("v", [SegmentMetadata()] * max(1, sim.last_id())))
    database.register_atomic("P", "v", sim)
    assert database.max_atomic_actual("P", "v") == max(
        sim.actuals, default=0.0
    )


class TestCheckedOnce:
    @staticmethod
    def counting_runs(monkeypatch):
        """Count the calls of ``SimilarityList.runs``."""
        calls = []
        walk = SimilarityList.runs

        def runs(self):
            calls.append(self)
            return walk(self)

        monkeypatch.setattr(SimilarityList, "runs", runs)
        return calls

    def test_a_checked_list_is_not_walked_again(self, monkeypatch):
        sim = SimilarityList.from_entries([((1, 2), 1.0), ((4, 4), 3.0)], 4.0)
        calls = self.counting_runs(monkeypatch)
        assert sim.validate() is sim
        assert calls == [sim]
        assert sim.validate() is sim
        assert calls == [sim]

    def test_a_memo_hit_is_not_walked(self, monkeypatch):
        sim = SimilarityList.from_entries([((1, 2), 1.0), ((4, 4), 3.0)], 4.0)
        hit = memo_hit(sim)
        calls = self.counting_runs(monkeypatch)
        assert hit.validate() is hit
        assert calls == []

    def test_an_unchecked_copy_of_checked_columns_is_walked(
        self, monkeypatch
    ):
        sim = SimilarityList.from_entries([((1, 2), 1.0)], 4.0).validate()
        copy = SimilarityList.from_columns(
            sim.begins, sim.ends, sim.actuals, sim.maximum
        )
        calls = self.counting_runs(monkeypatch)
        copy.validate()
        assert calls == [copy]


#: Columns each breaking one invariant ``validate`` checks.
BAD_COLUMNS = {
    "overlap": ((1, 3), (4, 5), (1.0, 2.0), 4.0),
    "unsorted": ((5, 1), (6, 2), (1.0, 2.0), 4.0),
    "zero-actual": ((1,), (2,), (0.0,), 4.0),
    "negative-actual": ((1,), (2,), (-1.0,), 4.0),
    "above-maximum": ((1,), (2,), (5.0,), 4.0),
    "reversed-interval": ((3,), (2,), (1.0,), 4.0),
    "begin-zero": ((0,), (2,), (1.0,), 4.0),
    "ragged": ((1, 4), (2,), (1.0, 2.0), 4.0),
    "zero-maximum": ((1,), (2,), (1.0,), 0.0),
}


@pytest.mark.parametrize("name", sorted(BAD_COLUMNS))
def test_from_columns_over_bad_columns_still_raises(name):
    begins, ends, actuals, maximum = BAD_COLUMNS[name]
    sim = SimilarityList.from_columns(begins, ends, actuals, maximum)
    with pytest.raises(SimilarityListInvariantError):
        sim.validate()
    # A failed scan leaves the list unchecked: it raises every time.
    with pytest.raises(SimilarityListInvariantError):
        sim.validate()
    with pytest.raises(SimilarityListInvariantError):
        ListMemo().put(("q", 2, "v", 1, 0), sim)
