"""Top-k results and ranked presentation (paper §1).

"Under our similarity based retrieval, the k top video segments that have
the highest similarity values with respect to the user query will be
retrieved; here, k may be a parameter specified by the user."

This module holds what a ranking *is*: the result types
(:class:`RetrievedSegment`, :class:`VideoOutcome`, :class:`TopKResult`
with its provenance-preserving :meth:`TopKResult.merge`) and the bounded
size-k heap every ranking streams interval entries through, under the
total order ``(-actual, video, segment_id)``.  :func:`top_k_segments`
ranks one list through that heap.  The multi-video query loop — pruning,
budgets, failures, traces — lives in :mod:`repro.shard.corpus`;
:func:`top_k_across_videos` runs a database there as a one-shard corpus.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine
from repro.core.simlist import SimilarityList, SimilarityValue
from repro.htl import ast
from repro.model.database import VideoDatabase


@dataclass(frozen=True)
class RetrievedSegment:
    """One ranked answer: which video, which segment, how similar."""

    video: str
    segment_id: int
    actual: float
    maximum: float

    @property
    def fraction(self) -> float:
        return self.actual / self.maximum


def ranked_entries(sim: SimilarityList) -> List[Tuple[int, int, float]]:
    """List entries sorted by descending similarity (the paper's Table 4
    presentation), as ``(begin, end, actual)`` triples."""
    triples = list(sim.runs())
    triples.sort(key=lambda triple: (-triple[2], triple[0]))
    return triples


class _DescStr:
    """A string ordered in reverse, so heap tuples can mix ascending actual
    values with descending tie-break columns."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def __lt__(self, other: "_DescStr") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DescStr) and self.value == other.value


#: A heap item: (actual, reversed video name, negated segment id, maximum).
#: Under the min-heap order, heap[0] is the *worst*-ranked kept segment —
#: lowest actual, then lexicographically largest video, then largest id —
#: exactly the one a better candidate should displace.
_HeapItem = Tuple[float, _DescStr, int, float]


def _stream_entries(
    heap: List[_HeapItem], k: int, sim: SimilarityList, video: str
) -> None:
    """Fold one video's similarity list into the bounded global heap.

    Entries stay interval-compressed: at most ``k`` segments per entry are
    ever materialised (ties within an entry break on ascending id, so its
    best k segments are its first k), and whole entries are skipped when
    they cannot beat the current k-th score.
    """
    name = _DescStr(video)
    maximum = sim.maximum
    for begin, end, actual in sim.runs():
        if len(heap) == k and actual < heap[0][0]:
            continue
        last = min(end, begin + k - 1)
        for segment_id in range(begin, last + 1):
            item = (actual, name, -segment_id, maximum)
            if len(heap) < k:
                heapq.heappush(heap, item)
            elif heap[0] < item:
                heapq.heapreplace(heap, item)
            else:
                # Later segments of this entry rank strictly worse.
                break


def _drain(heap: List[_HeapItem]) -> List[RetrievedSegment]:
    """Best-first results from the bounded heap."""
    return [
        RetrievedSegment(name.value, -neg_id, actual, maximum)
        for actual, name, neg_id, maximum in sorted(heap, reverse=True)
    ]


def top_k_segments(
    sim: SimilarityList, k: int, video: str = ""
) -> List[RetrievedSegment]:
    """The k highest-similarity segments of one list.

    Ties break on ascending segment id, so results are deterministic.
    Entries stream through the query heap — no full expansion.
    """
    if k <= 0:
        return []
    heap: List[_HeapItem] = []
    _stream_entries(heap, k, sim, video)
    return _drain(heap)


# ---------------------------------------------------------------------------
# per-video provenance
# ---------------------------------------------------------------------------
#: Outcome statuses recorded per video by a multi-video query.
OUTCOME_OK = "ok"
OUTCOME_PRUNED = "pruned"
OUTCOME_FAILED = "failed"
OUTCOME_TIMED_OUT = "timed-out"

#: Merge precedence of conflicting outcomes for one video: an evaluated
#: video (its segments are in hand) beats a degraded one (the damage must
#: stay visible in the merged provenance) beats a pruned one.
_OUTCOME_RANK = {
    OUTCOME_OK: 3,
    OUTCOME_FAILED: 2,
    OUTCOME_TIMED_OUT: 2,
    OUTCOME_PRUNED: 1,
}


@dataclass(frozen=True)
class VideoOutcome:
    """What happened to one video during a multi-video query.

    ``status`` is one of :data:`OUTCOME_OK` (evaluated and ranked),
    :data:`OUTCOME_PRUNED` (skipped because its admissible upper bound
    could not crack the current k-th score — not a degradation),
    :data:`OUTCOME_FAILED` (evaluation failed and, in lenient mode, the
    ranking excludes it) or :data:`OUTCOME_TIMED_OUT` (the query budget
    expired before or during its evaluation).  ``error`` carries the
    triggering exception for the two degraded statuses.
    """

    video: str
    status: str
    error: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.status == OUTCOME_OK

    @property
    def degraded(self) -> bool:
        """True when this video is missing from the ranking abnormally."""
        return self.status in (OUTCOME_FAILED, OUTCOME_TIMED_OUT)


class TopKResult(Sequence):
    """The ranked segments of a multi-video query, plus provenance.

    Behaves as a sequence of :class:`RetrievedSegment` (indexing,
    iteration, ``len``, equality against plain lists), so existing callers
    of :func:`top_k_across_videos` keep working unchanged.  The extras:

    * ``outcomes`` — one :class:`VideoOutcome` per video of the database,
      in database order;
    * ``partial`` — True when at least one video failed or timed out, i.e.
      the ranking is best-effort over the videos that did evaluate (only
      possible in lenient mode — strict mode raises instead);
    * ``profile`` — the query's root :class:`~repro.core.trace.Span` when
      the call ran with tracing on (``profile=True`` or an ambient
      :func:`repro.core.trace.recording`), else None.  Provenance like
      ``outcomes``: never part of ranking equality.
    """

    __slots__ = ("segments", "outcomes", "partial", "profile")

    def __init__(
        self,
        segments: List[RetrievedSegment],
        outcomes: Sequence = (),
        partial: bool = False,
        profile: Optional[trace.Span] = None,
    ):
        self.segments: List[RetrievedSegment] = list(segments)
        self.outcomes: Tuple[VideoOutcome, ...] = tuple(outcomes)
        self.partial = bool(partial)
        self.profile = profile

    # -- sequence protocol over the ranked segments ---------------------
    def __len__(self) -> int:
        return len(self.segments)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[RetrievedSegment, List[RetrievedSegment]]:
        return self.segments[index]

    def __iter__(self) -> Iterator[RetrievedSegment]:
        return iter(self.segments)

    def __eq__(self, other: object) -> bool:
        """Ranking equality: outcomes are provenance, not part of the rank."""
        if isinstance(other, TopKResult):
            return self.segments == other.segments
        if isinstance(other, (list, tuple)):
            return self.segments == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        flags = ", partial=True" if self.partial else ""
        return (
            f"TopKResult({len(self.segments)} segments, "
            f"{len(self.outcomes)} videos{flags})"
        )

    # -- merging ---------------------------------------------------------
    @classmethod
    def merge(
        cls, *results: "TopKResult", k: Optional[int] = None
    ) -> "TopKResult":
        """Provenance-preserving union of several results.

        The gather of independent per-corpus queries (the naive
        scatter-gather baseline of
        ``tests/shard/test_sharded_topk.py::TestSharedHeapPruning``):
        segments are unioned, deduplicated by ``(video, segment id)``
        keeping the highest actual value, re-ranked under the canonical
        total order ``(-actual, video, segment id)``, and truncated to
        ``k`` when given.  Because the top-k set under a total order is
        canonical, merging per-shard top-k results of disjoint shards
        reproduces the unsharded ranking exactly.

        Outcomes are unioned by video.  When two results report the same
        video (overlapping corpora, retried queries), the most
        informative status wins: ``ok`` (we have its segments) over the
        degraded statuses (the damage must stay visible) over
        ``pruned``; ties keep the first-seen outcome.  ``partial`` is
        recomputed from the merged outcomes; ``profile`` keeps the first
        non-None span.
        """
        ranked: List[RetrievedSegment] = sorted(
            (segment for result in results for segment in result.segments),
            key=lambda s: (-s.actual, s.video, s.segment_id),
        )
        seen: set = set()
        segments: List[RetrievedSegment] = []
        for segment in ranked:
            key = (segment.video, segment.segment_id)
            if key in seen:
                continue
            seen.add(key)
            segments.append(segment)
            if k is not None and len(segments) == k:
                break
        outcomes: Dict[str, VideoOutcome] = {}
        for result in results:
            for outcome in result.outcomes:
                previous = outcomes.get(outcome.video)
                if previous is None or (
                    _OUTCOME_RANK.get(outcome.status, 0)
                    > _OUTCOME_RANK.get(previous.status, 0)
                ):
                    outcomes[outcome.video] = outcome
        profile = next(
            (result.profile for result in results if result.profile), None
        )
        merged = tuple(outcomes.values())
        return cls(
            segments,
            merged,
            partial=any(outcome.degraded for outcome in merged),
            profile=profile,
        )

    # -- export ----------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe summary of the ranking and its provenance.

        The shape the serving layer returns to clients (DESIGN.md §14,
        ``serve --json``): ranked segments,
        the per-video outcome ledger, and the partial flag.  ``profile``
        is *not* embedded — span trees export separately through
        :func:`repro.bench.reporting.observability_payload`.
        """
        return {
            "segments": [
                {
                    "video": segment.video,
                    "segment_id": segment.segment_id,
                    "actual": segment.actual,
                    "maximum": segment.maximum,
                }
                for segment in self.segments
            ],
            "outcomes": {
                outcome.video: outcome.status for outcome in self.outcomes
            },
            "partial": self.partial,
        }

    # -- provenance helpers ---------------------------------------------
    def outcome_for(self, video: str) -> Optional[VideoOutcome]:
        """The recorded outcome of one video, by name."""
        for outcome in self.outcomes:
            if outcome.video == video:
                return outcome
        return None

    @property
    def failed_videos(self) -> List[str]:
        """Names of videos missing from the ranking abnormally."""
        return [o.video for o in self.outcomes if o.degraded]


def top_k_across_videos(
    engine: RetrievalEngine,
    formula: ast.Formula,
    database: VideoDatabase,
    k: int,
    level: int = 2,
    *,
    prune: bool = True,
    budget: Optional[resilience.QueryBudget] = None,
    lenient: bool = False,
    profile: bool = False,
) -> TopKResult:
    """Evaluate the query on every video of ``database`` and rank segments
    globally: the database as a one-shard corpus.

    See :meth:`repro.shard.ShardedCorpus.top_k` for ``prune``, ``budget``,
    ``lenient`` and ``profile``; the trace tree is query → shard → video.
    """
    # Imported here, not at the top: repro.shard.corpus imports this
    # module's result types and heap helpers.
    from repro.shard.corpus import ShardedCorpus

    return ShardedCorpus.from_database(database).top_k(
        engine,
        formula,
        k,
        level,
        prune=prune,
        budget=budget,
        lenient=lenient,
        profile=profile,
    )


def top_k_videos(
    engine: RetrievalEngine,
    formula: ast.Formula,
    database: VideoDatabase,
    k: int,
) -> List[Tuple[str, SimilarityValue]]:
    """Rank whole videos by their root similarity value (browsing queries)."""
    scored = [
        (video.name, engine.evaluate_at_root(formula, video, database=database))
        for video in database.videos()
    ]
    scored.sort(key=lambda item: (-item[1].actual, item[0]))
    return scored[:k]
