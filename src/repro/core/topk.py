"""Top-k retrieval and ranked presentation (paper §1).

"Under our similarity based retrieval, the k top video segments that have
the highest similarity values with respect to the user query will be
retrieved; here, k may be a parameter specified by the user."

Multi-video retrieval is the fast path here: :func:`top_k_across_videos`
streams interval entries into a bounded size-k heap (never expanding a
similarity list into per-segment rows) and skips videos whose admissible
upper bound (:func:`repro.core.engine.actual_upper_bound`) cannot crack
the current k-th score.  Videos evaluate one after another on the calling
thread; a sharded query (:meth:`repro.shard.ShardedCorpus.top_k`) streams
every shard's videos into the same heap.  Both features preserve the
exact ranking of the naive scan: the k best segments under the total
order ``(-actual, video, segment_id)`` are a canonical set, independent
of evaluation order, and pruning only ever skips videos whose every
segment ranks strictly below the current k-th.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine, actual_upper_bound
from repro.core.planner import Planner
from repro.core.simlist import SIM_EPS, SimilarityList, SimilarityValue
from repro.errors import BudgetExceededError, UnsupportedFormulaError
from repro.htl import ast
from repro.htl.pretty import clip, pretty
from repro.model.database import VideoDatabase
from repro.model.hierarchy import Video


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


def top_k_segments(
    sim: SimilarityList, k: int, video: str = ""
) -> List[RetrievedSegment]:
    """The k highest-similarity segments of one list.

    Ties break on ascending segment id, so results are deterministic.
    Intervals are expanded lazily in rank order — no full expansion.
    """
    if k <= 0:
        return []
    results: List[RetrievedSegment] = []
    for begin, end, actual in ranked_entries(sim):
        for segment_id in range(begin, end + 1):
            results.append(
                RetrievedSegment(video, segment_id, actual, sim.maximum)
            )
            if len(results) == k:
                return results
    return results


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


def _video_bound(
    formula: ast.Formula,
    video: Video,
    level: int,
    database: VideoDatabase,
) -> Optional[float]:
    """Admissible per-video upper bound, or None when none is derivable."""
    try:
        return actual_upper_bound(formula, video, level, database)
    except UnsupportedFormulaError:
        return None


# ---------------------------------------------------------------------------
# per-video provenance
# ---------------------------------------------------------------------------
#: Outcome statuses recorded by :func:`top_k_across_videos` per video.
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
        scatter-gather baseline of ``benchmarks/bench_shards.py``):
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

        The shape the serving layer returns to clients (DESIGN.md §14)
        and the benchmarks embed in ``BENCH_*.json``: ranked segments,
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
    """Evaluate the query on every video and rank segments globally.

    Multiple videos are handled exactly as the paper prescribes — "using
    two numbers one of which gives the video id and the other gives the id
    of the video segment within the video".

    ``prune=True`` skips a video when its admissible upper bound is
    strictly below the current k-th score; the ranking is identical to the
    unpruned scan (see the module docstring for why).

    Resilience (DESIGN.md §8): ``budget`` bounds the whole query by
    wall-clock and cooperative steps; ``lenient=True`` turns per-video
    failures into recorded :class:`VideoOutcome` entries instead of
    raising, returning a ``partial=True`` :class:`TopKResult` that still
    ranks every video that did evaluate.  In strict mode (the default) the
    first failure propagates and later videos never run.  Either knob, or
    an ambient :func:`repro.core.resilience.scope`, also arms the one
    degraded path: a failing index-driven atom table is rebuilt by the
    naive scan.  With neither knob set and no ambient scope, the call runs
    exactly the pre-resilience fast path.

    Observability (DESIGN.md §10): ``profile=True`` — or an ambient
    :func:`repro.core.trace.recording` — collects a hierarchical trace
    (query → video → subformula → atom-sweep/list-op/top-k spans) and
    attaches its root to ``TopKResult.profile``.  Per-video spans carry
    the :class:`VideoOutcome` status, budget-step consumption and cache
    hit/miss deltas; atom fallbacks appear as span events.
    With metrics enabled (``trace.METRICS.enable()``), query and per-video
    latencies additionally feed the ``query-seconds`` /
    ``video-seconds`` histograms.

    Planning (DESIGN.md §13): when the engine carries a planner, each
    video's evaluation runs under a compiled query plan.  Plans are keyed
    by the index's *statistics signature*, so videos — and shards — whose
    indices summarise identically reuse one plan across the whole query;
    traced queries annotate the per-query ``plans-built`` /
    ``plan-reuses`` / ``plan-skips`` deltas on the query span.
    """
    if k <= 0:
        return TopKResult([])
    context = _query_context(budget, lenient)

    def rank() -> TopKResult:
        heap: List[_HeapItem] = []
        outcomes = _rank_database(
            engine, formula, database, k, level, prune, context, heap
        )
        return _ranked(heap, outcomes)

    return _run_query(
        f"top-{k}",
        formula,
        profile,
        getattr(engine, "planner", None),
        rank,
        k=k,
        level=level,
    )


def _run_query(
    label: str,
    formula: ast.Formula,
    profile: bool,
    planner: Optional[Planner],
    body: Callable[[], TopKResult],
    **attrs,
) -> TopKResult:
    """Run one ranked query's ``body`` under the query-level bookkeeping.

    Shared by :func:`top_k_across_videos` and
    :meth:`repro.shard.ShardedCorpus.top_k`: one ``query-seconds`` sample
    per call while metrics are enabled, and — with ``profile=True`` or an
    ambient recorder — one ``query`` span named ``label: <formula>``
    carrying ``attrs``, attached to the result's ``profile``.  Untraced
    and unmetered, this is exactly ``body()``.

    Videos (and shards) with identical index shapes share one compiled
    plan — the planner's cache key is the statistics signature, not the
    video name — so a query typically builds a handful of plans and
    reuses them everywhere; given a ``planner``, the span carries its
    per-query deltas to make that reuse visible.
    """
    started = time.perf_counter() if trace.METRICS.is_enabled() else None
    try:
        recorder = trace.current()
        if recorder is None and not profile:
            return body()
        if recorder is None:
            scope = trace.recording()
        else:
            scope = nullcontext(recorder)
        with scope as recorder:
            plans_before = planner.stats if planner is not None else None
            with recorder.span(
                trace.KIND_QUERY,
                f"{label}: {clip(pretty(formula), 60)}",
                **attrs,
            ) as query_span:
                result = body()
                if planner is not None:
                    plans_after = planner.stats
                    query_span.attrs["plans-built"] = (
                        plans_after.plans_built - plans_before.plans_built
                    )
                    query_span.attrs["plan-reuses"] = (
                        plans_after.cache_hits - plans_before.cache_hits
                    )
                    query_span.attrs["plan-skips"] = (
                        plans_after.skipped_subformulas
                        - plans_before.skipped_subformulas
                    )
                result.profile = query_span
                return result
    finally:
        if started is not None:
            trace.METRICS.observe(
                trace.QUERY_LATENCY, time.perf_counter() - started
            )


_Item = TypeVar("_Item")
_Result = TypeVar("_Result")


def _fan_out(
    items: Sequence[_Item],
    step: Callable[[_Item], _Result],
    lost: Callable[[_Item, BaseException], _Result],
    strict: bool,
) -> List[_Result]:
    """``step(item)`` for every item, in order.

    The one loop behind both the per-video loop and the shard loop.  A
    step that raises ends the loop in strict mode: the failure propagates
    and later items never run.  In lenient mode the item's result is
    ``lost(item, error)`` instead; a :class:`BudgetExceededError` is
    additionally the whole query's deadline, so every later item is
    ``lost`` to it without running.
    """
    results: List[_Result] = []
    abort: Optional[BaseException] = None
    for item in items:
        if abort is not None:
            results.append(lost(item, abort))
            continue
        try:
            results.append(step(item))
        except Exception as exc:
            if strict:
                raise
            if isinstance(exc, BudgetExceededError):
                abort = exc
            results.append(lost(item, exc))
    return results


def _query_context(
    budget: Optional[resilience.QueryBudget], lenient: bool
) -> Optional[resilience.ResilienceContext]:
    """One query's resilience context, resolved once at the top.

    Explicit knobs win over an ambient :func:`repro.core.resilience.scope`
    (its budget fills in a missing ``budget``, its ``lenient`` is or-ed
    in); with neither, None selects the pre-resilience fast path.
    """
    ambient = resilience.current()
    if ambient is not None:
        if budget is None:
            budget = ambient.budget
        lenient = lenient or ambient.lenient
    elif budget is None and not lenient:
        return None
    return resilience.ResilienceContext(budget, lenient)


def _lost_outcome(video: str, error: BaseException) -> VideoOutcome:
    """The ledger entry of a video whose evaluation raised or never ran."""
    status = (
        OUTCOME_TIMED_OUT
        if isinstance(error, BudgetExceededError)
        else OUTCOME_FAILED
    )
    return VideoOutcome(video, status, error)


def _ranked(
    heap: List[_HeapItem], outcomes: List[VideoOutcome]
) -> TopKResult:
    """The query's answer: its heap best-first, plus the outcome ledger."""
    with trace.staged_span(trace.TOP_K, trace.KIND_TOPK, "rank"):
        return TopKResult(
            _drain(heap),
            outcomes,
            partial=any(o.degraded for o in outcomes),
        )


def _rank_database(
    engine: RetrievalEngine,
    formula: ast.Formula,
    database: VideoDatabase,
    k: int,
    level: int,
    prune: bool,
    context: Optional[resilience.ResilienceContext],
    heap: List[_HeapItem],
) -> List[VideoOutcome]:
    """Stream one database's videos into ``heap``, the query's size-k heap.

    Returns one outcome per video, in database order.
    :func:`top_k_across_videos` runs this once; the shard loop runs it
    once per shard over the same heap, so the pruning floor is always the
    k-th score of every video evaluated so far, whichever shard owns it.
    """
    budget = context.budget if context is not None else None

    def evaluate(video: Video) -> SimilarityList:
        started = time.perf_counter() if trace.METRICS.is_enabled() else None
        try:
            resilience.fault(resilience.SITE_TOPK_WORKER)
            sim = engine.evaluate_video(
                formula, video, level=level, database=database
            )
            sim = resilience.fault_value(resilience.SITE_TOPK_WORKER, sim)
            # Trust boundary: a corrupted list must not enter the
            # query heap as a silently wrong ranking.
            return sim.validate()
        finally:
            if started is not None:
                trace.METRICS.observe(
                    trace.VIDEO_LATENCY, time.perf_counter() - started
                )

    def step(video: Video) -> VideoOutcome:
        if prune and len(heap) == k:
            bound = _video_bound(formula, video, level, database)
            if bound is not None and bound < heap[0][0] - SIM_EPS:
                trace.annotate(bound=bound)
                return VideoOutcome(video.name, OUTCOME_PRUNED)
        sim = evaluate(video)
        with trace.staged_span(
            trace.TOP_K, trace.KIND_TOPK, "stream-entries"
        ):
            _stream_entries(heap, k, sim, video.name)
        return VideoOutcome(video.name, OUTCOME_OK)

    def visit(video: Video) -> VideoOutcome:
        """One per-video step, inside a ``video`` span when tracing.

        The span carries the outcome status and the step's budget-step
        delta.  A raising step closes the span with its ``error``
        attribute set.
        """
        recorder = trace.current()
        if recorder is None:
            return step(video)
        steps_before = budget.steps if budget is not None else 0
        with recorder.span(trace.KIND_VIDEO, video.name) as video_span:
            outcome = step(video)
            if budget is not None:
                video_span.attrs["budget-steps"] = budget.steps - steps_before
            video_span.attrs["status"] = outcome.status
            return outcome

    videos = list(database.videos())
    trace.annotate(videos=len(videos))
    with resilience.activate(context):
        return _fan_out(
            videos,
            visit,
            lambda video, error: _lost_outcome(video.name, error),
            strict=context is None or not context.lenient,
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
