"""The one ranking loop: top-k over a corpus of shards (DESIGN.md §6, §12).

Every ranked query runs here.  A corpus is partitioned into shards,
each owning its videos' database: an in-memory shard holds its database
from construction, a store shard (its own :class:`~repro.store.Store`
snapshot directory and metadata indices, see :mod:`repro.store.sharding`)
loads it lazily on first use.  An unsharded database is
``ShardedCorpus.from_database(database)``, one shard that *is* the
database — which is all :func:`repro.core.topk.top_k_across_videos`
does.

:meth:`ShardedCorpus.top_k` runs the shards one after another on the
calling thread and streams every shard's videos into one size-k heap
(never expanding a similarity list into per-segment rows), so the
running global k-th-best score prunes later videos — whichever shard
owns them — through their admissible upper bounds.  The k best segments
under the total order ``(-actual, video, segment_id)`` are a canonical
set, independent of evaluation order, so neither pruning nor sharding
changes a ranking.  Threads would buy nothing here: evaluation and store
loading (JSON parsing) both hold the GIL, and measured queries ran slower
on a pool (DESIGN.md §6).

Failure semantics compose with the resilience layer (DESIGN.md §8): a
dead or corrupt shard surfaces as a batch of ``failed``
:class:`~repro.core.topk.VideoOutcome` entries named from the layout
manifest — lenient queries degrade to the surviving shards
(``partial=True``), strict queries raise :class:`~repro.errors.ShardError`
with the load failure chained.  Every shard runs under the caller's one
:class:`~repro.core.resilience.QueryBudget`; once it is spent, the
remaining shards are not loaded and their videos read ``timed-out``.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import nullcontext
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine, actual_upper_bound
from repro.core.planner import Planner
from repro.core.simlist import SIM_EPS
from repro.core.topk import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_PRUNED,
    OUTCOME_TIMED_OUT,
    TopKResult,
    VideoOutcome,
    _drain,
    _HeapItem,
    _stream_entries,
)
from repro.errors import (
    BudgetExceededError,
    ShardError,
    UnsupportedFormulaError,
)
from repro.htl import ast
from repro.htl.pretty import clip, pretty
from repro.model.database import VideoDatabase
from repro.model.hierarchy import Video
from repro.store.sharding import (
    ShardLayout,
    load_layout,
    shard_id,
    split_database,
)


#: Shard-load retry, sized for in-process stores: the nth retry sleeps
#: ``_RETRY_DELAYS_MS[n - 1]``, scaled into ``[1 - _JITTER, 1)`` of itself
#: so concurrent queries do not hammer a recovering disk in lockstep.
#: After the last delay's retry fails, the load fails: three tries and
#: about 15 ms of backoff.
_RETRY_DELAYS_MS = (5.0, 10.0)
_LOAD_ATTEMPTS = len(_RETRY_DELAYS_MS) + 1
_JITTER = 0.5


def _backoff_s(attempt: int, rng: Callable[[], float]) -> float:
    """Sleep before retry number ``attempt`` (1-based), in seconds."""
    raw = _RETRY_DELAYS_MS[attempt - 1]
    return raw * (1.0 - _JITTER + _JITTER * rng()) / 1000.0


class Shard:
    """One shard: an id, the videos it owns, and their database.

    ``source`` is the database itself (an in-memory shard holds it from
    construction) or a loader that reads it from a store on first use.
    The loader runs at most once per successful load (memoized under a
    lock); every :meth:`database` call — in-memory shards included —
    passes the ``shard-load`` fault site first, so the chaos suite can
    kill a shard deterministically.  Load failures are not cached — a
    shard that recovers on disk recovers on the next query.

    A failed load retries after a jittered 5 ms, then 10 ms, then fails:
    after the third failed try the genuine failure propagates, so a dead
    shard costs each query at most three tries.
    ``rng`` and ``sleep`` are injectable so chaos tests replay the
    backoff schedule deterministically without wall-clock waits.
    """

    __slots__ = (
        "shard_id",
        "_videos",
        "_loader",
        "_database",
        "_lock",
        "_rng",
        "_sleep",
    )

    def __init__(
        self,
        shard_id: str,
        videos: Sequence[str],
        source: Union[VideoDatabase, Callable[[], VideoDatabase]],
        *,
        rng: Callable[[], float] = random.random,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.shard_id = shard_id
        self._videos: Tuple[str, ...] = tuple(videos)
        self._database: Optional[VideoDatabase] = None
        self._loader: Optional[Callable[[], VideoDatabase]] = None
        if isinstance(source, VideoDatabase):
            self._database = source
        else:
            self._loader = source
        self._lock = threading.Lock()
        self._rng = rng
        self._sleep = sleep

    @property
    def videos(self) -> Tuple[str, ...]:
        """The videos the shard owns: its database's once loaded (so a
        shard over a live database names videos added since), else the
        ones it was built with."""
        database = self._database
        if database is None:
            return self._videos
        return tuple(database.names())

    def database(self) -> VideoDatabase:
        """The shard's database, loading (and memoizing) on first use.

        ``shard-loaded`` counts loads, so an in-memory shard never
        counts one."""
        attempt = 1
        while True:
            try:
                resilience.fault(resilience.SITE_SHARD_LOAD)
                with self._lock:
                    if self._database is None:
                        self._database = self._loader()
                        trace.METRICS.count(trace.SHARD_LOADED)
                        trace.event(trace.SHARD_LOADED, self.shard_id)
                    return self._database
            except Exception:
                if attempt == _LOAD_ATTEMPTS:
                    raise
                delay = _backoff_s(attempt, self._rng)
                trace.METRICS.count(trace.SHARD_LOAD_RETRIED)
                trace.event(
                    trace.SHARD_LOAD_RETRIED,
                    f"{self.shard_id}: attempt {attempt + 1}/"
                    f"{_LOAD_ATTEMPTS} after {delay * 1000.0:.1f}ms",
                )
                self._sleep(delay)
                attempt += 1

    def __repr__(self) -> str:
        return f"Shard({self.shard_id!r}, {len(self.videos)} videos)"


def _store_loader(layout: ShardLayout, spec) -> Callable[[], VideoDatabase]:
    def load() -> VideoDatabase:
        loaded = layout.store(spec).load()
        owned = set(spec.videos)
        held = set(loaded.database.names())
        if held != owned:
            raise ShardError(
                f"shard {spec.shard_id} loaded snapshot "
                f"{loaded.snapshot_id} holding {sorted(held)} but the "
                f"layout assigns it {sorted(owned)}",
                path=layout.store_path(spec),
                shard=spec.shard_id,
            )
        return loaded.database

    return load


class ShardedCorpus:
    """A corpus partitioned into shards, ranked through one top-k heap."""

    def __init__(self, shards: Sequence[Shard]):
        if not shards:
            raise ShardError("a sharded corpus needs at least one shard")
        seen_ids = set()
        owners = {}
        for shard in shards:
            if shard.shard_id in seen_ids:
                raise ShardError(
                    f"duplicate shard id {shard.shard_id!r}",
                    shard=shard.shard_id,
                )
            seen_ids.add(shard.shard_id)
            for name in shard.videos:
                if name in owners:
                    raise ShardError(
                        f"video {name!r} owned by both {owners[name]!r} "
                        f"and {shard.shard_id!r}",
                        shard=shard.shard_id,
                    )
                owners[name] = shard.shard_id
        self.shards: Tuple[Shard, ...] = tuple(shards)

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_database(
        cls, database: VideoDatabase, n_shards: int = 1
    ) -> "ShardedCorpus":
        """Partition an in-memory database (round-robin, no disk).

        One shard, the default, is the database object itself rather
        than a copy, so rankings and :attr:`video_names` follow videos
        added to it after the corpus was built.
        """
        if n_shards == 1:
            parts = [database]
        else:
            parts = split_database(database, n_shards)
        return cls(
            [
                Shard(shard_id(position), part.names(), part)
                for position, part in enumerate(parts)
            ]
        )

    @classmethod
    def from_directory(cls, root) -> "ShardedCorpus":
        """Open a sharded store layout written by
        :func:`repro.store.sharding.save_sharded`.

        Only the layout manifest is read here; each shard's store loads
        lazily on first query, with the store's own corruption recovery
        underneath and ownership cross-checked against the manifest.
        """
        layout = load_layout(root)
        return cls(
            [
                Shard(spec.shard_id, spec.videos, _store_loader(layout, spec))
                for spec in layout.shards
            ]
        )

    # -- introspection ---------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def video_names(self) -> List[str]:
        return [name for shard in self.shards for name in shard.videos]

    def __len__(self) -> int:
        return len(self.shards)

    def __repr__(self) -> str:
        return (
            f"ShardedCorpus({self.n_shards} shards, "
            f"{len(self.video_names)} videos)"
        )

    # -- the query -------------------------------------------------------
    def top_k(
        self,
        engine: RetrievalEngine,
        formula: ast.Formula,
        k: int,
        level: int = 2,
        *,
        prune: bool = True,
        budget: Optional[resilience.QueryBudget] = None,
        lenient: bool = False,
        profile: bool = False,
    ) -> TopKResult:
        """Evaluate the query on every video and rank segments globally.

        Videos are ranked exactly as the paper prescribes — "using two
        numbers one of which gives the video id and the other gives the
        id of the video segment within the video" — under the total
        order ``(-actual, video, segment_id)``.  Shards run one after
        another, and every shard streams its videos into the query's one
        size-k heap under the caller's one budget object: a later shard
        prunes against the k-th score of every video evaluated so far,
        and the caller's step count and clock see the whole query.

        ``prune=True`` skips a video when its admissible upper bound
        (:func:`repro.core.engine.actual_upper_bound`) is strictly below
        the current k-th score.  Rankings are identical to the unpruned,
        unsharded scan: pruning only skips videos that cannot crack the
        k-th score, and the top-k set under a total order does not
        depend on which shard evaluated a video first.

        Resilience (DESIGN.md §8): ``budget`` bounds the whole query by
        wall-clock and cooperative steps; ``lenient=True`` turns
        per-video and per-shard failures into recorded
        :class:`~repro.core.topk.VideoOutcome` entries instead of
        raising, returning a ``partial=True`` result that still ranks
        every video that did evaluate.  In strict mode (the default) the
        first failure propagates and later videos never run.  Either
        knob, or an ambient :func:`repro.core.resilience.scope`, also
        arms the one degraded path: a failing index-driven atom table is
        rebuilt by the naive scan.

        Observability (DESIGN.md §10): ``profile=True`` — or an ambient
        :func:`repro.core.trace.recording` — collects the trace tree
        query → shard → video → subformula → atom-sweep/list-op/top-k
        and attaches its root to ``TopKResult.profile``.  Video spans
        carry the outcome status and budget-step consumption; the
        ``query`` and ``video`` span durations are the query and
        per-video latencies.

        Planning (DESIGN.md §13): the engine plans a formula only when
        an inner join's operand may come back with no rows; videos and
        shards whose indices summarise identically share one compiled
        plan, so a traced query annotates the per-query
        ``plans-built`` / ``plan-reuses`` / ``plan-skips`` deltas on
        its query span (all 0 for a formula that is not planned).
        """
        if k <= 0:
            return TopKResult([])
        context = _query_context(budget, lenient)
        recorder = trace.current()
        if recorder is None and not profile:
            return self._rank(engine, formula, k, level, prune, context)
        if recorder is None:
            scope = trace.recording()
        else:
            scope = nullcontext(recorder)
        planner: Optional[Planner] = getattr(engine, "planner", None)
        with scope as recorder:
            plans_before = planner.stats if planner is not None else None
            with recorder.span(
                trace.KIND_QUERY,
                f"top-{k}: {clip(pretty(formula), 60)}",
                k=k,
                level=level,
                shards=self.n_shards,
            ) as query_span:
                result = self._rank(engine, formula, k, level, prune, context)
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

    def _rank(
        self,
        engine: RetrievalEngine,
        formula: ast.Formula,
        k: int,
        level: int,
        prune: bool,
        context: Optional[resilience.ResilienceContext],
    ) -> TopKResult:
        """The one ranking loop: shards outside, videos inside, one heap.

        The result holds one outcome per video, shard by shard in
        database order.  A failure ends the query in strict mode.  In lenient mode it
        costs only the videos it touched: one video, or every video of a
        shard that did not load (named from the layout manifest, so the
        damage is visible per video even though the shard's own store
        never answered).  An exhausted budget is the whole query's
        deadline: every later video is lost to it without running, and
        no later shard is loaded.
        """
        strict = context is None or not context.lenient
        budget = context.budget if context is not None else None
        heap: List[_HeapItem] = []
        outcomes: List[VideoOutcome] = []
        abort: Optional[BaseException] = None

        def visit(database: VideoDatabase, video: Video) -> VideoOutcome:
            """Prune, or evaluate and stream one video, inside a ``video``
            span carrying its status and budget-step delta when tracing."""
            recorder = trace.current()
            if recorder is None:
                return step(database, video)
            steps_before = budget.steps if budget is not None else 0
            with recorder.span(trace.KIND_VIDEO, video.name) as video_span:
                outcome = step(database, video)
                if budget is not None:
                    video_span.attrs["budget-steps"] = (
                        budget.steps - steps_before
                    )
                video_span.attrs["status"] = outcome.status
                return outcome

        def step(database: VideoDatabase, video: Video) -> VideoOutcome:
            if prune and len(heap) == k:
                try:
                    bound = actual_upper_bound(formula, video, level, database)
                except UnsupportedFormulaError:
                    bound = None
                if bound is not None and bound < heap[0][0] - SIM_EPS:
                    trace.annotate(bound=bound)
                    return VideoOutcome(video.name, OUTCOME_PRUNED)
            resilience.fault(resilience.SITE_TOPK_WORKER)
            sim = engine.evaluate_video(
                formula, video, level=level, database=database
            )
            sim = resilience.fault_value(resilience.SITE_TOPK_WORKER, sim)
            # Trust boundary: a corrupted list must not enter the
            # query heap as a silently wrong ranking.  A list the memo
            # stored or handed out is already checked and returns at
            # once; a corrupted one is a new object and is scanned.
            sim.validate()
            with trace.span(trace.KIND_TOPK, "stream-entries"):
                _stream_entries(heap, k, sim, video.name)
            return VideoOutcome(video.name, OUTCOME_OK)

        def lose(names: Sequence[str], error: BaseException) -> None:
            """The one failure rule, for a video and for a whole shard."""
            nonlocal abort
            if strict:
                raise error
            if isinstance(error, BudgetExceededError):
                abort = error
            outcomes.extend(_lost_outcome(name, error) for name in names)

        for shard in self.shards:
            if abort is not None:
                lose(shard.videos, abort)
                continue
            try:
                if budget is not None:
                    budget.checkpoint("shard-start")
                with trace.span(
                    trace.KIND_SHARD, shard.shard_id, videos=len(shard.videos)
                ):
                    database = _load(shard)
                    with resilience.activate(context):
                        for video in list(database.videos()):
                            if abort is not None:
                                lose([video.name], abort)
                                continue
                            try:
                                outcomes.append(visit(database, video))
                            except Exception as error:
                                lose([video.name], error)
            except Exception as error:
                lose(shard.videos, error)
        with trace.span(trace.KIND_TOPK, "rank"):
            return TopKResult(
                _drain(heap),
                outcomes,
                partial=any(o.degraded for o in outcomes),
            )


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


def _load(shard: Shard) -> VideoDatabase:
    """The shard's database, or a :class:`ShardError` naming the shard
    with the load failure chained."""
    try:
        return shard.database()
    except Exception as error:
        trace.METRICS.count(trace.SHARD_FAILED)
        trace.event(
            trace.SHARD_FAILED, f"{shard.shard_id}: {type(error).__name__}"
        )
        raise ShardError(
            f"shard {shard.shard_id} failed to load: {error}",
            shard=shard.shard_id,
        ) from error


def _lost_outcome(video: str, error: BaseException) -> VideoOutcome:
    """The ledger entry of a video whose evaluation raised or never ran."""
    status = (
        OUTCOME_TIMED_OUT
        if isinstance(error, BudgetExceededError)
        else OUTCOME_FAILED
    )
    return VideoOutcome(video, status, error)
