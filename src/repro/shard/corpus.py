"""Top-k over a sharded corpus (DESIGN.md §12).

``top_k_across_videos`` ranks one in-process database, so corpus size is
bounded by a single index build and a single snapshot load.
:class:`ShardedCorpus` is the horizontal step past that limit: the corpus
is partitioned into N shards (each owning its own
:class:`~repro.store.Store` snapshot directory and metadata indices, see
:mod:`repro.store.sharding`), each loaded lazily on first use.

It is also the one corpus every served and CLI ranking runs over: an
unsharded database is ``ShardedCorpus.from_database(database)``, one
shard that *is* the database, queried exactly as
``top_k_across_videos`` queries it.

A query runs the shards one after another on the calling thread and
streams every shard's videos into one size-k heap, so the running global
k-th-best score prunes later shards' videos through the existing
admissible per-video upper bounds.  A shard full of weak videos does next
to no scoring once earlier shards have filled the heap with good values.
Threads would buy nothing here: evaluation and store loading (JSON
parsing) both hold the GIL, and measured queries ran slower on a pool
(DESIGN.md §6).

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
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine
from repro.core.topk import (
    TopKResult,
    VideoOutcome,
    _fan_out,
    _HeapItem,
    _lost_outcome,
    _query_context,
    _rank_database,
    _ranked,
    _run_query,
)
from repro.errors import ShardError
from repro.htl import ast
from repro.model.database import VideoDatabase
from repro.store.sharding import (
    ShardLayout,
    load_layout,
    shard_id,
    split_database,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential backoff for transient shard-load faults.

    ``attempts`` bounds total tries (1 = the old no-retry behaviour).
    The nth retry sleeps ``base_delay_ms × multiplier^(n-1)`` capped at
    ``max_delay_ms``, then scaled into ``[1-jitter, 1)`` of itself so
    concurrent queries do not hammer a recovering disk in lockstep.
    Defaults are sized for in-process stores: three tries inside ~50ms.
    """

    attempts: int = 3
    base_delay_ms: float = 5.0
    max_delay_ms: float = 80.0
    multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.base_delay_ms <= 0 or self.max_delay_ms <= 0:
            raise ValueError("retry delays must be positive")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(
        self, attempt: int, rng: Callable[[], float] = random.random
    ) -> float:
        """Sleep before retry number ``attempt`` (1-based), in seconds."""
        raw = min(
            self.max_delay_ms,
            self.base_delay_ms * self.multiplier ** (attempt - 1),
        )
        return raw * (1.0 - self.jitter + self.jitter * rng()) / 1000.0


#: The serving default: bounded, fast, and jittered.
DEFAULT_RETRY = RetryPolicy()


class Shard:
    """One shard: an id, the videos it owns, and a lazy database loader.

    The loader runs at most once per successful load (memoized under a
    lock); every load attempt passes the ``shard-load`` fault site first,
    so the chaos suite can kill a shard deterministically.  Load
    failures are not cached — a shard that recovers on disk recovers on
    the next query.

    Transient faults retry under the shard's :class:`RetryPolicy`
    behind a per-shard circuit breaker: a shard that keeps failing
    opens its breaker and subsequent queries fail fast (no retry storm
    against a dead disk) until the cooldown probe readmits one trial.
    ``rng`` and ``sleep`` are injectable so chaos tests replay the
    backoff schedule deterministically without wall-clock waits.
    """

    __slots__ = (
        "shard_id",
        "_videos",
        "retry",
        "breaker",
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
        loader: Callable[[], VideoDatabase],
        *,
        retry: Optional[RetryPolicy] = None,
        rng: Callable[[], float] = random.random,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.shard_id = shard_id
        self._videos: Tuple[str, ...] = tuple(videos)
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.breaker = resilience.CircuitBreaker(f"shard-{shard_id}-load")
        self._loader = loader
        self._database: Optional[VideoDatabase] = None
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
        """The shard's database, loading (and memoizing) on first use."""
        if not self.breaker.allow():
            raise ShardError(
                f"shard {self.shard_id} load breaker is open; failing fast",
                shard=self.shard_id,
            )
        attempt = 0
        while True:
            try:
                resilience.fault(resilience.SITE_SHARD_LOAD)
                with self._lock:
                    if self._database is None:
                        self._database = self._loader()
                        trace.METRICS.count(trace.SHARD_LOADED)
                        trace.event(trace.SHARD_LOADED, self.shard_id)
                    database = self._database
            except Exception:
                self.breaker.record_failure()
                attempt += 1
                # Stop early (raising the genuine failure, not a
                # breaker message) once the breaker opens mid-retry.
                if (
                    attempt >= self.retry.attempts
                    or self.breaker.state == resilience.OPEN
                ):
                    raise
                delay = self.retry.backoff_s(attempt, self._rng)
                trace.METRICS.count(trace.SHARD_LOAD_RETRIED)
                trace.event(
                    trace.SHARD_LOAD_RETRIED,
                    f"{self.shard_id}: attempt {attempt + 1}/"
                    f"{self.retry.attempts} after {delay * 1000.0:.1f}ms",
                )
                self._sleep(delay)
                continue
            self.breaker.record_success()
            return database

    def __repr__(self) -> str:
        return f"Shard({self.shard_id!r}, {len(self.videos)} videos)"


def _store_loader(
    layout: ShardLayout, spec, verify: bool, keep: int
) -> Callable[[], VideoDatabase]:
    def load() -> VideoDatabase:
        loaded = layout.store(spec, keep=keep).load(verify=verify)
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
        cls,
        database: VideoDatabase,
        n_shards: int = 1,
        *,
        retry: Optional[RetryPolicy] = None,
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
                Shard(
                    shard_id(position),
                    part.names(),
                    lambda part=part: part,
                    retry=retry,
                )
                for position, part in enumerate(parts)
            ]
        )

    @classmethod
    def from_directory(
        cls,
        root,
        *,
        verify: bool = True,
        keep: int = 2,
        retry: Optional[RetryPolicy] = None,
    ) -> "ShardedCorpus":
        """Open a sharded store layout written by
        :func:`repro.store.sharding.save_sharded`.

        Only the layout manifest is read here; each shard's store loads
        lazily on first query, with the store's own corruption recovery
        underneath and ownership cross-checked against the manifest.
        """
        layout = load_layout(root)
        return cls(
            [
                Shard(
                    spec.shard_id,
                    spec.videos,
                    _store_loader(layout, spec, verify, keep),
                    retry=retry,
                )
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
        """Run the query over every shard and gather the global top-k.

        Shards run one after another, and every shard streams its videos
        into the query's one size-k heap under the caller's one budget
        object: a later shard prunes against the k-th score of every
        video evaluated so far, and the caller's step count and clock see
        the whole query.  A one-shard corpus ranks exactly as
        :func:`top_k_across_videos` ranks its database.

        Rankings are identical to the unsharded scan: pruning only skips
        videos that cannot crack the global k-th score, and the top-k set
        under the canonical total order does not depend on which shard
        evaluated a video first.
        """
        if k <= 0:
            return TopKResult([])
        context = _query_context(budget, lenient)
        strict = context is None or not context.lenient
        heap: List[_HeapItem] = []

        def run_shard(shard: Shard) -> List[VideoOutcome]:
            if context is not None and context.budget is not None:
                # A spent budget loads no more shards: they are lost to
                # it, as later videos are within one shard.
                context.budget.checkpoint("shard-start")
            with trace.span(
                trace.KIND_SHARD, shard.shard_id, videos=len(shard.videos)
            ):
                try:
                    database = shard.database()
                except Exception as error:
                    trace.METRICS.count(trace.SHARD_FAILED)
                    trace.event(
                        trace.SHARD_FAILED,
                        f"{shard.shard_id}: {type(error).__name__}",
                    )
                    failure = ShardError(
                        f"shard {shard.shard_id} failed to load: {error}",
                        shard=shard.shard_id,
                    )
                    failure.__cause__ = error
                    if strict:
                        raise failure
                    return lost_shard(shard, failure)
                return _rank_database(
                    engine, formula, database, k, level, prune, context, heap
                )

        def lost_shard(
            shard: Shard, error: BaseException
        ) -> List[VideoOutcome]:
            # The layout manifest names the shard's videos, so the
            # degradation is visible per video even though the shard's
            # own store never answered.
            return [_lost_outcome(name, error) for name in shard.videos]

        def rank() -> TopKResult:
            per_shard = _fan_out(self.shards, run_shard, lost_shard, strict)
            return _ranked(heap, [o for part in per_shard for o in part])

        return _run_query(
            f"top-{k}",
            formula,
            profile,
            getattr(engine, "planner", None),
            rank,
            k=k,
            level=level,
            shards=self.n_shards,
        )
