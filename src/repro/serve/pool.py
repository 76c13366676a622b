"""Warm engine pools: the compute side of the serving layer.

A server must not pay a snapshot load or an index build on a request's
critical path.  :class:`EnginePool` front-loads both: the corpus is
loaded **once** (from an in-memory database, a :class:`repro.store.Store`
snapshot, or a sharded layout) and :meth:`EnginePool.warm` touches every
video's picture index at the serving level.  Each worker keeps its own
long-lived :class:`~repro.core.engine.RetrievalEngine`; the only state
that persists across its requests is the planner's plan cache (no
evaluation cache is constructed — query results are recomputed per
request).

Every worker carries a :class:`~repro.core.resilience.CircuitBreaker`:
repeated failures take the worker out of rotation (the server bounces
its work to siblings) until a cooldown probe passes.
:meth:`EnginePool.degraded_result` is the last rung — a typed *partial*
:class:`~repro.core.topk.TopKResult` naming every video ``failed``, so
even a request that exhausted all retries terminates with an honest,
well-formed answer instead of an opaque exception.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core import resilience
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.resilience import CircuitBreaker, QueryBudget
from repro.core.topk import (
    OUTCOME_FAILED,
    TopKResult,
    VideoOutcome,
    top_k_across_videos,
)
from repro.errors import ServeError
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.serve.request import QueryRequest

#: The trivial health-probe query: satisfiable on any corpus with
#: object metadata, cheap even naively, and exercising parse → plan →
#: index → score end to end.
PROBE_QUERY = "exists x . present(x)"


class PooledWorker:
    """One warm worker: a named engine plus its circuit breaker."""

    __slots__ = ("name", "engine", "breaker", "served", "_lock")

    def __init__(self, name: str, engine: RetrievalEngine):
        self.name = name
        self.engine = engine
        self.breaker = CircuitBreaker(name)
        self.served = 0
        self._lock = threading.Lock()

    @property
    def healthy(self) -> bool:
        """False while the breaker refuses work (open, pre-cooldown)."""
        return self.breaker.state != resilience.OPEN

    def record_served(self) -> None:
        with self._lock:
            self.served += 1

    def __repr__(self) -> str:
        return (
            f"PooledWorker({self.name!r}, breaker={self.breaker.state}, "
            f"served={self.served})"
        )


class EnginePool:
    """N warm workers over one shared corpus (database or sharded).

    The corpus objects are immutable at serving time, so workers share
    them; each worker's engine owns its own plan cache.  Exactly one of
    ``database`` / ``corpus`` is set.
    """

    def __init__(
        self,
        n_workers: int,
        *,
        database: Optional[VideoDatabase] = None,
        corpus=None,
        config: Optional[EngineConfig] = None,
    ):
        if n_workers < 1:
            raise ServeError(f"a pool needs >= 1 worker, got {n_workers}")
        if (database is None) == (corpus is None):
            raise ServeError(
                "a pool serves exactly one corpus: pass database= or corpus="
            )
        self._database = database
        self._corpus = corpus
        self.config = config or EngineConfig()
        self.workers: Tuple[PooledWorker, ...] = tuple(
            PooledWorker(f"worker-{position}", RetrievalEngine(self.config))
            for position in range(n_workers)
        )

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_database(
        cls, database: VideoDatabase, n_workers: int, **kwargs
    ) -> "EnginePool":
        return cls(n_workers, database=database, **kwargs)

    @classmethod
    def from_corpus(cls, corpus, n_workers: int, **kwargs) -> "EnginePool":
        """Serve a :class:`repro.shard.ShardedCorpus` (scatter-gather)."""
        return cls(n_workers, corpus=corpus, **kwargs)

    @classmethod
    def from_store(
        cls, path, n_workers: int, *, verify: bool = True, **kwargs
    ) -> "EnginePool":
        """Load the newest intact snapshot once and serve it warm."""
        from repro.store import Store

        loaded = Store(path).load(verify=verify)
        return cls(n_workers, database=loaded.database, **kwargs)

    @classmethod
    def from_shard_layout(cls, path, n_workers: int, **kwargs) -> "EnginePool":
        """Serve a sharded store layout written by ``shard split``."""
        from repro.shard import ShardedCorpus

        return cls(
            n_workers, corpus=ShardedCorpus.from_directory(path), **kwargs
        )

    # -- introspection ---------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def sharded(self) -> bool:
        return self._corpus is not None

    def video_names(self) -> List[str]:
        if self._corpus is not None:
            return list(self._corpus.video_names)
        return list(self._database.names())

    def healthy_workers(self) -> List[PooledWorker]:
        return [worker for worker in self.workers if worker.healthy]

    # -- lifecycle -------------------------------------------------------
    def warm(self, level: int = 2) -> int:
        """Build every video's picture index at the serving level.

        Returns the number of videos warmed.  For a sharded corpus this
        also triggers every shard's (memoized) snapshot load, so the
        first real request pays neither disk nor index build.
        """
        return self.refresh(None, level)

    def refresh(
        self, video_names: Optional[Sequence[str]] = None, level: int = 2
    ) -> int:
        """Re-warm after a live ingest batch landed (checkpoint/commit).

        ``video_names`` limits the work to the videos the batch touched
        (``None`` re-warms everything).  Per-worker plan caches need no
        explicit drop: planners sync against per-video generation stamps,
        so each touched video's stale plans fall on its next query.
        Rebuilding the picture indexes here moves that cost off the
        serving path.  Returns the number of videos re-warmed.

        Designed as an ingest commit listener::

            ingester.add_listener(pool.refresh)
        """
        wanted = None if video_names is None else set(video_names)
        warmed = 0
        for database in self._databases():
            for video in database.videos():
                if wanted is not None and video.name not in wanted:
                    continue
                video.root.pictures_at_level(min(level, video.n_levels))
                warmed += 1
        return warmed

    def _databases(self) -> Sequence[VideoDatabase]:
        if self._corpus is not None:
            return [shard.database() for shard in self._corpus.shards]
        return [self._database]

    def probe(self, worker: PooledWorker, *, deadline_ms: float = 1_000.0) -> bool:
        """Health-check one worker with the trivial probe query.

        Success closes the worker's breaker, failure feeds it — so a
        probe is also how a half-open worker re-earns rotation.
        """
        try:
            self.execute(
                worker,
                QueryRequest(parse(PROBE_QUERY), k=1),
                QueryBudget(deadline_ms=deadline_ms),
            )
        except Exception:
            worker.breaker.record_failure()
            return False
        worker.breaker.record_success()
        return True

    # -- execution -------------------------------------------------------
    def execute(
        self,
        worker: PooledWorker,
        request: QueryRequest,
        budget: Optional[QueryBudget],
    ) -> TopKResult:
        """Run one request on one worker's engine (no retry logic here)."""
        if self._corpus is not None:
            return self._corpus.top_k(
                worker.engine,
                request.formula,
                request.k,
                level=request.level,
                parallelism=request.parallelism,
                budget=budget,
                lenient=request.lenient,
            )
        return top_k_across_videos(
            worker.engine,
            request.formula,
            self._database,
            request.k,
            level=request.level,
            parallelism=request.parallelism,
            budget=budget,
            lenient=request.lenient,
        )

    def degraded_result(self, error: BaseException) -> TopKResult:
        """The graceful-degradation floor: an empty *partial* ranking
        naming every video ``failed`` with the terminating error."""
        return TopKResult(
            [],
            [
                VideoOutcome(name, OUTCOME_FAILED, error)
                for name in self.video_names()
            ],
            partial=True,
        )

    def __repr__(self) -> str:
        backend = "corpus" if self.sharded else "database"
        return f"EnginePool({self.n_workers} workers over a {backend})"
