"""Warm engine pools: the compute side of the serving layer.

A server must not pay a snapshot load or an index build on a request's
critical path.  :class:`EnginePool` front-loads both: it serves one
:class:`~repro.shard.ShardedCorpus` — a sharded layout, or any in-memory
database (a built-in dataset, a loaded :class:`repro.store.Store`
snapshot, an ingester's live database) as
``ShardedCorpus.from_database(database)`` — whose shards load **once**,
and :meth:`EnginePool.warm` touches every video's picture index at the
serving level.  Every request is one ``corpus.top_k`` call.  Each worker
keeps its own long-lived :class:`~repro.core.engine.RetrievalEngine`;
what persists across its requests is the planner's plan cache and the
engine's list memo (:class:`~repro.core.cache.ListMemo`).  Neither needs
a commit listener: a commit gives each touched video a new stamp, so the
memo's old entries are never hit again and age out.

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
from typing import List, Optional, Sequence, Tuple

from repro.core import resilience
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.resilience import CircuitBreaker, QueryBudget
from repro.core.topk import OUTCOME_FAILED, TopKResult, VideoOutcome
from repro.errors import ServeError
from repro.htl import parse
from repro.serve.request import QueryRequest
from repro.shard import ShardedCorpus

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
    """N warm workers over one shared :class:`~repro.shard.ShardedCorpus`.

    The corpus objects are immutable at serving time, so workers share
    them; each worker's engine owns its own plan cache and list memo.  An
    in-memory database is served as
    ``ShardedCorpus.from_database(database)``.
    """

    def __init__(
        self,
        corpus: ShardedCorpus,
        n_workers: int,
        *,
        config: Optional[EngineConfig] = None,
    ):
        if n_workers < 1:
            raise ServeError(f"a pool needs >= 1 worker, got {n_workers}")
        self.corpus = corpus
        self.config = config or EngineConfig()
        self.workers: Tuple[PooledWorker, ...] = tuple(
            PooledWorker(f"worker-{position}", RetrievalEngine(self.config))
            for position in range(n_workers)
        )

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_shard_layout(cls, path, n_workers: int, **kwargs) -> "EnginePool":
        """Serve a sharded store layout written by ``shard split``."""
        return cls(ShardedCorpus.from_directory(path), n_workers, **kwargs)

    # -- introspection ---------------------------------------------------
    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def video_names(self) -> List[str]:
        return self.corpus.video_names

    def healthy_workers(self) -> List[PooledWorker]:
        return [worker for worker in self.workers if worker.healthy]

    # -- lifecycle -------------------------------------------------------
    def warm(self, level: int = 2) -> int:
        """Build every video's picture index at the serving level.

        Returns the number of videos warmed.  This also triggers every
        shard's (memoized) load, so the first real request pays neither
        disk nor index build.
        """
        return self.refresh(None, level)

    def refresh(
        self, video_names: Optional[Sequence[str]] = None, level: int = 2
    ) -> int:
        """Re-warm after a live ingest batch landed (checkpoint/commit).

        ``video_names`` limits the work to the videos the batch touched
        (``None`` re-warms everything).  Per-worker plan caches and list
        memos need no explicit drop: both key on per-video stamps, so a
        touched video's stale plans and lists are never used again.
        Rebuilding the picture indexes here moves that cost off the
        serving path.  Returns the number of videos re-warmed.

        Designed as an ingest commit listener::

            ingester.add_listener(pool.refresh)
        """
        wanted = None if video_names is None else set(video_names)
        warmed = 0
        for shard in self.corpus.shards:
            for video in shard.database().videos():
                if wanted is not None and video.name not in wanted:
                    continue
                video.root.pictures_at_level(min(level, video.n_levels))
                warmed += 1
        return warmed

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
        return self.corpus.top_k(
            worker.engine,
            request.formula,
            request.k,
            level=request.level,
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
        return f"EnginePool({self.n_workers} workers over {self.corpus!r})"
