"""Concurrent retrieval serving: admission control, load shedding, and
SLA-derived budgets (DESIGN.md §14).

The package turns the batch-oriented retrieval stack
(:class:`~repro.core.engine.RetrievalEngine` and the one ranking loop,
:meth:`ShardedCorpus.top_k <repro.shard.ShardedCorpus.top_k>`) into a
long-lived threaded query service::

    from repro.serve import EnginePool, QueryRequest, RetrievalServer
    from repro.shard import ShardedCorpus
    from repro.store import Store

    database = Store("snapshots/").load().database
    pool = EnginePool(ShardedCorpus.from_database(database), n_workers=4)
    with RetrievalServer(pool) as server:
        result = server.query("exists x . present(x)", k=5,
                              sla="interactive")
        ranking = result.raise_for_status()

Layering: :mod:`~repro.serve.sla` (latency classes → budgets),
:mod:`~repro.serve.request` (tickets and terminal results),
:mod:`~repro.serve.queue` (bounded priority queue: admission +
shedding), :mod:`~repro.serve.pool` (warm engines),
:mod:`~repro.serve.server` (the threaded server and its ledger).
"""

from repro.errors import ServeError, ServeRejected
from repro.serve.pool import EnginePool, PooledWorker
from repro.serve.queue import RequestQueue
from repro.serve.request import (
    STATUS_COMPLETED,
    STATUS_SHED,
    STATUS_TIMED_OUT,
    TERMINAL_STATUSES,
    QueryRequest,
    ServeResult,
    Ticket,
)
from repro.serve.server import RetrievalServer, ServeStats
from repro.serve.sla import (
    BATCH,
    INTERACTIVE,
    STANDARD,
    SLAClass,
    default_classes,
    scaled,
    validate_classes,
)

__all__ = [
    "BATCH",
    "INTERACTIVE",
    "STANDARD",
    "STATUS_COMPLETED",
    "STATUS_SHED",
    "STATUS_TIMED_OUT",
    "TERMINAL_STATUSES",
    "EnginePool",
    "PooledWorker",
    "QueryRequest",
    "RequestQueue",
    "RetrievalServer",
    "ServeError",
    "ServeRejected",
    "ServeResult",
    "ServeStats",
    "SLAClass",
    "Ticket",
    "default_classes",
    "scaled",
    "validate_classes",
]
