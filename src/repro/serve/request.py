"""Requests, tickets, and terminal results of the serving layer.

The server's correctness story hangs on one invariant: **every admitted
request terminates in exactly one of** ``completed`` / ``timed-out`` /
``shed``.  :class:`Ticket` is where that invariant is enforced — it is
a one-shot, thread-safe promise whose :meth:`~Ticket.resolve` accepts
the *first* terminal result and ignores every later attempt (drain and
a finishing worker may race to resolve the same ticket; exactly one
wins, nothing is dropped, nothing is double-counted).

Until then a ticket is queued or running, which the server's gauges
count; the chaos suite's conservation check sums the terminal ledger
against admissions.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.core.topk import TopKResult
from repro.errors import ServeError, ServeRejected
from repro.htl import ast

#: Terminal request states — exactly one per admitted request.
STATUS_COMPLETED = "completed"
STATUS_TIMED_OUT = "timed-out"
STATUS_SHED = "shed"

TERMINAL_STATUSES = (STATUS_COMPLETED, STATUS_TIMED_OUT, STATUS_SHED)


@dataclass(frozen=True)
class QueryRequest:
    """One retrieval request: what to run and under which latency class.

    ``lenient`` defaults to True — a serving layer prefers a partial
    ranking with named degraded videos over a hard failure; strict
    per-request semantics remain available for callers that need them.
    ``profile=True`` attaches a per-request span tree to the result
    (exported through the DESIGN.md §10 observability payloads).
    """

    formula: ast.Formula
    k: int
    level: int = 2
    sla: str = "standard"
    lenient: bool = True
    profile: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ServeError(f"k must be >= 1, got {self.k}")
        if self.level < 1:
            raise ServeError(f"levels are numbered from 1, got {self.level}")


@dataclass
class ServeResult:
    """The terminal outcome of one admitted request.

    ``status`` is one of :data:`TERMINAL_STATUSES`.  ``topk`` is present
    for ``completed`` (possibly ``partial=True`` after graceful
    degradation); ``error`` carries the terminating exception for
    ``timed-out`` and degraded completions; ``retry_after_ms`` is set
    for ``shed``.  The timing triple decomposes the SLA: ``total_ms ≈
    queue_ms + service_ms`` (+ scheduling slop).
    """

    request_id: int
    sla: str
    status: str
    topk: Optional[TopKResult] = None
    error: Optional[BaseException] = None
    retry_after_ms: float = 0.0
    queue_ms: float = 0.0
    service_ms: float = 0.0
    total_ms: float = 0.0
    worker: Optional[str] = None
    attempts: int = 0

    @property
    def completed(self) -> bool:
        return self.status == STATUS_COMPLETED

    @property
    def degraded(self) -> bool:
        """True when the ranking is best-effort (partial or recovered)."""
        return self.completed and (
            self.error is not None
            or (self.topk is not None and self.topk.partial)
        )

    def raise_for_status(self) -> TopKResult:
        """The ranking, or the typed error for a non-completed request."""
        if self.status == STATUS_COMPLETED:
            assert self.topk is not None
            return self.topk
        if self.status == STATUS_SHED:
            raise ServeRejected(
                f"request {self.request_id} shed under pressure",
                retry_after_ms=self.retry_after_ms,
                reason="shed",
                sla=self.sla,
            )
        error = self.error or ServeError(
            f"request {self.request_id} timed out"
        )
        raise error

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe summary (the serve response / bench row shape)."""
        payload: Dict[str, Any] = {
            "request_id": self.request_id,
            "sla": self.sla,
            "status": self.status,
            "queue_ms": round(self.queue_ms, 3),
            "service_ms": round(self.service_ms, 3),
            "total_ms": round(self.total_ms, 3),
            "attempts": self.attempts,
        }
        if self.worker is not None:
            payload["worker"] = self.worker
        if self.retry_after_ms:
            payload["retry_after_ms"] = round(self.retry_after_ms, 3)
        if self.error is not None:
            payload["error"] = type(self.error).__name__
        if self.topk is not None:
            payload["result"] = self.topk.to_payload()
        return payload


class Ticket:
    """A one-shot promise for one admitted request.

    Thread-safe: any number of threads may race :meth:`resolve`; the
    first terminal result wins and later ones are ignored (returning
    False so callers can keep their ledgers exact).  ``wait``/``result``
    block on an event, so a client thread parks without spinning.
    """

    __slots__ = (
        "request",
        "request_id",
        "submitted_at",
        "admitted_at",
        "dispatched_at",
        "attempts",
        "_event",
        "_lock",
        "_result",
    )

    def __init__(
        self, request: QueryRequest, request_id: int, submitted_at: float
    ):
        self.request = request
        self.request_id = request_id
        self.submitted_at = submitted_at
        self.admitted_at = submitted_at
        self.dispatched_at: Optional[float] = None
        #: Execution attempts so far (failed attempts retry on the pool).
        self.attempts = 0
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._result: Optional[ServeResult] = None

    @property
    def sla(self) -> str:
        return self.request.sla

    def done(self) -> bool:
        return self._event.is_set()

    def resolve(self, result: ServeResult) -> bool:
        """Install the terminal result; False when already resolved."""
        if result.status not in TERMINAL_STATUSES:
            raise ServeError(
                f"cannot resolve a ticket with transient status "
                f"{result.status!r}"
            )
        with self._lock:
            if self._result is not None:
                return False
            self._result = result
        self._event.set()
        return True

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> ServeResult:
        """Block until terminal; raises ServeError on timeout."""
        if not self._event.wait(timeout):
            raise ServeError(
                f"request {self.request_id} not terminal after "
                f"{timeout}s wait"
            )
        assert self._result is not None
        return self._result

    def __repr__(self) -> str:
        state = self._result.status if self._result else "pending"
        return f"Ticket({self.request_id}, {self.sla!r}, {state})"
