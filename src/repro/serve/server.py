"""The long-lived threaded retrieval server (DESIGN.md §14).

One :class:`RetrievalServer` owns the whole request lifecycle::

    submit ──▶ admission control ──▶ queued ──▶ dispatched ──▶ running
       │            │                  │                         │
       ▼            ▼                  ▼                         ▼
   ServeRejected  ServeRejected      shed (evicted          completed /
   (closing)     (queue-full /       under pressure,        timed-out
                  backlog)           retry hint)

and enforces the serving layer's conservation law: **every admitted
request terminates in exactly one of** ``completed`` / ``timed-out`` /
``shed`` — racing resolvers (a finishing worker vs. the drain sweep)
are serialised by the ticket's first-wins :meth:`~repro.serve.request.
Ticket.resolve`, and the ledger counts only winning resolutions.

Dispatch is strict-priority with per-worker pinning: each pooled worker
runs its own thread against its own engine, pulls the
highest-priority queued ticket, re-derives the request's
:class:`~repro.core.resilience.QueryBudget` from its SLA deadline minus
time already queued, and executes under the existing resilience layer
(lenient partial results, the naive-scan atom fallback, budget charging
in the hot loops).  A worker whose circuit breaker is open bounces work
back to the *front* of its class queue for a sibling; a request whose
attempts are exhausted degrades to the pool's typed partial result
rather than an opaque error.

Shutdown is a graceful drain: admission closes immediately, queued and
in-flight work gets ``drain_timeout_ms`` to finish, and everything
still unresolved at the deadline is swept ``timed-out`` — nothing is
silently dropped, which the chaos suite checks under injected faults
at every serve site.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.core import resilience, trace
from repro.errors import (
    BudgetExceededError,
    ServeError,
    ServeRejected,
)
from repro.htl import ast, parse
from repro.serve.pool import EnginePool, PooledWorker
from repro.serve.queue import RequestQueue
from repro.serve.request import (
    STATUS_COMPLETED,
    STATUS_SHED,
    STATUS_TIMED_OUT,
    QueryRequest,
    ServeResult,
    Ticket,
)
from repro.serve.sla import SLAClass, default_classes, validate_classes

#: How long a worker blocks on an empty queue before re-checking the
#: stop flag.  Small enough that drain latency is dominated by real
#: work, large enough that idle workers do not spin.
_IDLE_WAIT_S = 0.02

#: How often :meth:`RetrievalServer.close` re-checks a draining queue.
_DRAIN_POLL_S = 0.005

#: EWMA smoothing for the service-time estimate feeding admission
#: control.  0.2 ≈ the last ~10 requests dominate, so the estimate
#: tracks load shifts within one queue's worth of work.
_EWMA_ALPHA = 0.2


@dataclass
class ServeStats:
    """One coherent snapshot of the server's ledger and gauges.

    The counter block is the conservation ledger; ``queue_depths`` /
    ``in_flight`` / ``healthy_workers`` are point-in-time gauges; the
    ``*_ms`` dicts are latency-histogram summaries (p50/p95/p99, in
    milliseconds) from the same reservoir histograms the metrics
    registry uses.
    """

    submitted: int = 0
    admitted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    admit_failures: int = 0
    completed: int = 0
    timed_out: int = 0
    shed: int = 0
    degraded: int = 0
    requeued: int = 0
    drain_faults: int = 0
    queue_depths: Dict[str, int] = field(default_factory=dict)
    in_flight: int = 0
    healthy_workers: int = 0
    n_workers: int = 0
    ewma_service_ms: float = 0.0
    admission_ms: Dict[str, float] = field(default_factory=dict)
    queue_wait_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    latency_ms: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    @property
    def outstanding(self) -> int:
        """Admitted requests not yet terminal (queued + running)."""
        return sum(self.queue_depths.values()) + self.in_flight

    @property
    def conserved(self) -> bool:
        """The conservation law, checkable at any instant."""
        return (
            self.admitted
            == self.completed + self.timed_out + self.shed + self.outstanding
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": dict(self.rejected),
            "admit_failures": self.admit_failures,
            "completed": self.completed,
            "timed_out": self.timed_out,
            "shed": self.shed,
            "degraded": self.degraded,
            "requeued": self.requeued,
            "drain_faults": self.drain_faults,
            "queue_depths": dict(self.queue_depths),
            "in_flight": self.in_flight,
            "healthy_workers": self.healthy_workers,
            "n_workers": self.n_workers,
            "ewma_service_ms": round(self.ewma_service_ms, 3),
            "admission_ms": self.admission_ms,
            "queue_wait_ms": self.queue_wait_ms,
            "latency_ms": self.latency_ms,
            "conserved": self.conserved,
        }


def _summary(histogram: trace.Histogram) -> Dict[str, float]:
    """Milliseconds, for the ``*_ms`` fields — the histograms, like the
    process registry's, are observed in seconds."""
    summary = histogram.summary()
    return {
        "count": summary.count,
        "p50": round(summary.p50 * 1000.0, 3),
        "p95": round(summary.p95 * 1000.0, 3),
        "p99": round(summary.p99 * 1000.0, 3),
        "max": round(summary.maximum * 1000.0, 3),
    }


class RetrievalServer:
    """A long-lived threaded query server over an :class:`EnginePool`.

    ``capacity`` bounds the total queued depth (default: the sum of the
    per-class limits, i.e. shedding only under an explicitly tighter
    bound).  ``clock`` must be monotone and is injectable for
    deterministic tests; it feeds queue-wait measurement *and* every
    request's :class:`~repro.core.resilience.QueryBudget`.
    """

    def __init__(
        self,
        pool: EnginePool,
        *,
        classes: Optional[Dict[str, SLAClass]] = None,
        capacity: Optional[int] = None,
        max_attempts: int = 2,
        drain_timeout_ms: float = 5_000.0,
        initial_service_ms: float = 25.0,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.pool = pool
        self.classes = validate_classes(
            dict(classes) if classes is not None else default_classes()
        )
        if max_attempts < 1:
            raise ServeError(f"max_attempts must be >= 1, got {max_attempts}")
        if drain_timeout_ms < 0:
            raise ServeError(
                f"drain timeout must be >= 0, got {drain_timeout_ms}"
            )
        self.max_attempts = max_attempts
        self.drain_timeout_ms = drain_timeout_ms
        self._clock = clock
        self._sleep = sleep
        self._queue = RequestQueue(
            self.classes,
            capacity
            if capacity is not None
            else sum(sla.queue_limit for sla in self.classes.values()),
            estimator=self._estimate_wait_ms,
            on_shed=self._resolve_shed,
        )
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {
            "submitted": 0,
            "admitted": 0,
            "admit-failures": 0,
            "completed": 0,
            "timed-out": 0,
            "shed": 0,
            "degraded": 0,
            "requeued": 0,
            "drain-faults": 0,
        }
        self._rejected: Dict[str, int] = {}
        self._in_flight = 0
        self._inflight_tickets: Dict[int, Ticket] = {}
        self._next_id = 0
        self._ewma_service_ms = float(initial_service_ms)
        self._admission_hist = trace.Histogram()
        self._queue_wait_hist = {name: trace.Histogram() for name in self.classes}
        self._latency_hist = {name: trace.Histogram() for name in self.classes}
        self._threads: List[threading.Thread] = []
        self._started = False
        self._closed = False
        self._stop = threading.Event()

    # -- lifecycle -------------------------------------------------------
    def start(
        self, *, warm: bool = True, level: Optional[int] = None
    ) -> "RetrievalServer":
        """Warm the pool and spawn one pinned thread per worker."""
        with self._lock:
            if self._started:
                raise ServeError("server already started")
            if self._closed:
                raise ServeError("server already closed")
            self._started = True
        if warm:
            self.pool.warm(level if level is not None else 2)
        for worker in self.pool.workers:
            thread = threading.Thread(
                target=self._worker_loop,
                args=(worker,),
                name=f"serve-{worker.name}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()
        return self

    def __enter__(self) -> "RetrievalServer":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission -------------------------------------------------------
    def submit(self, request: QueryRequest) -> Ticket:
        """Admit one request or raise :class:`ServeRejected`.

        Admission is O(classes) under one lock — depth checks and an
        EWMA backlog estimate, no engine work — so its latency (the
        ``admission_ms`` gauge) stays microseconds even under overload.
        """
        t0 = self._clock()
        if not self._started:
            raise ServeError("server not started; call start() first")
        with self._lock:
            self._counts["submitted"] += 1
        try:
            resilience.fault(resilience.SITE_SERVE_ADMIT)
        except Exception:
            with self._lock:
                self._counts["admit-failures"] += 1
            raise
        sla = self.classes.get(request.sla)
        if sla is None:
            raise ServeError(
                f"unknown SLA class {request.sla!r}; one of "
                f"{', '.join(sorted(self.classes))}"
            )
        with self._lock:
            self._next_id += 1
            ticket = Ticket(request, self._next_id, t0)
            running = self._in_flight
        try:
            self._queue.offer(ticket, running)
        except ServeRejected as rejection:
            with self._lock:
                self._rejected[rejection.reason] = (
                    self._rejected.get(rejection.reason, 0) + 1
                )
            trace.METRICS.count(trace.SERVE_REJECTED)
            trace.event(
                trace.SERVE_REJECTED,
                f"{sla.name}: {rejection.reason} "
                f"(retry after {rejection.retry_after_ms:.0f}ms)",
            )
            raise
        with self._lock:
            self._counts["admitted"] += 1
        trace.METRICS.count(trace.SERVE_ADMITTED)
        admission_s = self._clock() - t0
        self._admission_hist.observe(admission_s)
        trace.METRICS.observe(trace.SERVE_ADMISSION_LATENCY, admission_s)
        return ticket

    def query(
        self,
        formula,
        k: int,
        *,
        sla: str = "standard",
        level: int = 2,
        lenient: bool = True,
        profile: bool = False,
        timeout_s: Optional[float] = None,
    ) -> ServeResult:
        """Convenience: parse/submit one request and wait for its result."""
        if isinstance(formula, str):
            formula = parse(formula)
        if not isinstance(formula, ast.Formula):
            raise ServeError(
                f"expected a formula or query text, got {type(formula).__name__}"
            )
        ticket = self.submit(
            QueryRequest(
                formula,
                k,
                level=level,
                sla=sla,
                lenient=lenient,
                profile=profile,
            )
        )
        if timeout_s is None:
            # Terminal within the SLA deadline by construction; the
            # margin covers scheduling slop, not semantics.
            timeout_s = self.classes[sla].deadline_ms / 1000.0 * 2 + 5.0
        return ticket.result(timeout_s)

    # -- admission plumbing ---------------------------------------------
    def _estimate_wait_ms(self, ahead: int) -> float:
        with self._lock:
            ewma = self._ewma_service_ms
        return ahead * ewma / self.pool.n_workers

    def _observe_service(self, service_ms: float) -> None:
        with self._lock:
            self._ewma_service_ms += _EWMA_ALPHA * (
                service_ms - self._ewma_service_ms
            )

    # -- terminal resolution (the ledger) --------------------------------
    def _resolve(self, ticket: Ticket, result: ServeResult, counter: str) -> bool:
        if not ticket.resolve(result):
            return False
        with self._lock:
            self._counts[counter] += 1
        return True

    def _resolve_shed(self, ticket: Ticket, retry_after_ms: float) -> None:
        queue_ms = (self._clock() - ticket.submitted_at) * 1000.0
        if self._resolve(
            ticket,
            ServeResult(
                ticket.request_id,
                ticket.sla,
                STATUS_SHED,
                retry_after_ms=max(retry_after_ms, 1.0),
                queue_ms=queue_ms,
                total_ms=queue_ms,
                attempts=ticket.attempts,
            ),
            "shed",
        ):
            trace.METRICS.count(trace.SERVE_SHED)
            trace.event(
                trace.SERVE_SHED,
                f"request {ticket.request_id} ({ticket.sla}) after "
                f"{queue_ms:.0f}ms queued",
            )

    def _resolve_timed_out(
        self,
        ticket: Ticket,
        error: BaseException,
        *,
        queue_ms: float,
        service_ms: float = 0.0,
    ) -> None:
        if self._resolve(
            ticket,
            ServeResult(
                ticket.request_id,
                ticket.sla,
                STATUS_TIMED_OUT,
                error=error,
                queue_ms=queue_ms,
                service_ms=service_ms,
                total_ms=(self._clock() - ticket.submitted_at) * 1000.0,
                attempts=ticket.attempts,
            ),
            "timed-out",
        ):
            trace.METRICS.count(trace.SERVE_TIMED_OUT)

    def _resolve_completed(
        self,
        ticket: Ticket,
        topk,
        worker: PooledWorker,
        *,
        queue_ms: float,
        service_ms: float,
        error: Optional[BaseException] = None,
    ) -> None:
        total_ms = (self._clock() - ticket.submitted_at) * 1000.0
        if self._resolve(
            ticket,
            ServeResult(
                ticket.request_id,
                ticket.sla,
                STATUS_COMPLETED,
                topk=topk,
                error=error,
                queue_ms=queue_ms,
                service_ms=service_ms,
                total_ms=total_ms,
                worker=worker.name,
                attempts=ticket.attempts,
            ),
            "completed",
        ):
            trace.METRICS.count(trace.SERVE_COMPLETED)
            self._latency_hist[ticket.sla].observe(total_ms / 1000.0)
            trace.METRICS.observe(
                trace.SERVE_REQUEST_LATENCY, total_ms / 1000.0
            )
            if error is not None:
                with self._lock:
                    self._counts["degraded"] += 1
                trace.METRICS.count(trace.SERVE_DEGRADED)

    # -- the worker loop -------------------------------------------------
    def _worker_loop(self, worker: PooledWorker) -> None:
        while not self._stop.is_set():
            ticket = self._queue.take(_IDLE_WAIT_S)
            if ticket is None:
                continue
            try:
                self._serve_one(worker, ticket)
            except Exception as error:  # absolute backstop: never drop
                self._resolve_completed(
                    ticket,
                    self.pool.degraded_result(error),
                    worker,
                    queue_ms=(self._clock() - ticket.submitted_at) * 1000.0,
                    service_ms=0.0,
                    error=error,
                )

    def _serve_one(self, worker: PooledWorker, ticket: Ticket) -> None:
        now = self._clock()
        queue_ms = (now - ticket.submitted_at) * 1000.0
        sla = self.classes[ticket.sla]
        try:
            budget = sla.budget(queue_ms, clock=self._clock)
        except BudgetExceededError as expired:
            # The whole deadline burned in the queue: terminal without
            # touching an engine (admission control's last line).
            self._resolve_timed_out(ticket, expired, queue_ms=queue_ms)
            return
        if not worker.breaker.allow():
            ticket.bounces += 1
            if ticket.bounces <= 2 * self.pool.n_workers:
                with self._lock:
                    self._counts["requeued"] += 1
                trace.METRICS.count(trace.SERVE_REQUEUED)
                self._queue.requeue(ticket)
                self._sleep(_IDLE_WAIT_S / 4)  # let a sibling take it
                return
            # Every worker is refusing: degrade rather than livelock.
            error = ServeError(
                f"no healthy worker for request {ticket.request_id} after "
                f"{ticket.bounces} bounces"
            )
            self._resolve_completed(
                ticket,
                self.pool.degraded_result(error),
                worker,
                queue_ms=queue_ms,
                service_ms=0.0,
                error=error,
            )
            return
        self._queue_wait_hist[ticket.sla].observe(queue_ms / 1000.0)
        trace.METRICS.observe(trace.SERVE_QUEUE_WAIT, queue_ms / 1000.0)
        ticket.dispatched_at = now
        with self._lock:
            self._in_flight += 1
            self._inflight_tickets[ticket.request_id] = ticket
        started = self._clock()
        try:
            ticket.attempts += 1
            resilience.fault(resilience.SITE_SERVE_WORKER)
            topk = self._execute(worker, ticket, budget)
        except BudgetExceededError as overrun:
            # Not the worker's fault: the budget fired mid-query.
            service_ms = (self._clock() - started) * 1000.0
            self._observe_service(service_ms)
            self._resolve_timed_out(
                ticket, overrun, queue_ms=queue_ms, service_ms=service_ms
            )
        except Exception as failure:
            worker.breaker.record_failure()
            service_ms = (self._clock() - started) * 1000.0
            remaining = sla.deadline_ms - (
                (self._clock() - ticket.submitted_at) * 1000.0
            )
            if ticket.attempts < self.max_attempts and remaining > 0:
                with self._lock:
                    self._counts["requeued"] += 1
                trace.METRICS.count(trace.SERVE_REQUEUED)
                self._queue.requeue(ticket)
            else:
                self._resolve_completed(
                    ticket,
                    self.pool.degraded_result(failure),
                    worker,
                    queue_ms=queue_ms,
                    service_ms=service_ms,
                    error=failure,
                )
        else:
            worker.breaker.record_success()
            worker.record_served()
            service_ms = (self._clock() - started) * 1000.0
            self._observe_service(service_ms)
            self._resolve_completed(
                ticket,
                topk,
                worker,
                queue_ms=queue_ms,
                service_ms=service_ms,
            )
        finally:
            with self._lock:
                self._in_flight -= 1
                self._inflight_tickets.pop(ticket.request_id, None)

    def _execute(self, worker: PooledWorker, ticket: Ticket, budget):
        """Run the request, under a per-request span tree when asked."""
        request = ticket.request
        if not request.profile:
            return self.pool.execute(worker, request, budget)
        with trace.recording() as recorder:
            with recorder.span(
                trace.KIND_SERVE,
                f"request-{ticket.request_id}",
                sla=ticket.sla,
                worker=worker.name,
                attempt=ticket.attempts,
            ) as serve_span:
                result = self.pool.execute(worker, request, budget)
                serve_span.attrs["queue-ms"] = round(
                    (ticket.dispatched_at - ticket.submitted_at) * 1000.0, 3
                )
        result.profile = serve_span
        return result

    # -- shutdown --------------------------------------------------------
    def close(self, drain_timeout_ms: Optional[float] = None) -> ServeStats:
        """Graceful drain: finish or time out everything, then stop.

        Idempotent.  Admission closes immediately (new submits are
        rejected ``closing``); queued and in-flight work gets the drain
        timeout to finish — measured on the server's clock and in polls
        of its sleep, and cut short once no worker thread is alive;
        whatever is still unresolved afterwards is swept ``timed-out``.
        An injected fault at the ``serve-drain`` site is absorbed and
        counted — a failing drain hook must never leave the ledger
        unbalanced.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
        if already_closed:
            return self.stats()
        self._queue.close()
        try:
            resilience.fault(resilience.SITE_SERVE_DRAIN)
        except Exception:
            with self._lock:
                self._counts["drain-faults"] += 1
        timeout_ms = (
            drain_timeout_ms
            if drain_timeout_ms is not None
            else self.drain_timeout_ms
        )
        # The wait ends at the deadline, after the timeout's worth of
        # sleeps (an injected clock may stand still), or once no worker
        # thread is left to drain anything.
        deadline = self._clock() + timeout_ms / 1000.0
        sleeps_left = timeout_ms / (1000.0 * _DRAIN_POLL_S)
        while self._clock() < deadline and sleeps_left > 0:
            with self._lock:
                in_flight = self._in_flight
            if self._queue.depth() == 0 and in_flight == 0:
                break
            if not any(thread.is_alive() for thread in self._threads):
                break
            self._sleep(_DRAIN_POLL_S)
            sleeps_left -= 1
        drained_error = BudgetExceededError(
            "server drained before the request could run",
            site="serve-drain",
        )
        for ticket in self._queue.drain_remaining():
            self._resolve_timed_out(
                ticket,
                drained_error,
                queue_ms=(self._clock() - ticket.submitted_at) * 1000.0,
            )
        self._stop.set()
        join_s = (
            max(sla.deadline_ms for sla in self.classes.values()) / 1000.0
            + 1.0
        )
        for thread in self._threads:
            thread.join(timeout=join_s)
        # Absolute sweep: a worker that died or wedged past the join
        # timeout must still not leave its ticket unresolved.
        with self._lock:
            stragglers = list(self._inflight_tickets.values())
        for ticket in stragglers:
            self._resolve_timed_out(
                ticket,
                drained_error,
                queue_ms=(self._clock() - ticket.submitted_at) * 1000.0,
            )
        return self.stats()

    # -- observability ---------------------------------------------------
    def stats(self) -> ServeStats:
        with self._lock:
            counts = dict(self._counts)
            rejected = dict(self._rejected)
            in_flight = self._in_flight
            ewma = self._ewma_service_ms
        return ServeStats(
            submitted=counts["submitted"],
            admitted=counts["admitted"],
            rejected=rejected,
            admit_failures=counts["admit-failures"],
            completed=counts["completed"],
            timed_out=counts["timed-out"],
            shed=counts["shed"],
            degraded=counts["degraded"],
            requeued=counts["requeued"],
            drain_faults=counts["drain-faults"],
            queue_depths=self._queue.depths(),
            in_flight=in_flight,
            healthy_workers=len(self.pool.healthy_workers()),
            n_workers=self.pool.n_workers,
            ewma_service_ms=ewma,
            admission_ms=_summary(self._admission_hist),
            queue_wait_ms={
                name: _summary(hist)
                for name, hist in self._queue_wait_hist.items()
            },
            latency_ms={
                name: _summary(hist)
                for name, hist in self._latency_hist.items()
            },
        )
