"""Fault-tolerant query execution: budgets, breakers, fault sites.

The ROADMAP's north star is a production-scale retrieval service, and a
service cannot afford what the bare engine does today on bad input or bad
luck — run without bound, or surface an arbitrary exception with no
partial answer.  This module is the resilience layer the rest of the
engine threads through (DESIGN.md §8):

* :class:`QueryBudget` — a wall-clock deadline plus a cooperative step
  budget, checked from the hot loops (atom-scoring sweeps, list-algebra
  merges, top-k streaming) via :func:`current_budget`.  Overruns raise
  the typed :class:`~repro.errors.BudgetExceededError`.
* :class:`CircuitBreaker` — a deterministic closed/open/half-open
  breaker that takes a repeatedly failing component (a serving worker,
  a shard load) out of rotation and probes it again after a cooldown.
* :class:`ResilienceContext` — one query's budget and whether it is
  lenient (best-effort, partial-result).  It travels in a thread-local
  so the picture substrate sees the query's budget without signature
  plumbing.  An active context also arms the
  one degraded path: a failing index-driven atom table is rebuilt by the
  naive scan (:meth:`repro.pictures.retrieval.PictureRetrievalSystem.
  similarity_table`), counted as ``atom-fallback``.
* Fault sites — named hook points (:data:`FAULT_SITES`) where the
  deterministic injector of :mod:`repro.testing.faults` can raise,
  delay, or corrupt values.  With no hook installed each site costs one
  global ``None`` check.

Lives under :mod:`repro.core` next to :mod:`repro.core.trace` so
the picture layer and the list algebra can import it without cycles.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.core import trace
from repro.errors import BudgetExceededError, CircuitOpenError


# ---------------------------------------------------------------------------
# fault sites
# ---------------------------------------------------------------------------
#: Registered fault sites — the points where the deterministic injector
#: may interpose.  Each name appears in exactly one production hook.
SITE_INDEX_LOOKUP = "index-lookup"
SITE_ATOM_SCORE = "atom-score"
SITE_LIST_MERGE = "list-merge"
SITE_TOPK_WORKER = "topk-worker"
#: Disk fault sites of :mod:`repro.store` (DESIGN.md §9): the write of a
#: snapshot temp file, the fsync/rename that makes it durable, and every
#: artifact read on the load path.  ``corrupt`` at the read site flips
#: bits in the bytes coming off "disk" — the injector's model of rot.
SITE_STORE_WRITE = "store-write"
SITE_STORE_FSYNC = "store-fsync"
SITE_STORE_READ = "store-read"
#: Shard fault site of :mod:`repro.shard`: the load of one shard's
#: database when a query reaches it.  A raise here models a dead or
#: corrupt shard — lenient queries degrade to the surviving shards, strict
#: queries abort with :class:`~repro.errors.ShardError`.
SITE_SHARD_LOAD = "shard-load"
#: Serving fault sites of :mod:`repro.serve` (DESIGN.md §14): admission
#: control (a raise here refuses the request before it is admitted, so
#: the conservation ledger never sees it), the worker's pre-execution
#: hook (a raise models a wedged engine — the request retries on the
#: pool and finally degrades to a partial result), and the drain loop
#: (a raise mid-shutdown must not leave any admitted request
#: unresolved).
SITE_SERVE_ADMIT = "serve-admit"
SITE_SERVE_WORKER = "serve-worker"
SITE_SERVE_DRAIN = "serve-drain"
#: Ingest fault sites of :mod:`repro.ingest` (DESIGN.md §15): the write
#: of one framed WAL record (``short_write`` here leaves a real torn
#: record on disk), the fsync that makes a batch durable (a raise models
#: a crash before the commit marker moves), every record read on the
#: replay path (``corrupt`` flips bits in committed bytes).  A
#: checkpoint is a store snapshot, faulted at the store's write sites.
SITE_WAL_APPEND = "wal-append"
SITE_WAL_FSYNC = "wal-fsync"
SITE_WAL_REPLAY = "wal-replay"
#: Analyzer fault site of :mod:`repro.analyzer.annotate` (DESIGN.md §16):
#: the construction of one shot's content signature.  A raise here models
#: a failing feature extractor — annotation degrades to signature-less
#: metadata for that shot (query-by-example sees it score 0) instead of
#: aborting the whole analysis.
SITE_SIGNATURE_BUILD = "signature-build"

FAULT_SITES = (
    SITE_INDEX_LOOKUP,
    SITE_ATOM_SCORE,
    SITE_LIST_MERGE,
    SITE_TOPK_WORKER,
    SITE_STORE_WRITE,
    SITE_STORE_FSYNC,
    SITE_STORE_READ,
    SITE_SHARD_LOAD,
    SITE_SERVE_ADMIT,
    SITE_SERVE_WORKER,
    SITE_SERVE_DRAIN,
    SITE_WAL_APPEND,
    SITE_WAL_FSYNC,
    SITE_WAL_REPLAY,
    SITE_SIGNATURE_BUILD,
)

#: The installed fault hook (``None`` in production).  A hook is an object
#: with ``trip(site)`` (may raise or delay) and ``corrupt(site, value)``
#: (returns the possibly-corrupted value); see
#: :class:`repro.testing.faults.FaultInjector`.
_fault_hook: Optional[Any] = None


def set_fault_hook(hook: Optional[Any]) -> Optional[Any]:
    """Install (or clear, with ``None``) the fault hook; returns the old one."""
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    return previous


def fault(site: str) -> None:
    """Production-side fault hook: raises/delays when an injector is active."""
    hook = _fault_hook
    if hook is not None:
        hook.trip(site)


def fault_value(site: str, value: Any) -> Any:
    """Production-side corruption hook: passes ``value`` through the injector."""
    hook = _fault_hook
    if hook is not None:
        return hook.corrupt(site, value)
    return value


def fault_short_write(site: str, data: bytes) -> Optional[bytes]:
    """Production-side short-write hook: a truncated prefix, or ``None``.

    When an injector with a ``short_write`` spec is armed at this site it
    returns a strict prefix of ``data``; the caller is expected to write
    *those* bytes and then fail as if the process died mid-write, leaving
    a genuinely torn record on disk.  ``None`` (the production constant)
    means write normally.
    """
    hook = _fault_hook
    if hook is not None:
        shorten = getattr(hook, "shorten", None)
        if shorten is not None:
            return shorten(site, data)
    return None


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------
class QueryBudget:
    """A cooperative execution budget: wall-clock deadline + step ceiling.

    The hot loops call :meth:`charge` with the amount of work they are
    about to do (entries merged, segments scored, heap pushes).  Steps are
    counted exactly; the clock is consulted only every
    ``check_interval`` steps (and on every :meth:`checkpoint`), so an
    active budget costs an integer add and compare per charge
    (``tests/core/test_resilience.py`` pins the charges, checkpoints and
    clock reads of an idle budget on the benchmark's smoke streams).

    ``clock`` is injectable for deterministic tests and must be monotone.
    One budget belongs to one query, which runs on one thread: every
    video and every shard of the query charges this one object, so
    ``steps`` is the whole query's work.
    """

    __slots__ = (
        "deadline_ms",
        "max_steps",
        "steps",
        "_clock",
        "_started",
        "_deadline_at",
        "_next_check",
        "check_interval",
    )

    def __init__(
        self,
        deadline_ms: Optional[float] = None,
        max_steps: Optional[int] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        check_interval: int = 256,
    ):
        if deadline_ms is not None and deadline_ms <= 0:
            raise BudgetExceededError(
                f"deadline must be positive, got {deadline_ms}ms"
            )
        if max_steps is not None and max_steps <= 0:
            raise BudgetExceededError(
                f"step budget must be positive, got {max_steps}"
            )
        self.deadline_ms = deadline_ms
        self.max_steps = max_steps
        self.steps = 0
        self._clock = clock
        self._started = clock()
        self._deadline_at = (
            self._started + deadline_ms / 1000.0
            if deadline_ms is not None
            else None
        )
        self.check_interval = max(1, int(check_interval))
        self._next_check = self.check_interval

    # ------------------------------------------------------------------
    def elapsed_ms(self) -> float:
        """Wall-clock milliseconds since the budget was created."""
        return (self._clock() - self._started) * 1000.0

    def remaining_ms(self) -> Optional[float]:
        """Milliseconds until the deadline (None without one, floored at 0)."""
        if self._deadline_at is None:
            return None
        return max(0.0, (self._deadline_at - self._clock()) * 1000.0)

    def expired(self) -> bool:
        """True when the deadline has passed or the step ceiling is hit."""
        if self.max_steps is not None and self.steps > self.max_steps:
            return True
        return (
            self._deadline_at is not None
            and self._clock() > self._deadline_at
        )

    # ------------------------------------------------------------------
    def charge(self, n: int = 1, site: str = "") -> None:
        """Consume ``n`` cooperative steps; raise when the budget is gone.

        The deadline clock is read only every ``check_interval`` steps,
        keeping the per-iteration cost of an active budget to an integer
        add and two compares.
        """
        self.steps += n
        if self.max_steps is not None and self.steps > self.max_steps:
            self._overrun(site)
        if self._deadline_at is not None and self.steps >= self._next_check:
            self._next_check = self.steps + self.check_interval
            if self._clock() > self._deadline_at:
                self._overrun(site)

    def checkpoint(self, site: str = "") -> None:
        """Force a deadline check now (used at coarse boundaries)."""
        if self.expired():
            self._overrun(site)

    def _overrun(self, site: str) -> None:
        trace.METRICS.count(trace.BUDGET_EXCEEDED)
        trace.event(
            trace.BUDGET_EXCEEDED,
            f"site={site or '?'} steps={self.steps} "
            f"elapsed={self.elapsed_ms():.1f}ms",
        )
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceededError(
                f"step budget of {self.max_steps} exhausted after "
                f"{self.steps} steps",
                site=site,
                steps=self.steps,
                elapsed_ms=self.elapsed_ms(),
            )
        raise BudgetExceededError(
            f"deadline of {self.deadline_ms:g}ms exceeded after "
            f"{self.elapsed_ms():.1f}ms",
            site=site,
            steps=self.steps,
            elapsed_ms=self.elapsed_ms(),
        )


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """A deterministic circuit breaker over a fallible path.

    After ``failure_threshold`` *consecutive* failures the breaker opens:
    :meth:`allow` refuses the next ``cooldown`` probes outright (the
    caller goes straight to its fallback).  The probe after the cooldown
    runs half-open: one trial call is admitted; success closes the
    breaker, failure re-opens it for another cooldown.  Counted in probe
    calls rather than wall-clock so chaos tests replay identically.

    Thread-safe; a breaker may be probed from several threads.
    """

    __slots__ = (
        "name",
        "failure_threshold",
        "cooldown",
        "_state",
        "_failures",
        "_refusals",
        "_lock",
    )

    def __init__(
        self, name: str, failure_threshold: int = 3, cooldown: int = 8
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._state = CLOSED
        self._failures = 0
        self._refusals = 0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> bool:
        """May the protected path be attempted right now?"""
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                self._refusals += 1
                if self._refusals >= self.cooldown:
                    self._state = HALF_OPEN
                    trace.METRICS.count(f"breaker-{self.name}-half-open")
                    trace.event(
                        f"breaker-{self.name}-half-open",
                        "cooldown elapsed; admitting one trial probe",
                    )
                    return True
                return False
            # Half-open: one trial in flight; refuse concurrent probes.
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state != CLOSED:
                trace.METRICS.count(trace.BREAKER_RECOVERED)
                trace.event(
                    trace.BREAKER_RECOVERED,
                    f"breaker {self.name!r} closed after a successful probe",
                )
            self._state = CLOSED
            self._failures = 0
            self._refusals = 0

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._failures >= self.failure_threshold
            ):
                if self._state != OPEN:
                    trace.METRICS.count(trace.BREAKER_OPENED)
                    trace.event(
                        trace.BREAKER_OPENED,
                        f"breaker {self.name!r} opened after "
                        f"{self._failures} consecutive failures",
                    )
                self._state = OPEN
                self._refusals = 0

    def guard(self) -> None:
        """Raise :class:`~repro.errors.CircuitOpenError` unless allowed."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit breaker {self.name!r} is open", breaker=self.name
            )


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------
class ResilienceContext:
    """One query's budget and failure mode.

    ``lenient`` — a per-video or per-shard failure is recorded in the
    result's outcomes and the rest still ranks (``partial=True``)
    instead of propagating out of the ranking loop
    (:meth:`repro.shard.ShardedCorpus.top_k`).  Any active context also
    arms the one degraded path: a failing index-driven atom table is
    rebuilt by the naive scan (DESIGN.md §8).

    Installed in a thread-local by :func:`activate`, so concurrent
    requests on server worker threads each see their own.
    """

    __slots__ = ("budget", "lenient")

    def __init__(
        self, budget: Optional[QueryBudget] = None, lenient: bool = False
    ):
        self.budget = budget
        self.lenient = lenient


_tls = threading.local()


def current() -> Optional[ResilienceContext]:
    """The active context of this thread (None outside resilient scopes)."""
    return getattr(_tls, "context", None)


def current_budget() -> Optional[QueryBudget]:
    """The active budget of this thread, if any — the hot-loop accessor."""
    context = getattr(_tls, "context", None)
    return context.budget if context is not None else None


@contextmanager
def activate(context: Optional[ResilienceContext]) -> Iterator[None]:
    """Install ``context`` as this thread's active resilience context."""
    previous = getattr(_tls, "context", None)
    _tls.context = context
    try:
        yield
    finally:
        _tls.context = previous


@contextmanager
def scope(
    budget: Optional[QueryBudget] = None, lenient: bool = False
) -> Iterator[ResilienceContext]:
    """Convenience: build a context and activate it in one step."""
    context = ResilienceContext(budget, lenient)
    with activate(context):
        yield context
