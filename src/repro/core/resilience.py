"""Fault-tolerant query execution: budgets, breakers, degraded fallbacks.

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
  breaker that takes a repeatedly failing degraded path out of rotation
  and probes it again after a cooldown.
* :class:`ResiliencePolicy` / :class:`ResilienceContext` — how a caller
  opts into lenient (best-effort, partial-result) execution and the
  degraded fallback chain; the context travels in a thread-local so the
  picture substrate and the top-k worker threads see the same budget,
  policy and breakers without signature plumbing.
* :func:`evaluate_with_fallback` — the degraded chain for one video:
  primary engine → naive-atom engine (the index-free oracle
  configuration) → SQL baseline (type (1) formulas over registered
  atomic lists only).  Every hop is recorded through the always-on event
  counters of :mod:`repro.core.trace`.
* Fault sites — named hook points (:data:`FAULT_SITES`) where the
  deterministic injector of :mod:`repro.testing.faults` can raise,
  delay, or corrupt values.  With no hook installed each site costs one
  global ``None`` check.

Lives under :mod:`repro.core` next to :mod:`repro.core.trace` so
the picture layer and the list algebra can import it without cycles; the
engine/SQL imports inside :func:`evaluate_with_fallback` are deferred
for the same reason.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, Optional, TYPE_CHECKING

from repro.core import trace
from repro.errors import BudgetExceededError, CircuitOpenError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.engine import RetrievalEngine
    from repro.core.simlist import SimilarityList
    from repro.htl import ast
    from repro.model.database import VideoDatabase
    from repro.model.hierarchy import Video


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
#: database at scatter time.  A raise here models a dead or corrupt
#: shard — lenient queries degrade to the surviving shards, strict
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
#: replay path (``corrupt`` flips bits in committed bytes), and the
#: delta-manifest replace that is a checkpoint's commit point.
SITE_WAL_APPEND = "wal-append"
SITE_WAL_FSYNC = "wal-fsync"
SITE_WAL_REPLAY = "wal-replay"
SITE_COMPACT_COMMIT = "compact-commit"
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
    SITE_COMPACT_COMMIT,
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
    active budget costs an integer add and compare per charge — measured
    at under 5% on the sparse-5k atom-table benchmark
    (``benchmarks/bench_chaos_recovery.py``).

    ``clock`` is injectable for deterministic tests and must be monotone.
    A budget may be shared across threads: the step counter is duplicated
    per thread only in the sense that charges race benignly (the count is
    advisory, the deadline is authoritative).
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

    Thread-safe; breakers are shared across the top-k worker pool.
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
# policy and context
# ---------------------------------------------------------------------------
STRICT = "strict"
LENIENT = "lenient"


@dataclass(frozen=True)
class ResiliencePolicy:
    """How much degradation a query tolerates.

    ``mode`` — :data:`STRICT` propagates the first per-video failure out
    of ``top_k_across_videos``; :data:`LENIENT` records it in the result's
    per-video outcomes and keeps ranking the rest (``partial=True``).
    ``atom_fallback`` — a failing index-driven atom table is rebuilt with
    the naive oracle scorer for that call.  ``engine_fallback`` — a
    failing whole-video evaluation is retried on the naive-atom engine
    and, for type (1) formulas over registered atomic lists, on the SQL
    baseline.  The breaker knobs govern every breaker the context mints.
    """

    mode: str = STRICT
    atom_fallback: bool = True
    engine_fallback: bool = True
    breaker_threshold: int = 3
    breaker_cooldown: int = 8

    def __post_init__(self) -> None:
        if self.mode not in (STRICT, LENIENT):
            raise ValueError(f"unknown resilience mode {self.mode!r}")

    @property
    def lenient(self) -> bool:
        return self.mode == LENIENT


class ResilienceContext:
    """One query's budget, policy, and breaker registry.

    Installed in a thread-local by :func:`activate`; worker threads
    re-install the submitting thread's context so the whole fan-out sees
    one budget and one set of breakers.
    """

    __slots__ = ("policy", "budget", "_breakers", "_lock")

    def __init__(
        self,
        policy: Optional[ResiliencePolicy] = None,
        budget: Optional[QueryBudget] = None,
    ):
        self.policy = policy or ResiliencePolicy()
        self.budget = budget
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def breaker(self, name: str) -> CircuitBreaker:
        """The named breaker, minted on first use with the policy's knobs."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    name,
                    failure_threshold=self.policy.breaker_threshold,
                    cooldown=self.policy.breaker_cooldown,
                )
            return breaker


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
    budget: Optional[QueryBudget] = None,
    policy: Optional[ResiliencePolicy] = None,
) -> Iterator[ResilienceContext]:
    """Convenience: build a context and activate it in one step."""
    context = ResilienceContext(policy=policy, budget=budget)
    with activate(context):
        yield context


# ---------------------------------------------------------------------------
# the degraded fallback chain
# ---------------------------------------------------------------------------
def _is_type1_over_atomics(formula: "ast.Formula") -> bool:
    """True when every leaf is an AtomicRef (the SQL baseline's class)."""
    from repro.htl import ast as _ast
    from repro.htl.classify import FormulaClass, paper_class

    try:
        if paper_class(formula) is not FormulaClass.TYPE1:
            return False
    except Exception:
        return False
    return all(
        not isinstance(node, (_ast.Present, _ast.Compare, _ast.Rel))
        for node in formula.walk()
    )


def _sql_baseline(
    engine: "RetrievalEngine",
    formula: "ast.Formula",
    video: "Video",
    level: int,
    database: "VideoDatabase",
) -> "SimilarityList":
    """Last hop of the chain: re-evaluate on the SQL baseline system.

    Only defined for type (1) formulas whose atomic lists are registered
    for this video and level, under the paper's default inner-join
    configuration (the SQL translation implements exactly that mode);
    anything else raises so the caller surfaces the original failure.
    """
    from repro.core.tables import INNER
    from repro.errors import UnsupportedFormulaError
    from repro.htl import ast as _ast
    from repro.sqlbaseline.system import SQLRetrievalSystem

    if engine.config.join_mode != INNER:
        raise UnsupportedFormulaError(
            "the SQL baseline implements the paper's inner-join mode only"
        )
    if not _is_type1_over_atomics(formula):
        raise UnsupportedFormulaError(
            "the SQL baseline evaluates type (1) formulas over registered "
            "atomic lists only"
        )
    names = {
        node.name for node in formula.walk() if isinstance(node, _ast.AtomicRef)
    }
    lists = {}
    for name in sorted(names):
        sim = database.atomic_list(name, video.name, level)
        if sim is None:
            raise UnsupportedFormulaError(
                f"atomic predicate {name!r} has no similarity list "
                f"registered for video {video.name!r} at level {level}"
            )
        lists[name] = sim
    system = SQLRetrievalSystem(threshold=engine.config.until_threshold)
    system.load_segments(len(video.nodes_at_level(level)))
    for name, sim in lists.items():
        system.load_atomic(name, sim)
    return system.evaluate(formula)


def evaluate_with_fallback(
    engine: "RetrievalEngine",
    formula: "ast.Formula",
    video: "Video",
    level: int,
    database: Optional["VideoDatabase"],
    context: Optional[ResilienceContext] = None,
) -> "SimilarityList":
    """Evaluate one video through the degraded fallback chain.

    Chain: the configured engine (index-driven atoms, with the per-atom
    fallback of the picture layer underneath) → a naive-atom engine (the
    oracle configuration, no cache) → the SQL baseline (type (1) over
    registered atomics only).  :class:`~repro.errors.BudgetExceededError`
    is never absorbed — a blown deadline must abort, not degrade.  When
    every hop fails, the *primary* error propagates; hops are guarded by
    the context's ``engine`` and ``engine-sql`` breakers so a wedged
    fallback path stops being probed.  Every engaged hop bumps the
    matching :mod:`repro.core.trace` counter.
    """
    from repro.core.engine import RetrievalEngine as _Engine

    if context is None:
        context = current()
    try:
        return engine.evaluate_video(
            formula, video, level=level, database=database
        )
    except BudgetExceededError:
        raise
    except Exception as primary:
        if context is None or not context.policy.engine_fallback:
            raise
        breaker = context.breaker("engine")
        if breaker.allow():
            try:
                naive = _Engine(replace(engine.config, naive_atoms=True))
                result = naive.evaluate_video(
                    formula, video, level=level, database=database
                )
                breaker.record_success()
                trace.METRICS.count(trace.ENGINE_FALLBACK)
                trace.event(
                    trace.ENGINE_FALLBACK,
                    f"primary engine failed with {type(primary).__name__}; "
                    "naive-atom engine answered",
                )
                return result
            except BudgetExceededError:
                raise
            except Exception:
                breaker.record_failure()
        else:
            trace.METRICS.count("breaker-engine-refused")
            trace.event(
                "breaker-engine-refused",
                "engine breaker open; skipping the naive-atom hop",
            )
        sql_breaker = context.breaker("engine-sql")
        if database is not None and sql_breaker.allow():
            try:
                result = _sql_baseline(engine, formula, video, level, database)
                sql_breaker.record_success()
                trace.METRICS.count(trace.SQL_FALLBACK)
                trace.event(
                    trace.SQL_FALLBACK,
                    "naive-atom hop unavailable; SQL baseline answered",
                )
                return result
            except BudgetExceededError:
                raise
            except Exception:
                sql_breaker.record_failure()
        raise primary
