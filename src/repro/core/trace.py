"""Per-query tracing and the process counter registry (DESIGN.md §10).

The paper's experimental story (§5, Tables 5–6, Figure 2) attributes
retrieval cost to individual operators — atom scoring vs. list algebra
vs. ranking — and this module is where that attribution lives:

* :class:`TraceRecorder` / :class:`Span` — hierarchical per-query trace
  spans (query → shard → video → subformula → atom-sweep / list-op /
  top-k) with wall-clock, call counts, counter deltas and events
  attached per span.  The span tree is the one source of timing: a
  span's stage is a function of its kind (:data:`KIND_TO_STAGE`), and
  :meth:`Span.stage_totals` is the per-stage rollup.
  The recorder is installed in a thread-local by :func:`recording`, so
  concurrent requests on server worker threads keep separate trees.
* :class:`MetricsRegistry` — the thread-safe home of the process-wide
  event counters (always on).  Callers use the one instance,
  :data:`METRICS`, directly; the counter names are the constants below.
  All mutation happens in place under one lock, so a ``reset()`` racing
  a worker thread can never strand updates in a discarded dict, and
  :meth:`~MetricsRegistry.drain` snapshots-and-clears atomically (counts
  are conserved across drains by construction).
* :class:`Histogram` — a bounded latency histogram with p50/p95/p99;
  the server keeps its serve latencies in these and reports them in
  ``ServeStats``.

When no recorder is installed every span site costs one thread-local
attribute read and returns a shared null context, building no
:class:`Span` (``tests/core/test_trace.py`` counts them).

Imports nothing from the package, so the engine, the picture layer and
the store can all import it without cycles.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
)

__all__ = [
    "ATOM_SCORING",
    "LIST_ALGEBRA",
    "TOP_K",
    "KIND_QUERY",
    "KIND_SHARD",
    "KIND_VIDEO",
    "KIND_EVALUATE",
    "KIND_SUBFORMULA",
    "KIND_ATOM_SWEEP",
    "KIND_LIST_OP",
    "KIND_TOPK",
    "KIND_TO_STAGE",
    "StageTotal",
    "HistogramSummary",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "SpanEvent",
    "Span",
    "TraceRecorder",
    "current",
    "current_span",
    "recording",
    "span",
    "event",
    "bump",
    "annotate",
    "render_text",
]

#: Canonical stage names used across the engine: evaluation time splits
#: into scoring atoms in the picture layer, combining similarity
#: lists/tables in the engine, and ranking in top-k.
ATOM_SCORING = "atom-scoring"
LIST_ALGEBRA = "list-algebra"
TOP_K = "top-k"

#: Canonical event-counter names of the resilience layer.  Counters are
#: always on: they record rare control-flow events (fallbacks, budget
#: overruns, injected faults), so the bookkeeping cost is paid only when
#: something already went wrong.
ATOM_FALLBACK = "atom-fallback"
BUDGET_EXCEEDED = "budget-exceeded"
FAULT_INJECTED = "fault-injected"

#: Canonical event-counter names of the durable store (DESIGN.md §9).
#: Every recovery action the store takes is surfaced here, so an
#: operator can tell "loaded clean" from "loaded after quarantining a
#: rotten artifact and falling back one snapshot".
STORE_SNAPSHOT_SAVED = "store-snapshot-saved"
STORE_SNAPSHOT_LOADED = "store-snapshot-loaded"
STORE_ARTIFACT_QUARANTINED = "store-artifact-quarantined"
STORE_SNAPSHOT_FALLBACK = "store-snapshot-fallback"
STORE_MANIFEST_RECOVERED = "store-manifest-recovered"

#: Canonical event-counter names of the sharded corpus (DESIGN.md §12).
SHARD_LOADED = "shard-loaded"
SHARD_FAILED = "shard-failed"
SHARD_LOAD_RETRIED = "shard-load-retried"

#: Canonical event-counter names of the serving layer (DESIGN.md §14).
#: The first six are the request ledger — every admitted request bumps
#: exactly one of completed/timed-out/shed, which is the conservation
#: law the chaos suite asserts.
SERVE_ADMITTED = "serve-admitted"
SERVE_REJECTED = "serve-rejected"
SERVE_COMPLETED = "serve-completed"
SERVE_TIMED_OUT = "serve-timed-out"
SERVE_SHED = "serve-shed"
SERVE_DEGRADED = "serve-degraded"
SERVE_REQUEUED = "serve-requeued"

#: Canonical event-counter names of the streaming-ingest layer
#: (DESIGN.md §15).  The append/commit pair is the durability ledger
#: (records written vs. records made durable); the replay/truncate/
#: quarantine trio surfaces every recovery action, mirroring the store's
#: counters above.
WAL_RECORD_APPENDED = "wal-record-appended"
WAL_COMMITTED = "wal-committed"
WAL_RECORD_REPLAYED = "wal-record-replayed"
WAL_TAIL_TRUNCATED = "wal-tail-truncated"
WAL_RECORD_QUARANTINED = "wal-record-quarantined"
INGEST_CHECKPOINT = "ingest-checkpoint"
INDEX_APPENDED = "index-appended"

#: Canonical event-counter name of the analyzer's signature stage
#: (DESIGN.md §16): a shot whose content-signature build failed and was
#: annotated signature-less (annotation-only metadata) instead.
SIGNATURE_DEGRADED = "signature-degraded"

#: Span kinds.  A span's kind says which layer emitted it; the
#: :data:`KIND_TO_STAGE` map says which stage (if any) its duration is
#: attributed to.
KIND_SERVE = "serve"
KIND_QUERY = "query"
KIND_SHARD = "shard"
KIND_VIDEO = "video"
KIND_EVALUATE = "evaluate"
KIND_SUBFORMULA = "subformula"
KIND_ATOM_SWEEP = "atom-sweep"
KIND_LIST_OP = "list-op"
KIND_TOPK = "top-k"

#: Which stage a span kind's wall-clock rolls up into.  Only the three
#: leaf kinds map — container spans (query/video/subformula) overlap
#: their children and must not be double-counted.
KIND_TO_STAGE = {
    KIND_ATOM_SWEEP: ATOM_SCORING,
    KIND_LIST_OP: LIST_ALGEBRA,
    KIND_TOPK: TOP_K,
}


@dataclass
class StageTotal:
    """Summed wall-clock seconds and span count of one stage."""

    seconds: float = 0.0
    calls: int = 0


@dataclass(frozen=True)
class HistogramSummary:
    """An immutable percentile summary of one latency histogram."""

    count: int
    total: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


#: Raw samples kept per histogram before deterministic decimation.
_HISTOGRAM_CAP = 4096


class Histogram:
    """A latency histogram: exact count/total/min/max, sampled percentiles.

    Stores raw observations up to :data:`_HISTOGRAM_CAP`; beyond that it
    deterministically decimates (keeps every other stored sample and
    doubles the sampling stride), so memory stays bounded while the
    percentile estimate remains spread over the whole observation
    stream.  Not itself thread-safe — its owner serialises access (the
    server observes and summarises under its own lock).
    """

    __slots__ = ("count", "total", "minimum", "maximum", "_values", "_stride", "_pending")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._values: List[float] = []
        self._stride = 1
        self._pending = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self._pending += 1
        if self._pending >= self._stride:
            self._pending = 0
            self._values.append(value)
            if len(self._values) >= _HISTOGRAM_CAP:
                self._values = self._values[::2]
                self._stride *= 2

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]) over the samples."""
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        rank = max(0, min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def summary(self) -> HistogramSummary:
        return HistogramSummary(
            count=self.count,
            total=self.total,
            minimum=self.minimum if self.count else 0.0,
            maximum=self.maximum if self.count else 0.0,
            p50=self.percentile(50),
            p95=self.percentile(95),
            p99=self.percentile(99),
        )


class MetricsRegistry:
    """Thread-safe, always-on event counters.

    Counters record rare control-flow events whose bookkeeping cost is
    paid only when something already went wrong.  Every mutation happens
    **in place** under ``_lock`` — ``reset()`` clears the live dict
    rather than rebinding it, so a worker thread mid-update can never
    write into a discarded dict and lose its update.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}

    def reset(self) -> None:
        """Clear every counter (in place, locked)."""
        with self._lock:
            self._counters.clear()

    def count(self, name: str, n: int = 1) -> None:
        """Bump an event counter (thread-safe, always on).

        The delta is also attached to the innermost active trace span of
        the calling thread, so per-span counter deltas come for free at
        every ``METRICS.count`` site.
        """
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n
        bump(name, n)

    def counters(self) -> Dict[str, int]:
        """Snapshot of the event counters (a copy, safe to mutate)."""
        with self._lock:
            return dict(self._counters)

    def drain(self) -> Dict[str, int]:
        """Atomically snapshot *and clear* the counters.

        The snapshot and the clear happen under one lock acquisition:
        every concurrent bump lands either wholly before the drain
        (visible in the returned snapshot) or wholly after it (visible
        in the next one) — never lost.  This is the conservation
        property the reset-race regression suite hammers.
        """
        with self._lock:
            drained = dict(self._counters)
            self._counters.clear()
            return drained


#: The process-wide registry.
METRICS = MetricsRegistry()


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
@dataclass
class SpanEvent:
    """A point-in-time annotation attached to a span (fallback engaged,
    shard load retried, snapshot quarantined, ...)."""

    name: str
    detail: str = ""
    #: Seconds since the recorder's epoch — a global ordering key.
    at: float = 0.0


class Span:
    """One timed node of a query's trace tree.

    ``seconds`` is wall-clock of the span body; ``counters`` holds the
    event-counter deltas emitted while this span was the innermost one on
    its thread; ``events`` the point annotations.  Aggregations
    (:meth:`total_counters`, :meth:`stage_totals`) roll up the subtree.
    """

    __slots__ = (
        "kind",
        "name",
        "attrs",
        "start",
        "seconds",
        "counters",
        "events",
        "children",
        "thread",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        attrs: Optional[Dict[str, Any]] = None,
        start: float = 0.0,
        thread: int = 0,
    ):
        self.kind = kind
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs or {})
        self.start = start
        self.seconds = 0.0
        self.counters: Dict[str, int] = {}
        self.events: List[SpanEvent] = []
        self.children: List["Span"] = []
        self.thread = thread

    # -- aggregation -----------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """This span, then every descendant (pre-order)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def total_counters(self) -> Dict[str, int]:
        """Counter deltas summed over the whole subtree."""
        totals: Dict[str, int] = {}
        for node in self.walk():
            for name, value in node.counters.items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def all_events(self) -> List[Tuple["Span", SpanEvent]]:
        """Every event of the subtree with its owning span, in time order."""
        found = [
            (node, event) for node in self.walk() for event in node.events
        ]
        found.sort(key=lambda pair: pair[1].at)
        return found

    def stage_totals(self) -> Dict[str, StageTotal]:
        """Per-stage rollup of the subtree's leaf span durations.

        Only kinds in :data:`KIND_TO_STAGE` contribute — container spans
        overlap their children and would double-count.  Each stage's
        seconds are the exact sum of its spans' durations and its calls
        their number.
        """
        totals: Dict[str, StageTotal] = {}
        for node in self.walk():
            stage = KIND_TO_STAGE.get(node.kind)
            if stage is None:
                continue
            total = totals.setdefault(stage, StageTotal())
            total.seconds += node.seconds
            total.calls += 1
        return totals

    # -- export ----------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict of the subtree (for ``BENCH_*.json`` export)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "thread": self.thread,
            "attrs": {key: _json_safe(value) for key, value in self.attrs.items()},
            "counters": dict(self.counters),
            "events": [
                {"name": event.name, "detail": event.detail, "at": event.at}
                for event in self.events
            ],
            "children": [
                child.to_dict()
                for child in sorted(self.children, key=lambda s: s.start)
            ],
        }

    def __repr__(self) -> str:
        return (
            f"Span({self.kind}:{self.name!r}, {self.seconds * 1000:.2f}ms, "
            f"{len(self.children)} children)"
        )


def _json_safe(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


class TraceRecorder:
    """Thread-safe collector of span trees for one or more queries.

    Spans attach to their parent at close; the parent is whatever span
    was innermost on the opening thread, so the tree mirrors the dynamic
    call structure.  All mutation (child attachment, events, counter
    deltas on shared parent spans) is serialised on one lock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        #: Completed top-level spans, in completion order.
        self.roots: List[Span] = []
        #: Events emitted with no span open (rare; kept, not dropped).
        self.orphan_events: List[SpanEvent] = []

    def elapsed(self) -> float:
        """Seconds since the recorder's epoch."""
        return self._clock() - self._epoch

    @contextmanager
    def span(self, kind: str, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a child span of this thread's innermost span.

        The span object is yielded so callers can set attributes while
        the body runs; duration and tree attachment happen at exit, even
        when the body raises (the error's type is recorded in
        ``attrs["error"]``).
        """
        parent = getattr(_tls, "span", None)
        previous_recorder = getattr(_tls, "recorder", None)
        opened = Span(
            kind,
            name,
            attrs=attrs,
            start=self.elapsed(),
            thread=threading.get_ident(),
        )
        _tls.recorder = self
        _tls.span = opened
        started = self._clock()
        try:
            yield opened
        except BaseException as exc:
            opened.attrs.setdefault("error", type(exc).__name__)
            raise
        finally:
            opened.seconds = self._clock() - started
            _tls.span = parent
            _tls.recorder = previous_recorder
            with self._lock:
                if parent is not None:
                    parent.children.append(opened)
                else:
                    self.roots.append(opened)

    def event(self, name: str, detail: str = "") -> SpanEvent:
        """Attach a point event to this thread's innermost span."""
        emitted = SpanEvent(name, detail, at=self.elapsed())
        target = getattr(_tls, "span", None)
        with self._lock:
            if target is not None:
                target.events.append(emitted)
            else:
                self.orphan_events.append(emitted)
        return emitted


# ---------------------------------------------------------------------------
# thread-local activation
# ---------------------------------------------------------------------------
_tls = threading.local()


def current() -> Optional[TraceRecorder]:
    """The recorder active on this thread (None = tracing off).

    This is the one-attribute-read check every span site performs on the
    disabled path.
    """
    return getattr(_tls, "recorder", None)


def current_span() -> Optional[Span]:
    """This thread's innermost open span, if any."""
    return getattr(_tls, "span", None)


@contextmanager
def recording(
    recorder: Optional[TraceRecorder] = None,
) -> Iterator[TraceRecorder]:
    """Install a recorder (a fresh one by default) on this thread."""
    active = recorder if recorder is not None else TraceRecorder()
    previous_recorder = getattr(_tls, "recorder", None)
    previous_span = getattr(_tls, "span", None)
    _tls.recorder = active
    _tls.span = None
    try:
        yield active
    finally:
        _tls.recorder = previous_recorder
        _tls.span = previous_span


# ---------------------------------------------------------------------------
# module-level emission helpers (fast no-ops when tracing is off)
# ---------------------------------------------------------------------------
class _NullContext:
    """A reusable, re-entrant do-nothing context manager."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NULL = _NullContext()


def span(kind: str, name: str, **attrs: Any):
    """A span context when tracing is on, a shared no-op otherwise."""
    recorder = getattr(_tls, "recorder", None)
    if recorder is None:
        return _NULL
    return recorder.span(kind, name, **attrs)


def event(name: str, detail: str = "") -> Optional[SpanEvent]:
    """Emit a point event onto the current span (no-op when tracing off)."""
    recorder = getattr(_tls, "recorder", None)
    if recorder is None:
        return None
    return recorder.event(name, detail)


def bump(name: str, n: int = 1) -> None:
    """Attach a counter delta to the current span (no-op when tracing off)."""
    opened = getattr(_tls, "span", None)
    if opened is None:
        return
    recorder = _tls.recorder
    with recorder._lock:
        opened.counters[name] = opened.counters.get(name, 0) + n


def annotate(**attrs: Any) -> None:
    """Set attributes on the current span (no-op when tracing off)."""
    opened = getattr(_tls, "span", None)
    if opened is None:
        return
    recorder = _tls.recorder
    with recorder._lock:
        opened.attrs.update(attrs)


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def _format_attrs(node: Span) -> str:
    parts = [f"{key}={_json_safe(value)}" for key, value in node.attrs.items()]
    parts.extend(f"{key}+{value}" for key, value in node.counters.items())
    return f"  [{', '.join(parts)}]" if parts else ""


def render_text(root: Span, indent: int = 0) -> str:
    """The span tree as an indented text profile (the CLI ``trace`` view)."""
    pad = "  " * indent
    lines = [
        f"{pad}{root.name}  ({root.kind})  "
        f"{root.seconds * 1000:.2f} ms{_format_attrs(root)}"
    ]
    for emitted in root.events:
        detail = f"  {emitted.detail}" if emitted.detail else ""
        lines.append(
            f"{pad}  ! {emitted.name} @ {emitted.at * 1000:.1f} ms{detail}"
        )
    for child in sorted(root.children, key=lambda node: node.start):
        lines.append(render_text(child, indent + 1))
    return "\n".join(lines)
