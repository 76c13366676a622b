"""Latency classes and SLA-derived query budgets (DESIGN.md §14).

A serving request names one of a small set of *latency classes*; each
class carries the whole contract the server enforces for it:

* ``deadline_ms`` — the end-to-end SLA: submit → terminal state.  The
  time a request spends queued is charged against it, so the
  :class:`~repro.core.resilience.QueryBudget` a worker finally runs
  under is ``deadline_ms`` *minus* queue wait — a request that waited
  180ms of a 200ms SLA executes under a 20ms budget, and one that
  waited past its whole deadline terminates ``timed-out`` without
  touching an engine at all.
* ``max_steps`` — the cooperative step ceiling per request; a sharded
  corpus runs every shard under the request's one budget, so the
  ceiling bounds the whole query.
* ``queue_limit`` — how many requests of this class may wait at once;
  the class's admission-control backstop.
* ``priority`` — dispatch and shedding rank.  Higher priorities are
  dispatched first and shed last; under capacity pressure the server
  evicts the *oldest, lowest-priority* queued work (batch before
  standard before interactive).

The three default classes model the obvious service tiers: a human
waiting at a console (``interactive``), an application call
(``standard``), and offline re-ranking (``batch``).  Deadlines scale
with ``default_classes(scale=...)`` so tests and benchmarks can shrink
or grow the whole ladder against a measured service time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro.core.resilience import QueryBudget
from repro.errors import BudgetExceededError, ServeError

#: The default latency-class names, in shedding order.
BATCH = "batch"
STANDARD = "standard"
INTERACTIVE = "interactive"


@dataclass(frozen=True)
class SLAClass:
    """One latency class: its deadline, budget, bounds, and rank."""

    name: str
    deadline_ms: float
    max_steps: Optional[int] = None
    queue_limit: int = 64
    priority: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("an SLA class needs a non-empty name")
        if self.deadline_ms <= 0:
            raise ServeError(
                f"SLA class {self.name!r}: deadline must be positive, "
                f"got {self.deadline_ms}ms"
            )
        if self.max_steps is not None and self.max_steps <= 0:
            raise ServeError(
                f"SLA class {self.name!r}: step ceiling must be positive, "
                f"got {self.max_steps}"
            )
        if self.queue_limit < 1:
            raise ServeError(
                f"SLA class {self.name!r}: queue limit must be >= 1, "
                f"got {self.queue_limit}"
            )

    def budget(
        self,
        queued_ms: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> QueryBudget:
        """The execution budget left after ``queued_ms`` in the queue.

        Raises :class:`~repro.errors.BudgetExceededError` when the queue
        wait already consumed the whole deadline — the caller resolves
        the request ``timed-out`` instead of dispatching it.
        """
        remaining = self.deadline_ms - queued_ms
        if remaining <= 0:
            raise BudgetExceededError(
                f"SLA class {self.name!r}: {queued_ms:.1f}ms queued "
                f"consumed the whole {self.deadline_ms:g}ms deadline",
                site="serve-admit",
                elapsed_ms=queued_ms,
            )
        return QueryBudget(
            deadline_ms=remaining, max_steps=self.max_steps, clock=clock
        )


def default_classes(scale: float = 1.0) -> Dict[str, SLAClass]:
    """The three default tiers, deadlines multiplied by ``scale``.

    ``scale`` lets a benchmark anchor the ladder to a measured service
    time (e.g. ``scale = service_ms / 10`` makes the interactive
    deadline 50× one query) and lets tests shrink every deadline to
    milliseconds without re-deriving the ladder's shape.
    """
    if scale <= 0:
        raise ServeError(f"SLA scale must be positive, got {scale}")
    classes = (
        SLAClass(
            INTERACTIVE,
            deadline_ms=500.0 * scale,
            queue_limit=32,
            priority=2,
        ),
        SLAClass(
            STANDARD,
            deadline_ms=2_000.0 * scale,
            queue_limit=64,
            priority=1,
        ),
        SLAClass(
            BATCH,
            deadline_ms=10_000.0 * scale,
            queue_limit=128,
            priority=0,
        ),
    )
    return {sla.name: sla for sla in classes}


def validate_classes(classes: Dict[str, SLAClass]) -> Dict[str, SLAClass]:
    """Check a class registry: names map to themselves, unique priorities.

    Duplicate priorities would make dispatch and shedding order depend
    on dict iteration order — rejected up front rather than debugged
    under load.
    """
    if not classes:
        raise ServeError("a server needs at least one SLA class")
    priorities = set()
    for key, sla in classes.items():
        if key != sla.name:
            raise ServeError(
                f"SLA registry key {key!r} does not match class name "
                f"{sla.name!r}"
            )
        if sla.priority in priorities:
            raise ServeError(
                f"duplicate SLA priority {sla.priority} (class {key!r}); "
                "dispatch order must be total"
            )
        priorities.add(sla.priority)
    return classes


def scaled(sla: SLAClass, scale: float) -> SLAClass:
    """A copy of ``sla`` with its deadline multiplied by ``scale``."""
    if scale <= 0:
        raise ServeError(f"SLA scale must be positive, got {scale}")
    return replace(sla, deadline_ms=sla.deadline_ms * scale)
