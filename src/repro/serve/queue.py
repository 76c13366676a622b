"""The bounded, latency-class-aware request queue (DESIGN.md §14).

One structure owns the three load-control decisions:

* **Admission** (:meth:`RequestQueue.offer`) — a request is refused with
  a typed :class:`~repro.errors.ServeRejected` (carrying a
  ``retry_after_ms`` hint) when its class's queue is full, or when the
  estimated backlog *at its priority or above* already exceeds its
  class deadline.  The estimate comes from the server's service-time
  EWMA: ``(running + queued_at_or_above) × ewma / workers`` — admitting
  a request that provably cannot meet its SLA only wastes the engine
  time that requests with a chance still need.
* **Shedding** (inside :meth:`offer`) — when total depth hits the
  server's capacity, an arriving higher-priority request evicts the
  *oldest, lowest-priority* queued ticket instead of being refused.
  The evicted ticket terminates ``shed`` with a retry hint; batch work
  is therefore shed first, and interactive work is never shed to make
  room for batch.
* **Dispatch order** (:meth:`take`) — strict priority, FIFO within a
  class.  Expiry is *not* checked here: the worker checks the deadline
  at dispatch so the queue stays a pure container.

Thread-safe around one condition variable; no busy-waiting.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ServeRejected
from repro.serve.request import Ticket
from repro.serve.sla import SLAClass


class RequestQueue:
    """Bounded per-class FIFO queues behind one condition variable.

    ``capacity`` bounds the *total* queued depth across classes (each
    class's ``queue_limit`` bounds it individually).  ``estimator`` maps
    a number of requests ahead to estimated wait in milliseconds; the
    server wires its EWMA in.  ``on_shed`` receives evicted tickets —
    the server resolves them ``shed`` so the queue never touches the
    terminal ledger itself.
    """

    def __init__(
        self,
        classes: Dict[str, SLAClass],
        capacity: int,
        *,
        estimator: Callable[[int], float],
        on_shed: Callable[[Ticket, float], None],
    ):
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        self.classes = classes
        self.capacity = capacity
        self._estimator = estimator
        self._on_shed = on_shed
        #: Class names in dispatch order: highest priority first.
        self._order: List[str] = [
            sla.name
            for sla in sorted(
                classes.values(), key=lambda c: -c.priority
            )
        ]
        self._queues: Dict[str, Deque[Ticket]] = {
            name: deque() for name in classes
        }
        self._condition = threading.Condition()
        self._closed = False

    # -- introspection ---------------------------------------------------
    def depth(self, sla: Optional[str] = None) -> int:
        """Queued tickets of one class, or of all classes."""
        with self._condition:
            if sla is not None:
                return len(self._queues[sla])
            return sum(len(q) for q in self._queues.values())

    def depths(self) -> Dict[str, int]:
        """Point-in-time per-class depth gauge."""
        with self._condition:
            return {name: len(q) for name, q in self._queues.items()}

    # -- admission -------------------------------------------------------
    def _depth_at_or_above(self, priority: int) -> int:
        return sum(
            len(self._queues[name])
            for name in self._order
            if self.classes[name].priority >= priority
        )

    def offer(self, ticket: Ticket, running: int) -> None:
        """Admit ``ticket`` or raise :class:`ServeRejected`.

        ``running`` is the number of requests currently executing —
        they are ahead of this ticket regardless of class, so they
        count into the backlog estimate.  May evict (shed) older
        lower-priority tickets to stay within total capacity.
        """
        sla = self.classes[ticket.sla]
        with self._condition:
            if self._closed:
                raise ServeRejected(
                    "server is draining; not accepting new requests",
                    retry_after_ms=self._estimator(1),
                    reason="closing",
                    sla=sla.name,
                )
            queue = self._queues[sla.name]
            if len(queue) >= sla.queue_limit:
                raise ServeRejected(
                    f"{sla.name} queue is full "
                    f"({len(queue)}/{sla.queue_limit})",
                    retry_after_ms=self._estimator(len(queue)),
                    reason="queue-full",
                    sla=sla.name,
                )
            ahead = running + self._depth_at_or_above(sla.priority)
            estimated_wait = self._estimator(ahead)
            if estimated_wait >= sla.deadline_ms:
                raise ServeRejected(
                    f"estimated backlog {estimated_wait:.0f}ms exceeds the "
                    f"{sla.name} deadline of {sla.deadline_ms:g}ms",
                    retry_after_ms=estimated_wait - sla.deadline_ms
                    + self._estimator(1),
                    reason="backlog",
                    sla=sla.name,
                )
            shed: List[Ticket] = []
            while (
                sum(len(q) for q in self._queues.values()) >= self.capacity
            ):
                victim = self._oldest_below(sla.priority)
                if victim is None:
                    raise ServeRejected(
                        f"queue at capacity ({self.capacity}) with no "
                        f"lower-priority work to shed",
                        retry_after_ms=self._estimator(1),
                        reason="queue-full",
                        sla=sla.name,
                    )
                shed.append(victim)
            queue.append(ticket)
            self._condition.notify()
        # Outside the lock: shedding resolves tickets (client callbacks).
        for victim in shed:
            self._on_shed(victim, self._estimator(1))

    def _oldest_below(self, priority: int) -> Optional[Ticket]:
        """Pop the oldest queued ticket of the lowest class below
        ``priority`` (shedding order), or None when nothing qualifies."""
        for name in reversed(self._order):  # lowest priority first
            if self.classes[name].priority >= priority:
                break
            queue = self._queues[name]
            if queue:
                return queue.popleft()
        return None

    # -- dispatch --------------------------------------------------------
    def take(self, timeout: float) -> Optional[Ticket]:
        """The next ticket in strict priority order, or None on timeout."""
        with self._condition:
            if not self._condition.wait_for(self._any_queued, timeout):
                return None
            for name in self._order:
                queue = self._queues[name]
                if queue:
                    return queue.popleft()
        return None  # pragma: no cover - wait_for guarantees a ticket

    def _any_queued(self) -> bool:
        return any(self._queues.values())

    def requeue(self, ticket: Ticket) -> None:
        """Return a ticket to the *front* of its class (a failed attempt
        retrying: the ticket keeps its queue position, and the next free
        worker takes it)."""
        with self._condition:
            self._queues[ticket.sla].appendleft(ticket)
            self._condition.notify()

    # -- shutdown --------------------------------------------------------
    def close(self) -> None:
        """Stop admitting; queued work keeps draining through ``take``."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def drain_remaining(self) -> List[Ticket]:
        """Remove and return every still-queued ticket (drain timeout)."""
        with self._condition:
            leftovers: List[Ticket] = []
            for name in self._order:
                queue = self._queues[name]
                leftovers.extend(queue)
                queue.clear()
            return leftovers
