"""Deterministic fault injection for the resilience layer (DESIGN.md §8).

The production code of :mod:`repro.core.resilience` exposes named fault
sites — index lookups, atom scoring, list merges, top-k workers — that
cost one global ``None`` check when no injector is installed.  This
module is the other half: a seeded :class:`FaultInjector` that decides,
reproducibly, at which visits to a site to raise a typed error, sleep, or
hand back a corrupted similarity list.

Chaos tests drive it through the :func:`inject` context manager::

    with inject(FaultSpec(resilience.SITE_ATOM_SCORE), seed=1997) as chaos:
        result = top_k_across_videos(engine, query, database, k=5,
                                     lenient=True)
    assert chaos.injected  # the run really was perturbed

Determinism: the injector draws from one ``random.Random(seed)`` in site
visit order, and a query visits its sites in one fixed order on one
thread, so a run replays exactly under the same seed: the same ranking,
the same outcome ledger and the same ``visits``.  Only concurrent
requests (server workers sharing one injector) interleave their visits.

Corruption never fabricates a plausible list: :func:`corrupt_similarity_list`
always builds an *invariant-violating* one through the trusted
:meth:`~repro.core.simlist.SimilarityList.from_columns`, which scans
nothing.  The production code checks lists where they enter the list
algebra: an atom-table row is validated as it leaves the picture layer
(the ``atom-score`` site), and a final per-video list before the ranking
loop (:meth:`repro.shard.ShardedCorpus.top_k`) streams it into the query
heap (the ``topk-worker`` site).  A corrupted row under a resilience scope is
rebuilt by the naive scan; everywhere else the corruption surfaces as a
typed :class:`~repro.errors.SimilarityListInvariantError`, never as a
wrong answer.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import resilience, trace
from repro.core.simlist import SimilarityList
from repro.errors import InjectedFaultError

#: Injection modes.
RAISE = "raise"
DELAY = "delay"
CORRUPT = "corrupt"
#: A partial write: the site receives a strict prefix of the bytes it
#: meant to write and then dies (the caller raises after flushing the
#: prefix).  This is how the WAL torn-tail tests put *real* truncated
#: records on disk instead of merely corrupted whole records.
SHORT_WRITE = "short_write"

MODES = (RAISE, DELAY, CORRUPT, SHORT_WRITE)


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: where, what kind, how often.

    ``rate`` is the per-visit probability of firing (1.0 fires on every
    visit); ``max_faults`` caps the total number of firings so a run can
    be perturbed without being starved.  ``skip`` makes the first N
    visits of the site immune, which is how the store's crash-recovery
    sweep aims a single fault at the k-th write step of a save.
    ``delay_ms`` applies to :data:`DELAY` mode only — it burns real
    wall-clock, which is how deadline tests force a timeout at a precise
    site.
    """

    site: str
    mode: str = RAISE
    rate: float = 1.0
    max_faults: Optional[int] = None
    skip: int = 0
    delay_ms: float = 1.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.site not in resilience.FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; registered sites: "
                f"{', '.join(resilience.FAULT_SITES)}"
            )
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; one of {', '.join(MODES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.max_faults is not None and self.max_faults < 0:
            raise ValueError(
                f"max_faults must be >= 0, got {self.max_faults}"
            )
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")


def corrupt_similarity_list(
    sim: SimilarityList, rng: random.Random
) -> SimilarityList:
    """An invariant-violating variant of ``sim`` (see module docstring).

    Picks one of three violations — overlapping intervals, a negative
    actual value, an actual above the list maximum — so the corrupted
    list is guaranteed to fail
    :meth:`~repro.core.simlist.SimilarityList.validate`.
    """
    begins, ends, actuals = list(sim.begins), list(sim.ends), list(sim.actuals)
    if not begins:
        begins, ends, actuals = [1], [1], [-1.0]
    else:
        choice = rng.randrange(3)
        if choice == 0:  # the first interval overlaps itself
            begins.insert(0, begins[0])
            ends.insert(0, ends[0])
            actuals.insert(0, actuals[0])
        elif choice == 1:
            actuals[0] = -abs(actuals[0])
        else:
            actuals[0] = sim.maximum * 2.0 + 1.0
    return SimilarityList.from_columns(begins, ends, actuals, sim.maximum)


def corrupt_bytes(data: bytes, rng: random.Random) -> bytes:
    """A damaged variant of ``data``: bit flip, truncation, or garbage.

    Models the disk failures the store must detect (DESIGN.md §9) —
    single-bit rot, a torn/short read, and an overwritten region.  The
    result always differs from the input, so a checksummed read is
    guaranteed to notice.
    """
    if not data:
        return b"\x00"
    choice = rng.randrange(3)
    if choice == 0:  # flip one bit
        position = rng.randrange(len(data))
        flipped = data[position] ^ (1 << rng.randrange(8))
        return data[:position] + bytes([flipped]) + data[position + 1 :]
    if choice == 1:  # truncate (torn write / short read)
        return data[: rng.randrange(len(data))]
    position = rng.randrange(len(data))  # overwrite a region with garbage
    garbage = bytes(rng.randrange(256) for __ in range(8))
    damaged = data[:position] + garbage + data[position + 8 :]
    return damaged if damaged != data else damaged + b"\x00"


class FaultInjector:
    """The seeded switchboard installed via
    :func:`repro.core.resilience.set_fault_hook`.

    Implements the hook protocol — ``trip(site)`` for raise/delay specs
    and ``corrupt(site, value)`` for corruption specs — plus bookkeeping:
    ``visits`` counts every pass through each site, ``injected`` records
    each firing as ``(site, sequence, mode)`` in firing order.
    Thread-safe; one injector may serve concurrent server workers.
    """

    def __init__(self, specs: Sequence[FaultSpec], seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self._random = random.Random(seed)
        self._lock = threading.Lock()
        self.visits: Dict[str, int] = {}
        self.injected: List[Tuple[str, int, str]] = []
        self._fired: Dict[int, int] = {}  # spec index -> firings so far

    # ------------------------------------------------------------------
    def faults_at(self, site: str) -> int:
        """Number of faults fired at one site so far."""
        with self._lock:
            return sum(1 for s, __, ___ in self.injected if s == site)

    def _should_fire(
        self, index: int, spec: FaultSpec, sequence: int
    ) -> bool:
        """Decide one visit under the lock: skip window + rate draw +
        max_faults cap."""
        if sequence <= spec.skip:
            return False
        fired = self._fired.get(index, 0)
        if spec.max_faults is not None and fired >= spec.max_faults:
            return False
        if spec.rate < 1.0 and self._random.random() >= spec.rate:
            return False
        self._fired[index] = fired + 1
        return True

    def _arm(self, site: str, wanted_modes: Tuple[str, ...]):
        """The first matching spec that fires on this visit, or None."""
        with self._lock:
            self.visits[site] = self.visits.get(site, 0) + 1
            sequence = self.visits[site]
            for index, spec in enumerate(self.specs):
                if spec.site != site or spec.mode not in wanted_modes:
                    continue
                if self._should_fire(index, spec, sequence):
                    self.injected.append((site, sequence, spec.mode))
                    trace.METRICS.count(trace.FAULT_INJECTED)
                    trace.event(
                        trace.FAULT_INJECTED,
                        f"site={site} mode={spec.mode} visit={sequence}",
                    )
                    return spec, sequence
        return None

    # -- hook protocol ---------------------------------------------------
    def trip(self, site: str) -> None:
        """Raise or delay at a site, per the armed spec (hook protocol)."""
        armed = self._arm(site, (RAISE, DELAY))
        if armed is None:
            return
        spec, sequence = armed
        if spec.mode == DELAY:
            time.sleep(spec.delay_ms / 1000.0)
            return
        message = spec.message or f"injected fault at {site!r}"
        raise InjectedFaultError(message, site=site, sequence=sequence)

    def corrupt(self, site: str, value: Any) -> Any:
        """Corrupt a value flowing through a site (hook protocol).

        Similarity lists become invariant-violating lists; ``bytes``
        (the store's read path) suffer a deterministic bit flip or
        truncation.  Other value types pass through untouched.
        """
        if not isinstance(value, (SimilarityList, bytes, bytearray)):
            return value
        armed = self._arm(site, (CORRUPT,))
        if armed is None:
            return value
        with self._lock:
            if isinstance(value, SimilarityList):
                return corrupt_similarity_list(value, self._random)
            return corrupt_bytes(bytes(value), self._random)

    def shorten(self, site: str, data: bytes) -> Optional[bytes]:
        """A strict prefix of ``data`` when a short-write spec fires
        (hook protocol; None means write normally).

        The prefix length is drawn deterministically in ``[0, len)``,
        so sweeps over seeds exercise everything from a zero-byte torn
        record to one missing only its final byte.
        """
        if not data:
            return None
        armed = self._arm(site, (SHORT_WRITE,))
        if armed is None:
            return None
        with self._lock:
            return bytes(data[: self._random.randrange(len(data))])


@contextmanager
def inject(
    *specs: FaultSpec, seed: int = 0
) -> Iterator[FaultInjector]:
    """Install a seeded injector for the duration of the block.

    Restores the previously installed hook on exit, so injections nest
    and never leak across tests.
    """
    injector = FaultInjector(specs, seed=seed)
    previous = resilience.set_fault_hook(injector)
    try:
        yield injector
    finally:
        resilience.set_fault_hook(previous)
