"""Similarity values and similarity lists — the paper's central structures.

A *similarity value* is a pair ``(actual, maximum)`` with
``0 <= actual <= maximum``; the *fractional* similarity is
``actual / maximum`` and equals 1 on an exact match (paper §2.5).

A *similarity list* for a formula ``f`` over one video is a sequence of
entries ``([beg_id, end_id], (act_sim, max_sim))`` meaning every segment in
the interval has that similarity (paper §3.1).  Invariants maintained here:

* entries are sorted by interval begin and intervals are pairwise disjoint;
* only entries with strictly positive actual similarity are stored ("only
  ids with non-zero similarity value appear on the list");
* ``max_sim`` is identical across entries — it depends only on ``f``.

Adjacent entries carrying the same actual value are coalesced on
normalisation so a list has a canonical form, which makes equality of lists
meaningful in tests.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.intervals import Interval
from repro.errors import InvalidSimilarityError, SimilarityListInvariantError

#: Tolerance used when comparing floating-point similarity values.
SIM_EPS = 1e-9

#: When True, every constructed list runs the full O(n) invariant scan.
#: Off by default: the merge algorithms of :mod:`repro.core.ops` construct
#: a list per operator application, and re-validating inputs they produce
#: by construction dominated profile time on large workloads.  The test
#: suite switches it on globally (tests/conftest.py), so invariants stay
#: property-checked where it matters.
CHECK_INVARIANTS = False


def set_invariant_checks(enabled: bool) -> bool:
    """Toggle list invariant checking; returns the previous setting."""
    global CHECK_INVARIANTS
    previous = CHECK_INVARIANTS
    CHECK_INVARIANTS = bool(enabled)
    return previous


@dataclass(frozen=True)
class SimilarityValue:
    """The pair ``(actual, maximum)`` of paper §2.5."""

    actual: float
    maximum: float

    def __post_init__(self) -> None:
        if self.maximum <= 0:
            raise InvalidSimilarityError(
                f"maximum similarity must be positive, got {self.maximum}"
            )
        if self.actual < -SIM_EPS or self.actual > self.maximum + SIM_EPS:
            raise InvalidSimilarityError(
                f"actual similarity {self.actual} outside [0, {self.maximum}]"
            )

    @property
    def fraction(self) -> float:
        """The fractional similarity ``a / m``."""
        return self.actual / self.maximum

    def is_exact(self) -> bool:
        """True when the value denotes an exact match (``a == m``)."""
        return abs(self.actual - self.maximum) <= SIM_EPS


@dataclass(frozen=True)
class SimEntry:
    """One row of a similarity list: an interval plus its actual value.

    The shared ``max_sim`` lives on the list, not the entry.
    """

    interval: Interval
    actual: float

    @property
    def begin(self) -> int:
        return self.interval.begin

    @property
    def end(self) -> int:
        return self.interval.end


class SimilarityList:
    """Canonical similarity list for one formula over one video.

    Construct with :meth:`from_entries` (normalising unordered outside
    input), :meth:`from_sorted_pieces` (normalising runs already in id
    order — what the merge algorithms emit) or :meth:`from_raw` (trusting).
    """

    __slots__ = ("_entries", "_maximum", "_begin_keys")

    def __init__(self, entries: Sequence[SimEntry], maximum: float):
        self._entries: Tuple[SimEntry, ...] = tuple(entries)
        self._maximum = float(maximum)
        self._begin_keys: Optional[List[int]] = None
        if CHECK_INVARIANTS:
            self._check_invariants()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_entries(
        cls,
        entries: Iterable[Tuple[Tuple[int, int], float]],
        maximum: float,
    ) -> "SimilarityList":
        """Build from ``((begin, end), actual)`` pairs, normalising.

        The constructor for outside input: it may be unsorted and of any
        numeric type; intervals must be disjoint, and each is validated on
        its own.  Zero-valued entries are dropped and adjacent equal-valued
        entries coalesced — by :meth:`from_sorted_pieces`, once sorted.
        """
        pieces = []
        for (begin, end), actual in entries:
            begin, end = int(begin), int(end)
            if not 1 <= begin <= end:
                Interval(begin, end)  # raises the typed error
            pieces.append((begin, end, float(actual)))
        pieces.sort(key=itemgetter(0))
        return cls.from_sorted_pieces(pieces, maximum)

    @classmethod
    def from_raw(
        cls, entries: Sequence[SimEntry], maximum: float
    ) -> "SimilarityList":
        """Build from already-normalised entries (invariant-checked only
        when :data:`CHECK_INVARIANTS` is on)."""
        return cls(entries, maximum)

    @classmethod
    def empty(cls, maximum: float) -> "SimilarityList":
        """A list with no positive-similarity segments."""
        return cls((), maximum)

    @classmethod
    def from_sorted_pieces(
        cls,
        pieces: Iterable[Tuple[int, int, float]],
        maximum: float,
    ) -> "SimilarityList":
        """Build from ``(begin, end, actual)`` runs already in begin order.

        The one normalising loop: it drops ≤ 0 runs and coalesces adjacent
        equal-valued runs in one linear pass, with no sort and no
        per-segment expansion.  Every producer that emits in ascending id
        order — the list algebra's merges and scans, the atom evaluators —
        hands its runs straight here.
        """
        normalised: List[SimEntry] = []
        # Accumulate the open run in locals; one SimEntry per *final* run
        # (a piece-per-segment input would otherwise allocate per piece).
        run_begin = run_end = 0
        run_actual = 0.0
        open_run = False
        for begin, end, actual in pieces:
            if actual <= SIM_EPS:
                continue
            if (
                open_run
                and run_end + 1 == begin
                and abs(run_actual - actual) <= SIM_EPS
            ):
                run_end = end
                continue
            if open_run:
                normalised.append(
                    SimEntry(Interval(run_begin, run_end), run_actual)
                )
            run_begin, run_end, run_actual = begin, end, float(actual)
            open_run = True
        if open_run:
            normalised.append(
                SimEntry(Interval(run_begin, run_end), run_actual)
            )
        return cls(normalised, maximum)

    @classmethod
    def from_segment_values(
        cls, values: Dict[int, float], maximum: float
    ) -> "SimilarityList":
        """Build from a ``{segment_id: actual}`` map (test oracle helper)."""
        return cls.from_sorted_pieces(
            (
                (segment_id, segment_id, values[segment_id])
                for segment_id in sorted(values)
            ),
            maximum,
        )

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self) -> "SimilarityList":
        """Run the full invariant scan now, regardless of the global gate.

        The resilience layer calls this at trust boundaries — e.g. before
        ``top_k_across_videos`` streams a worker-produced list into the
        shared heap — so a corrupted list surfaces as a typed
        :class:`~repro.errors.SimilarityListInvariantError` instead of a
        silently wrong ranking.  Returns ``self`` for chaining.
        """
        self._check_invariants()
        return self

    def _check_invariants(self) -> None:
        if self._maximum <= 0:
            raise SimilarityListInvariantError(
                f"list maximum must be positive, got {self._maximum}"
            )
        previous_end = 0
        for entry in self._entries:
            if entry.actual <= 0:
                raise SimilarityListInvariantError(
                    f"non-positive actual value {entry.actual} stored at "
                    f"{entry.interval}"
                )
            if entry.actual > self._maximum + SIM_EPS:
                raise SimilarityListInvariantError(
                    f"actual {entry.actual} exceeds list maximum {self._maximum}"
                )
            if entry.begin <= previous_end:
                raise SimilarityListInvariantError(
                    "entries must be sorted with disjoint intervals; "
                    f"interval starting at {entry.begin} follows end "
                    f"{previous_end}"
                )
            previous_end = entry.end

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    @property
    def maximum(self) -> float:
        """The shared ``max_sim`` of every entry (a function of the formula)."""
        return self._maximum

    @property
    def entries(self) -> Tuple[SimEntry, ...]:
        return self._entries

    def __len__(self) -> int:
        """Number of entries — the paper's ``length(L)``."""
        return len(self._entries)

    def __iter__(self) -> Iterator[SimEntry]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimilarityList):
            return NotImplemented
        if abs(self._maximum - other._maximum) > SIM_EPS:
            return False
        if len(self._entries) != len(other._entries):
            return False
        return all(
            mine.interval == theirs.interval
            and abs(mine.actual - theirs.actual) <= SIM_EPS
            for mine, theirs in zip(self._entries, other._entries)
        )

    def __hash__(self) -> int:  # pragma: no cover - lists are not dict keys
        return hash((self._entries, self._maximum))

    def __repr__(self) -> str:
        body = ", ".join(
            f"[{entry.begin},{entry.end}]={entry.actual:g}"
            for entry in self._entries
        )
        return f"SimilarityList(max={self._maximum:g}; {body})"

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def value_at(self, segment_id: int) -> SimilarityValue:
        """Similarity value at one segment (0 when the id is off-list)."""
        if self._begin_keys is None:
            self._begin_keys = [entry.begin for entry in self._entries]
        index = bisect.bisect_right(self._begin_keys, segment_id) - 1
        if index >= 0 and segment_id <= self._entries[index].end:
            return SimilarityValue(self._entries[index].actual, self._maximum)
        return SimilarityValue(0.0, self._maximum)

    def actual_at(self, segment_id: int) -> float:
        """Actual similarity at one segment (0 when off-list)."""
        return self.value_at(segment_id).actual

    def fraction_at(self, segment_id: int) -> float:
        """Fractional similarity at one segment."""
        return self.actual_at(segment_id) / self._maximum

    def segment_ids(self) -> Iterator[int]:
        """Iterate all ids carrying positive similarity, ascending."""
        for entry in self._entries:
            yield from entry.interval

    def to_segment_values(self) -> Dict[int, float]:
        """Expand into a ``{segment_id: actual}`` map (testing helper)."""
        return {
            segment_id: entry.actual
            for entry in self._entries
            for segment_id in entry.interval
        }

    def support_size(self) -> int:
        """Number of distinct segment ids with positive similarity."""
        return sum(len(entry.interval) for entry in self._entries)

    def last_id(self) -> int:
        """Largest id on the list, or 0 when the list is empty."""
        return self._entries[-1].end if self._entries else 0

    def restricted(self, lo: int, hi: int) -> "SimilarityList":
        """The sub-list covering only ids in ``[lo, hi]``."""
        clipped: List[SimEntry] = []
        for entry in self._entries:
            kept = entry.interval.clamp(lo, hi)
            if kept is not None:
                clipped.append(SimEntry(kept, entry.actual))
        return SimilarityList.from_raw(clipped, self._maximum)

    def with_maximum(self, maximum: float) -> "SimilarityList":
        """Same entries under a different maximum (used by ∃ / freeze)."""
        return SimilarityList.from_raw(self._entries, maximum)

    def scaled(self, factor: float) -> "SimilarityList":
        """Scale every actual value and the maximum by ``factor`` > 0."""
        if factor <= 0:
            raise InvalidSimilarityError(
                f"scale factor must be positive, got {factor}"
            )
        scaled_entries = [
            SimEntry(entry.interval, entry.actual * factor)
            for entry in self._entries
        ]
        return SimilarityList.from_raw(scaled_entries, self._maximum * factor)
