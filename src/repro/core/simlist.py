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
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.intervals import Interval
from repro.errors import InvalidSimilarityError, SimilarityListInvariantError

#: Tolerance used when comparing floating-point similarity values.
SIM_EPS = 1e-9

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

    The body is three parallel immutable columns — ``begins``, ``ends``,
    ``actuals`` — one position per run; the list algebra reads and emits
    columns and never allocates an object per run.  ``entries`` / iteration
    is a view of :class:`SimEntry` objects built on first access, for
    callers outside the engine (tests, reporting, serialisation).

    Construct with :meth:`from_entries` (normalising and checking unordered
    outside input), :meth:`from_sorted_pieces` (normalising runs already in
    id order — what the atom evaluators and scans emit) or
    :meth:`from_columns` (trusting: the producer's columns are already
    normalised — what the merge walks emit).  The trusted constructors
    scan nothing; :meth:`validate` does, at the two places a list enters
    or leaves the algebra from code it cannot vouch for: each atom-table
    row the picture layer hands over, and each final per-video list before
    it is ranked.  A list that passed is not scanned again: the columns
    are immutable, so the result cannot change.

    :attr:`rank_order` is the ranking's view, computed once and kept: the
    run indices best first.
    """

    __slots__ = (
        "_begins",
        "_ends",
        "_actuals",
        "_maximum",
        "_view",
        "_order",
        "_checked",
    )

    def __init__(
        self,
        begins: Sequence[int],
        ends: Sequence[int],
        actuals: Sequence[float],
        maximum: float,
    ):
        self._begins: Tuple[int, ...] = tuple(begins)
        self._ends: Tuple[int, ...] = tuple(ends)
        self._actuals: Tuple[float, ...] = tuple(actuals)
        self._maximum = float(maximum)
        self._view: Optional[Tuple[SimEntry, ...]] = None
        self._order: Optional[array] = None
        self._checked = False

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
        numeric type.  ``maximum`` must be positive, each interval is
        validated on its own, intervals must be pairwise disjoint and no
        actual may exceed ``maximum`` — checked on every call, because
        nothing upstream vouches for outside input.  Zero-valued entries
        are dropped and adjacent equal-valued entries coalesced — by
        :meth:`from_sorted_pieces`, once sorted.
        """
        if not maximum > 0:
            raise SimilarityListInvariantError(
                f"list maximum must be positive, got {maximum}"
            )
        pieces = []
        for (begin, end), actual in entries:
            begin, end = int(begin), int(end)
            if not 1 <= begin <= end:
                Interval(begin, end)  # raises the typed error
            pieces.append((begin, end, float(actual)))
        pieces.sort(key=itemgetter(0))
        previous_end = 0
        for begin, end, actual in pieces:
            if begin <= previous_end:
                raise SimilarityListInvariantError(
                    "entries must have disjoint intervals; interval "
                    f"starting at {begin} follows end {previous_end}"
                )
            if actual > maximum + SIM_EPS:
                raise SimilarityListInvariantError(
                    f"actual {actual} exceeds list maximum {maximum}"
                )
            previous_end = end
        return cls.from_sorted_pieces(pieces, maximum)

    @classmethod
    def from_columns(
        cls,
        begins: Sequence[int],
        ends: Sequence[int],
        actuals: Sequence[float],
        maximum: float,
    ) -> "SimilarityList":
        """Build from already-normalised parallel columns — the engine's
        trusted constructor: no per-run object, no scan (call
        :meth:`validate` for one)."""
        return cls(begins, ends, actuals, maximum)

    @classmethod
    def _from_checked(
        cls,
        begins: Tuple[int, ...],
        ends: Tuple[int, ...],
        actuals: Tuple[float, ...],
        maximum: float,
        order: array,
    ) -> "SimilarityList":
        """A fresh list over the columns and rank order of a list that
        passed :meth:`validate` — the list memo's hit
        (:class:`repro.core.cache.ListMemo`), which stores only such
        lists."""
        sim = cls(begins, ends, actuals, maximum)
        sim._order = order
        sim._checked = True
        return sim

    @classmethod
    def empty(cls, maximum: float) -> "SimilarityList":
        """A list with no positive-similarity segments."""
        return cls((), (), (), maximum)

    @classmethod
    def from_sorted_pieces(
        cls,
        pieces: Iterable[Tuple[int, int, float]],
        maximum: float,
    ) -> "SimilarityList":
        """Build from ``(begin, end, actual)`` runs already in begin order.

        The one normalising loop for producers that emit pieces: it drops
        ≤ 0 runs and coalesces adjacent equal-valued runs in one linear
        pass, with no sort and no per-segment expansion, straight into the
        columns.  The atom evaluators and the scans of the list algebra
        hand their runs here; the merge walks normalise as they go and use
        :meth:`from_columns`.
        """
        begins: List[int] = []
        ends: List[int] = []
        actuals: List[float] = []
        # Accumulate the open run in locals; one column position per
        # *final* run (a piece-per-segment input coalesces as it goes).
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
                begins.append(run_begin)
                ends.append(run_end)
                actuals.append(run_actual)
            run_begin, run_end, run_actual = begin, end, float(actual)
            open_run = True
        if open_run:
            begins.append(run_begin)
            ends.append(run_end)
            actuals.append(run_actual)
        return cls(begins, ends, actuals, maximum)

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
        """Run the full O(runs) invariant scan, once per list.

        Called at the trust boundaries — each atom-table row leaving the
        picture layer, and each final per-video list before the ranking
        loop streams it into the query heap — so a corrupted list
        surfaces as a typed
        :class:`~repro.errors.SimilarityListInvariantError` instead of a
        silently wrong ranking.  A list that passed remembers it, and a
        second call returns at once: its columns are immutable tuples.
        A list corrupted anywhere is a new object (every constructor
        starts unchecked, and so does
        :func:`repro.testing.faults.corrupt_similarity_list`'s), so it
        is always scanned.  Returns ``self`` for chaining.
        """
        if self._checked:
            return self
        if not self._maximum > 0:
            raise SimilarityListInvariantError(
                f"list maximum must be positive, got {self._maximum}"
            )
        if not len(self._begins) == len(self._ends) == len(self._actuals):
            raise SimilarityListInvariantError(
                "columns must be parallel, got lengths "
                f"{len(self._begins)}/{len(self._ends)}/{len(self._actuals)}"
            )
        previous_end = 0
        for begin, end, actual in self.runs():
            if actual <= 0:
                raise SimilarityListInvariantError(
                    f"non-positive actual value {actual} stored at "
                    f"[{begin},{end}]"
                )
            if actual > self._maximum + SIM_EPS:
                raise SimilarityListInvariantError(
                    f"actual {actual} exceeds list maximum {self._maximum}"
                )
            if begin <= previous_end:
                raise SimilarityListInvariantError(
                    "entries must be sorted with disjoint intervals; "
                    f"interval starting at {begin} follows end "
                    f"{previous_end}"
                )
            if end < begin:
                raise SimilarityListInvariantError(
                    f"interval begin {begin} exceeds end {end}"
                )
            previous_end = end
        self._checked = True
        return self

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    @property
    def maximum(self) -> float:
        """The shared ``max_sim`` of every entry (a function of the formula)."""
        return self._maximum

    @property
    def begins(self) -> Tuple[int, ...]:
        """First id of each run, ascending."""
        return self._begins

    @property
    def ends(self) -> Tuple[int, ...]:
        """Last id of each run, parallel to :attr:`begins`."""
        return self._ends

    @property
    def actuals(self) -> Tuple[float, ...]:
        """Actual similarity of each run, parallel to :attr:`begins`."""
        return self._actuals

    @property
    def rank_order(self) -> array:
        """Run indices best first: by descending actual, ties by
        ascending begin — the order the paper's top-k presentation reads
        (§1).  Walking the runs in this order, each run's ids ascending,
        visits the list's segments from best to worst under the top-k
        order.  Built on first access by one stable sort (the columns
        are in begin order already) and kept as 4-byte indices; shared
        with every copy the list memo hands out, so treat it as
        read-only."""
        if self._order is None:
            self._order = array(
                "I",
                sorted(
                    range(len(self._actuals)),
                    key=self._actuals.__getitem__,
                    reverse=True,
                ),
            )
        return self._order

    def runs(self) -> Iterator[Tuple[int, int, float]]:
        """The columns walked in step: ``(begin, end, actual)`` per run."""
        return zip(self._begins, self._ends, self._actuals)

    @property
    def entries(self) -> Tuple[SimEntry, ...]:
        """The runs as :class:`SimEntry` objects — a view for callers
        outside the engine, built on first access and kept."""
        if self._view is None:
            self._view = tuple(
                SimEntry(Interval(begin, end), actual)
                for begin, end, actual in self.runs()
            )
        return self._view

    def __len__(self) -> int:
        """Number of entries — the paper's ``length(L)``."""
        return len(self._begins)

    def __iter__(self) -> Iterator[SimEntry]:
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self._begins)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimilarityList):
            return NotImplemented
        if abs(self._maximum - other._maximum) > SIM_EPS:
            return False
        if self._begins != other._begins or self._ends != other._ends:
            return False
        return all(
            abs(mine - theirs) <= SIM_EPS
            for mine, theirs in zip(self._actuals, other._actuals)
        )

    def __hash__(self) -> int:
        # Only what ``__eq__`` compares exactly: actuals and the maximum
        # are equal up to SIM_EPS, so they cannot take part.
        return hash((self._begins, self._ends))

    def __repr__(self) -> str:
        body = ", ".join(
            f"[{begin},{end}]={actual:g}"
            for begin, end, actual in self.runs()
        )
        return f"SimilarityList(max={self._maximum:g}; {body})"

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def value_at(self, segment_id: int) -> SimilarityValue:
        """Similarity value at one segment (0 when the id is off-list)."""
        index = bisect.bisect_right(self._begins, segment_id) - 1
        if index >= 0 and segment_id <= self._ends[index]:
            return SimilarityValue(self._actuals[index], self._maximum)
        return SimilarityValue(0.0, self._maximum)

    def actual_at(self, segment_id: int) -> float:
        """Actual similarity at one segment (0 when off-list)."""
        return self.value_at(segment_id).actual

    def fraction_at(self, segment_id: int) -> float:
        """Fractional similarity at one segment."""
        return self.actual_at(segment_id) / self._maximum

    def segment_ids(self) -> Iterator[int]:
        """Iterate all ids carrying positive similarity, ascending."""
        for begin, end in zip(self._begins, self._ends):
            yield from range(begin, end + 1)

    def to_segment_values(self) -> Dict[int, float]:
        """Expand into a ``{segment_id: actual}`` map (testing helper)."""
        return {
            segment_id: actual
            for begin, end, actual in self.runs()
            for segment_id in range(begin, end + 1)
        }

    def support_size(self) -> int:
        """Number of distinct segment ids with positive similarity."""
        return sum(self._ends) - sum(self._begins) + len(self._begins)

    def last_id(self) -> int:
        """Largest id on the list, or 0 when the list is empty."""
        return self._ends[-1] if self._ends else 0

    def restricted(self, lo: int, hi: int) -> "SimilarityList":
        """The sub-list covering only ids in ``[lo, hi]``."""
        begins: List[int] = []
        ends: List[int] = []
        actuals: List[float] = []
        for begin, end, actual in self.runs():
            begin, end = max(begin, lo), min(end, hi)
            if begin <= end:
                begins.append(begin)
                ends.append(end)
                actuals.append(actual)
        return SimilarityList(begins, ends, actuals, self._maximum)

    def with_maximum(self, maximum: float) -> "SimilarityList":
        """Same entries under a different maximum (used by ∃ / freeze)."""
        return SimilarityList(
            self._begins, self._ends, self._actuals, maximum
        )

    def scaled(self, factor: float) -> "SimilarityList":
        """Scale every actual value and the maximum by ``factor`` > 0."""
        if factor <= 0:
            raise InvalidSimilarityError(
                f"scale factor must be positive, got {factor}"
            )
        return SimilarityList(
            self._begins,
            self._ends,
            [actual * factor for actual in self._actuals],
            self._maximum * factor,
        )
