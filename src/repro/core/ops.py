"""Similarity-list algorithms for type (1) formulas (paper §3.1).

Every operator consumes and produces :class:`~repro.core.simlist.SimilarityList`
values in interval-compressed form; nothing here ever expands a list into
per-segment rows, which is exactly the property that makes the direct method
beat the SQL baseline in the paper's §4.2 experiments.

Complexities match the paper's analysis:

* :func:`and_lists` — ``O(len(L1) + len(L2))``: one call of
  :func:`pointwise_lists`, the two-cursor walk every pointwise connective
  shares (lists are kept sorted by construction).
* :func:`next_list` — ``O(len(L))``.
* :func:`until_lists` — ``O(len(L1) + len(L2))`` plus the bisections used to
  locate each run's candidate window.
* :func:`max_merge_lists` — ``O(l log m)`` for ``m`` lists of total length
  ``l`` (the "modified m-way merge" of §3.2).
"""

from __future__ import annotations

import bisect
import heapq
import operator
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import resilience
from repro.core.intervals import Interval, coalesce
from repro.core.simlist import SIM_EPS, SimEntry, SimilarityList
from repro.errors import SimilarityListInvariantError

#: Default minimum fractional similarity the left operand of ``until`` must
#: keep while waiting for the right operand (paper §2.5: "g is satisfied
#: with a minimum threshold value").
DEFAULT_UNTIL_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# conjunction
# ---------------------------------------------------------------------------
def and_lists(left: SimilarityList, right: SimilarityList) -> SimilarityList:
    """Similarity list of ``f = g ∧ h`` from the lists of ``g`` and ``h``.

    Per §2.5 the combined value at a segment is ``(a1+a2, m1+m2)``; a segment
    on only one input list keeps its single value ("even if one of a1 and a2
    is zero ... we still may consider f to be partially satisfied").
    """
    budget = resilience.current_budget()
    if budget is not None:
        budget.charge(len(left) + len(right) + 1, site="list-merge")
    resilience.fault(resilience.SITE_LIST_MERGE)
    return resilience.fault_value(
        resilience.SITE_LIST_MERGE,
        pointwise_lists(
            left, right, operator.add, left.maximum + right.maximum
        ),
    )


def pointwise_lists(
    left: SimilarityList,
    right: SimilarityList,
    combine: Callable[[float, float], float],
    maximum: float,
) -> SimilarityList:
    """The "modified merge" of §3.1, once, for every pointwise connective.

    The value on each run of the ordered union of both lists' runs is
    ``combine(left actual, right actual)``; a side that is off-list there
    contributes ``0.0``, and stretches where both are off-list are skipped
    (``combine(0.0, 0.0)`` is taken to be zero).  Two cursors that only
    move forward: ``combine`` is called once per run of the union, at most
    ``2 * (len(left) + len(right)) - 1`` times.
    """
    runs: List[Tuple[int, int, float]] = []
    emit = runs.append
    left_entries = left.entries
    right_entries = right.entries
    left_len = len(left_entries)
    right_len = len(right_entries)
    i = j = 0
    done = 0  # every id <= done has been emitted or skipped
    while i < left_len and j < right_len:
        left_entry = left_entries[i]
        right_entry = right_entries[j]
        left_begin = left_entry.interval.begin
        right_begin = right_entry.interval.begin
        left_end = left_entry.interval.end
        right_end = right_entry.interval.end
        if left_begin <= done:  # an entry already walked up to ``done``
            left_begin = done + 1
        if right_begin <= done:
            right_begin = done + 1
        if left_begin < right_begin:
            done = left_end if left_end < right_begin else right_begin - 1
            emit((left_begin, done, combine(left_entry.actual, 0.0)))
        elif right_begin < left_begin:
            done = right_end if right_end < left_begin else left_begin - 1
            emit((right_begin, done, combine(0.0, right_entry.actual)))
        else:
            done = left_end if left_end < right_end else right_end
            emit(
                (
                    left_begin,
                    done,
                    combine(left_entry.actual, right_entry.actual),
                )
            )
        if left_end == done:
            i += 1
        if right_end == done:
            j += 1
    # At most one side has entries left, the first possibly half-walked.
    for entry in left_entries[i:]:
        begin = max(entry.interval.begin, done + 1)
        emit((begin, entry.interval.end, combine(entry.actual, 0.0)))
    for entry in right_entries[j:]:
        begin = max(entry.interval.begin, done + 1)
        emit((begin, entry.interval.end, combine(0.0, entry.actual)))
    return SimilarityList.from_sorted_pieces(runs, maximum)


# ---------------------------------------------------------------------------
# next
# ---------------------------------------------------------------------------
def next_list(operand: SimilarityList) -> SimilarityList:
    """Similarity list of ``next g``: shift every interval left by one.

    A segment with no successor gets actual value 0 (not stored); an
    interval that would start at id 0 is clamped to the 1-based axis.
    """
    shifted: List[SimEntry] = []
    for entry in operand:
        interval = entry.interval.shift(-1)
        if interval is not None:
            shifted.append(SimEntry(interval, entry.actual))
    return SimilarityList.from_raw(shifted, operand.maximum)


# ---------------------------------------------------------------------------
# until / eventually
# ---------------------------------------------------------------------------
def threshold_runs(
    operand: SimilarityList, threshold: float
) -> List[Interval]:
    """L1 pre-processing of the UNTIL algorithm.

    Drop entries whose fractional similarity is below ``threshold`` and
    coalesce adjacent survivors into maximal runs; actual values are
    discarded ("their values are not used any more").
    """
    kept = [
        entry.interval
        for entry in operand
        if entry.actual / operand.maximum + SIM_EPS >= threshold
    ]
    return coalesce(kept)


def until_runs(
    runs: Sequence[Interval], right: SimilarityList
) -> SimilarityList:
    """Core UNTIL combination of thresholded runs with the ``h`` list.

    The value at a segment ``u`` inside a run ``I`` is the maximum actual
    value of the ``h`` entries reachable from ``u``: those starting no later
    than ``end(I) + 1`` and ending at or after ``u`` (``g`` must hold on
    ``[u, u″)``, so ``u″`` may be one past the run).  A segment outside all
    runs only reaches itself, hence takes the ``h`` value at that segment.

    This follows the paper's backward-merge algorithm, with the
    ``end(I) + 1`` boundary fix documented in DESIGN.md §2.
    """
    begins = [entry.begin for entry in right.entries]
    ends = [entry.end for entry in right.entries]
    pieces: List[Tuple[Tuple[int, int], float]] = []

    for run in runs:
        # Candidate window: h entries with end >= run.begin (suffix, since
        # disjoint sorted intervals have increasing ends) and
        # begin <= run.end + 1 (prefix).
        low = bisect.bisect_left(ends, run.begin)
        high = bisect.bisect_right(begins, run.end + 1)
        if low >= high:
            continue
        candidates = right.entries[low:high]
        # Build the non-increasing step function
        #   value(u) = max{actual(J) : end(J) >= u}
        # over u in [run.begin, run.end] by scanning candidates from the
        # largest end downwards while keeping a running maximum.
        running_max = 0.0
        upper = run.end
        for entry in reversed(candidates):
            if entry.actual > running_max:
                if entry.end < upper:
                    if running_max > SIM_EPS:
                        pieces.append(
                            ((max(entry.end + 1, run.begin), upper), running_max)
                        )
                    upper = min(entry.end, run.end)
                running_max = entry.actual
            if upper < run.begin:
                break
        if running_max > SIM_EPS and upper >= run.begin:
            pieces.append(((run.begin, upper), running_max))

    # Segments covered by h but outside every run take the direct h value.
    pieces.extend(_outside_run_pieces(runs, right))
    return SimilarityList.from_entries(pieces, right.maximum)


def _outside_run_pieces(
    runs: Sequence[Interval], right: SimilarityList
) -> List[Tuple[Tuple[int, int], float]]:
    """Portions of each ``h`` entry not covered by any run."""
    pieces: List[Tuple[Tuple[int, int], float]] = []
    run_index = 0
    for entry in right:
        cursor = entry.begin
        while cursor <= entry.end:
            while run_index < len(runs) and runs[run_index].end < cursor:
                run_index += 1
            if run_index < len(runs) and runs[run_index].begin <= cursor:
                cursor = runs[run_index].end + 1
                continue
            if run_index < len(runs):
                gap_end = min(entry.end, runs[run_index].begin - 1)
            else:
                gap_end = entry.end
            pieces.append(((cursor, gap_end), entry.actual))
            cursor = gap_end + 1
        # The run cursor never needs to rewind: entries and runs are both
        # sorted and disjoint, so probe positions are non-decreasing.
    return pieces


def until_lists(
    left: SimilarityList,
    right: SimilarityList,
    threshold: float = DEFAULT_UNTIL_THRESHOLD,
) -> SimilarityList:
    """Similarity list of ``f = g until h`` (threshold + backward merge).

    The threshold must be strictly positive: at 0 every segment — even one
    with no similarity to ``g`` at all — would count as satisfying ``g``,
    degenerating ``until`` into ``eventually``; a "minimum threshold value"
    (paper §2.5) is inherently positive.
    """
    if threshold <= SIM_EPS:
        raise SimilarityListInvariantError(
            f"the until threshold must be strictly positive, got {threshold}"
        )
    budget = resilience.current_budget()
    if budget is not None:
        budget.charge(len(left) + len(right) + 1, site="list-merge")
    resilience.fault(resilience.SITE_LIST_MERGE)
    runs = threshold_runs(left, threshold)
    return until_runs(runs, right)


def eventually_list(operand: SimilarityList) -> SimilarityList:
    """Similarity list of ``eventually g``: the suffix-maximum step function.

    Equivalent to ``true until g`` with the left list covering the whole
    axis; implemented directly in one backward scan.
    """
    pieces: List[Tuple[int, int, float]] = []
    running_max = 0.0
    upper = 0
    for entry in reversed(operand.entries):
        if entry.actual > running_max:
            if running_max > SIM_EPS and entry.end + 1 <= upper:
                pieces.append((entry.end + 1, upper, running_max))
            running_max = entry.actual
            upper = entry.end
    if running_max > SIM_EPS:
        pieces.append((1, upper, running_max))
    pieces.reverse()  # the backward scan emits the last run first
    return SimilarityList.from_sorted_pieces(pieces, operand.maximum)


# ---------------------------------------------------------------------------
# m-way maximum merge (for ∃-elimination over table rows, §3.2 part 2)
# ---------------------------------------------------------------------------
def max_merge_lists(lists: Sequence[SimilarityList]) -> SimilarityList:
    """Pointwise maximum of several lists sharing one ``max_sim``.

    The "modified m-way merge": a sweep over interval starts/ends keeping
    the active actual values in a lazy-deletion max-heap, emitting a piece
    per elementary interval.  ``O(l log m)`` for total length ``l``.
    """
    if not lists:
        raise SimilarityListInvariantError("max_merge_lists needs >= 1 list")
    maximum = lists[0].maximum
    for sim_list in lists[1:]:
        if abs(sim_list.maximum - maximum) > SIM_EPS:
            raise SimilarityListInvariantError(
                "lists merged by maximum must share max_sim: "
                f"{sim_list.maximum} vs {maximum}"
            )
    if len(lists) == 1:
        return lists[0]
    budget = resilience.current_budget()
    if budget is not None:
        budget.charge(
            sum(len(sim_list) for sim_list in lists), site="list-merge"
        )

    # Events: (position, kind, actual); kind 0 = start, 1 = end-after.
    events: List[Tuple[int, int, float]] = []
    for sim_list in lists:
        for entry in sim_list:
            events.append((entry.begin, 0, entry.actual))
            events.append((entry.end + 1, 1, entry.actual))
    events.sort(key=lambda event: (event[0], event[1]))

    heap: List[float] = []  # negated actuals
    expired: Dict[float, int] = {}
    pieces: List[Tuple[int, int, float]] = []
    index = 0
    previous_position: Optional[int] = None
    previous_value = 0.0
    while index < len(events):
        position = events[index][0]
        if previous_position is not None and previous_value > SIM_EPS:
            pieces.append((previous_position, position - 1, previous_value))
        while index < len(events) and events[index][0] == position:
            __, kind, actual = events[index]
            if kind == 0:
                heapq.heappush(heap, -actual)
            else:
                expired[actual] = expired.get(actual, 0) + 1
            index += 1
        previous_value = _heap_max(heap, expired)
        previous_position = position
    return SimilarityList.from_sorted_pieces(pieces, maximum)


def _heap_max(heap: List[float], expired: Dict[float, int]) -> float:
    """Current maximum of the lazy-deletion heap (0 when empty)."""
    while heap:
        candidate = -heap[0]
        pending = expired.get(candidate, 0)
        if pending:
            heapq.heappop(heap)
            if pending == 1:
                del expired[candidate]
            else:
                expired[candidate] = pending - 1
        else:
            return candidate
    return 0.0


# ---------------------------------------------------------------------------
# always (documented extension, paper §5 future work)
# ---------------------------------------------------------------------------
def always_list(operand: SimilarityList, axis_end: int) -> SimilarityList:
    """Similarity list of ``always g`` — *extension*, not in the paper.

    We adopt the natural dual of ``eventually``: the value at ``u`` is the
    minimum actual value of ``g`` over the suffix ``[u, axis_end]`` (zero as
    soon as any suffix segment is off-list).  Needs the axis length because
    absent segments carry value 0.
    """
    entries = operand.entries
    if axis_end < 1 or not entries:
        return SimilarityList.empty(operand.maximum)
    # Positive exactly where [u, axis_end] lies inside one trailing block of
    # contiguous entries; the value at u is the running minimum of the
    # actual values encountered while scanning that block backwards.
    pieces: List[Tuple[int, int, float]] = []
    running_min: Optional[float] = None
    next_begin = 0  # begin of the previously processed (later) entry
    for entry in reversed(entries):
        if entry.begin > axis_end:
            continue  # entirely beyond the axis; irrelevant
        clipped_end = min(entry.end, axis_end)
        if running_min is None:
            if clipped_end != axis_end:
                break  # the suffix is not covered at axis_end: all zero
            running_min = entry.actual
        else:
            if clipped_end + 1 != next_begin:
                break  # gap in coverage: earlier segments all score zero
            running_min = min(running_min, entry.actual)
        if running_min > SIM_EPS:
            pieces.append((entry.begin, clipped_end, running_min))
        next_begin = entry.begin
    pieces.reverse()
    return SimilarityList.from_sorted_pieces(pieces, operand.maximum)
