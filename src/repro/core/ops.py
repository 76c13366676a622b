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
import sys
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import resilience
from repro.core.intervals import Interval
from repro.core.simlist import SIM_EPS, SimilarityList
from repro.errors import SimilarityListInvariantError

#: Default minimum fractional similarity the left operand of ``until`` must
#: keep while waiting for the right operand (paper §2.5: "g is satisfied
#: with a minimum threshold value").
DEFAULT_UNTIL_THRESHOLD = 0.5

#: What a cursor of :func:`pointwise_lists` reads once its list is
#: exhausted: a run that begins after every segment id.
_PAST_END = sys.maxsize
_NO_RUN = (_PAST_END, _PAST_END, 0.0)


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
    move forward over the operands' columns: ``combine`` is called once
    per run of the union, at most ``2 * (len(left) + len(right)) - 1``
    times.  The output columns are normalised as they are written — a run
    at or below ``SIM_EPS`` is dropped, a run adjacent to the open one and
    within ``SIM_EPS`` of its (first) value extends it — exactly as
    :meth:`SimilarityList.from_sorted_pieces` would.
    """
    lefts = left.runs()
    rights = right.runs()
    # The run under each cursor, its begin moved past what is already
    # walked; an exhausted side reads as a run beyond every id.
    left_begin, left_end, left_actual = next(lefts, _NO_RUN)
    right_begin, right_end, right_actual = next(rights, _NO_RUN)
    begins: List[int] = []
    ends: List[int] = []
    actuals: List[float] = []
    # The open output run; none while run_end == 0 (ids are 1-based), and
    # run_actual == 0.0 then keeps the first kept run from extending it.
    run_begin = run_end = 0
    run_actual = 0.0
    while left_begin < _PAST_END or right_begin < _PAST_END:
        # ``done``: every id up to it is emitted or skipped by this step.
        if left_begin < right_begin:
            begin = left_begin
            done = left_end if left_end < right_begin else right_begin - 1
            actual = combine(left_actual, 0.0)
        elif right_begin < left_begin:
            begin = right_begin
            done = right_end if right_end < left_begin else left_begin - 1
            actual = combine(0.0, right_actual)
        else:
            begin = left_begin
            done = left_end if left_end < right_end else right_end
            actual = combine(left_actual, right_actual)
        if left_end == done:
            left_begin, left_end, left_actual = next(lefts, _NO_RUN)
        elif left_begin <= done:
            left_begin = done + 1
        if right_end == done:
            right_begin, right_end, right_actual = next(rights, _NO_RUN)
        elif right_begin <= done:
            right_begin = done + 1
        if actual <= SIM_EPS:
            continue
        if run_end + 1 == begin and abs(run_actual - actual) <= SIM_EPS:
            run_end = done
            continue
        if run_end:
            begins.append(run_begin)
            ends.append(run_end)
            actuals.append(run_actual)
        run_begin, run_end, run_actual = begin, done, actual
    if run_end:
        begins.append(run_begin)
        ends.append(run_end)
        actuals.append(run_actual)
    return SimilarityList.from_columns(begins, ends, actuals, maximum)


# ---------------------------------------------------------------------------
# next
# ---------------------------------------------------------------------------
def next_list(operand: SimilarityList) -> SimilarityList:
    """Similarity list of ``next g``: shift every interval left by one.

    A segment with no successor gets actual value 0 (not stored); an
    interval that would start at id 0 is clamped to the 1-based axis.
    """
    begins = [begin - 1 for begin in operand.begins]
    ends = [end - 1 for end in operand.ends]
    actuals = operand.actuals
    # Only the first run can touch id 1: it falls off the axis whole
    # ([1,1]) or loses its first id.
    if ends and ends[0] < 1:
        begins, ends, actuals = begins[1:], ends[1:], actuals[1:]
    elif begins and begins[0] < 1:
        begins[0] = 1
    return SimilarityList.from_columns(begins, ends, actuals, operand.maximum)


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
    return [
        Interval(begin, end)
        for begin, end in zip(*_threshold_columns(operand, threshold))
    ]


def _threshold_columns(
    operand: SimilarityList, threshold: float
) -> Tuple[List[int], List[int]]:
    """:func:`threshold_runs` as ``(begins, ends)`` columns: one forward
    pass, an adjacent survivor extending the run before it."""
    run_begins: List[int] = []
    run_ends: List[int] = []
    maximum = operand.maximum
    for begin, end, actual in operand.runs():
        if actual / maximum + SIM_EPS >= threshold:
            if run_ends and run_ends[-1] + 1 == begin:
                run_ends[-1] = end
            else:
                run_begins.append(begin)
                run_ends.append(end)
    return run_begins, run_ends


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
    ``end(I) + 1`` boundary fix documented in DESIGN.md §2.  ``runs`` must
    be sorted and pairwise disjoint, as :func:`threshold_runs` returns them.
    """
    return _until_columns(
        [run.begin for run in runs], [run.end for run in runs], right
    )


def _until_columns(
    run_begins: Sequence[int], run_ends: Sequence[int], right: SimilarityList
) -> SimilarityList:
    """:func:`until_runs` over run columns: the pieces inside runs and the
    pieces outside them are two ascending streams of disjoint intervals,
    merged in order into the one normalising loop — no sort."""
    begins, ends, actuals = right.begins, right.ends, right.actuals
    inside: List[Tuple[int, int, float]] = []
    # Runs from the last to the first, each scanned backwards: the pieces
    # come out in descending id order and are reversed once at the end.
    for run_begin, run_end in zip(reversed(run_begins), reversed(run_ends)):
        # Candidate window: h entries with end >= run_begin (suffix, since
        # disjoint sorted intervals have increasing ends) and
        # begin <= run_end + 1 (prefix).
        low = bisect.bisect_left(ends, run_begin)
        high = bisect.bisect_right(begins, run_end + 1)
        # Build the non-increasing step function
        #   value(u) = max{actual(J) : end(J) >= u}
        # over u in [run_begin, run_end] by scanning candidates from the
        # largest end downwards while keeping a running maximum.
        running_max = 0.0
        upper = run_end
        for index in range(high - 1, low - 1, -1):
            actual = actuals[index]
            if actual > running_max:
                end = ends[index]
                if end < upper:
                    if running_max > SIM_EPS:
                        inside.append(
                            (max(end + 1, run_begin), upper, running_max)
                        )
                    upper = end
                running_max = actual
            if upper < run_begin:
                break
        if running_max > SIM_EPS and upper >= run_begin:
            inside.append((run_begin, upper, running_max))
    inside.reverse()
    # Segments covered by h but outside every run take the direct h value.
    outside = _outside_run_pieces(run_begins, run_ends, right)
    return SimilarityList.from_sorted_pieces(
        _merge_ordered(inside, outside), right.maximum
    )


def _merge_ordered(
    first: List[Tuple[int, int, float]], second: List[Tuple[int, int, float]]
) -> Iterator[Tuple[int, int, float]]:
    """Two ascending streams of mutually disjoint pieces as one."""
    i = j = 0
    while i < len(first) and j < len(second):
        if first[i][0] < second[j][0]:
            yield first[i]
            i += 1
        else:
            yield second[j]
            j += 1
    yield from first[i:]
    yield from second[j:]


def _outside_run_pieces(
    run_begins: Sequence[int], run_ends: Sequence[int], right: SimilarityList
) -> List[Tuple[int, int, float]]:
    """Portions of each ``h`` entry not covered by any run, ascending."""
    pieces: List[Tuple[int, int, float]] = []
    n_runs = len(run_begins)
    run_index = 0
    for begin, end, actual in right.runs():
        cursor = begin
        while cursor <= end:
            while run_index < n_runs and run_ends[run_index] < cursor:
                run_index += 1
            if run_index < n_runs:
                if run_begins[run_index] <= cursor:
                    cursor = run_ends[run_index] + 1
                    continue
                gap_end = min(end, run_begins[run_index] - 1)
            else:
                gap_end = end
            pieces.append((cursor, gap_end, actual))
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
    return _until_columns(*_threshold_columns(left, threshold), right)


def eventually_list(operand: SimilarityList) -> SimilarityList:
    """Similarity list of ``eventually g``: the suffix-maximum step function.

    Equivalent to ``true until g`` with the left list covering the whole
    axis; implemented directly in one backward scan.
    """
    pieces: List[Tuple[int, int, float]] = []
    running_max = 0.0
    upper = 0
    for end, actual in zip(
        reversed(operand.ends), reversed(operand.actuals)
    ):
        if actual > running_max:
            if running_max > SIM_EPS and end + 1 <= upper:
                pieces.append((end + 1, upper, running_max))
            running_max = actual
            upper = end
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
        for begin, end, actual in sim_list.runs():
            events.append((begin, 0, actual))
            events.append((end + 1, 1, actual))
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
    if axis_end < 1 or not operand:
        return SimilarityList.empty(operand.maximum)
    # Positive exactly where [u, axis_end] lies inside one trailing block of
    # contiguous entries; the value at u is the running minimum of the
    # actual values encountered while scanning that block backwards.
    pieces: List[Tuple[int, int, float]] = []
    running_min: Optional[float] = None
    next_begin = 0  # begin of the previously processed (later) entry
    for begin, end, actual in zip(
        reversed(operand.begins),
        reversed(operand.ends),
        reversed(operand.actuals),
    ):
        if begin > axis_end:
            continue  # entirely beyond the axis; irrelevant
        clipped_end = min(end, axis_end)
        if running_min is None:
            if clipped_end != axis_end:
                break  # the suffix is not covered at axis_end: all zero
            running_min = actual
        else:
            if clipped_end + 1 != next_begin:
                break  # gap in coverage: earlier segments all score zero
            running_min = min(running_min, actual)
        if running_min > SIM_EPS:
            pieces.append((begin, clipped_end, running_min))
        next_begin = begin
    pieces.reverse()
    return SimilarityList.from_sorted_pieces(pieces, operand.maximum)
