"""Extensions beyond the paper (its §5 future-work directions).

The paper closes with: "As part of future research, we would like to
investigate the extension of the above methods to the full language.  It
will also be worthwhile to investigate other similarity functions, other
than the fractional similarity function".  This module supplies both:

* :func:`or_lists` — similarity of a *disjunction*: the best disjunct,
  pointwise (``m = max(m₁, m₂)``, consistent with the atom-level ``∨`` of
  the picture scoring).  With it the engine (``allow_extensions=True``)
  evaluates every HTL formula except negation over temporal subformulas.
* :func:`fuzzy_and_lists` — an alternative similarity function for ``∧``:
  the fuzzy-logic minimum of the *fractional* similarities (output
  maximum 1).  Unlike the paper's sum, an exact conjunction requires both
  conjuncts exact, and a zero conjunct zeroes the result.
* :func:`bounded_eventually` / :func:`bounded_always` — windowed temporal
  operators (``within the next k segments``), natural in video retrieval
  where "later" usually means "soon after".

All operate on interval-compressed lists and are property-tested against
per-segment naive references.
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

from repro.core import resilience
from repro.core.ops import max_merge_lists, pointwise_lists
from repro.core.simlist import SIM_EPS, SimilarityList
from repro.errors import SimilarityListInvariantError


def or_lists(left: SimilarityList, right: SimilarityList) -> SimilarityList:
    """Similarity list of ``f = g ∨ h``: pointwise maximum of actuals.

    ``m(f) = max(m(g), m(h))``; every actual is bounded by its own
    operand's maximum, hence by the output maximum.  Charged to the step
    budget like the ``∧`` merge it shares its walk with.
    """
    budget = resilience.current_budget()
    if budget is not None:
        budget.charge(len(left) + len(right) + 1, site="list-merge")
    return pointwise_lists(
        left, right, max, max(left.maximum, right.maximum)
    )


def fuzzy_and_lists(
    left: SimilarityList, right: SimilarityList
) -> SimilarityList:
    """Fuzzy conjunction: ``frac(f) = min(frac(g), frac(h))``, ``m = 1``.

    An alternative similarity function (paper §5): conjunctions are only
    as good as their worst conjunct, so partial matches with one missing
    conjunct score zero — exact-match behaviour at the extremes, graded in
    between.
    """
    left_maximum = left.maximum
    right_maximum = right.maximum
    return pointwise_lists(
        left,
        right,
        lambda a, b: min(a / left_maximum, b / right_maximum),
        1.0,
    )


def bounded_eventually(
    operand: SimilarityList, window: int
) -> SimilarityList:
    """``eventually within k``: best value among the next ``k`` segments.

    ``value(u) = max{ a(u″) : u ≤ u″ ≤ u + k }``.  ``window = 0``
    degenerates to the operand itself; the unbounded operator is
    :func:`repro.core.ops.eventually_list`.

    Each entry ``[b, e] → a`` contributes ``a`` to every position in
    ``[b - k, e]``, so the result is the pointwise maximum of the
    stretched entries — computed with one boundary sweep.
    """
    if window < 0:
        raise SimilarityListInvariantError(
            f"window must be non-negative, got {window}"
        )
    stretched = [
        (max(begin - window, 1), end, actual)
        for begin, end, actual in operand.runs()
    ]
    return _pointwise_max_of_spans(stretched, operand.maximum)


def bounded_always(
    operand: SimilarityList, window: int, axis_end: int
) -> SimilarityList:
    """``always within k``: worst value among the next ``k`` segments.

    ``value(u) = min{ a(u″) : u ≤ u″ ≤ min(u + k, axis_end) }``; segments
    beyond ``axis_end`` do not exist and are not quantified over.
    """
    if window < 0:
        raise SimilarityListInvariantError(
            f"window must be non-negative, got {window}"
        )
    if axis_end < 1:
        return SimilarityList.empty(operand.maximum)
    boundaries = set()
    for begin, end in zip(operand.begins, operand.ends):
        for bound in (begin, end + 1, begin - window, end + 1 - window):
            if 1 <= bound <= axis_end + 1:
                boundaries.add(bound)
    boundaries.add(1)
    boundaries.add(axis_end + 1)
    ordered = sorted(boundaries)
    pieces: List[Tuple[int, int, float]] = []
    for start, stop in zip(ordered, ordered[1:]):
        value = _window_min(operand, start, min(start + window, axis_end))
        if value > SIM_EPS:
            pieces.append((start, stop - 1, value))
    return SimilarityList.from_sorted_pieces(pieces, operand.maximum)


def _window_min(operand: SimilarityList, lo: int, hi: int) -> float:
    """Minimum actual over ``[lo, hi]`` (0 when any gap intersects)."""
    begins, ends, actuals = operand.begins, operand.ends, operand.actuals
    worst = operand.maximum
    cursor = lo
    index = bisect.bisect_right(begins, cursor) - 1
    if index < 0:
        return 0.0
    while cursor <= hi:
        if index >= len(begins):
            return 0.0
        if cursor < begins[index] or cursor > ends[index]:
            return 0.0
        worst = min(worst, actuals[index])
        cursor = ends[index] + 1
        index += 1
    return worst


def _pointwise_max_of_spans(
    spans: List[Tuple[int, int, float]], maximum: float
) -> SimilarityList:
    """Max over possibly-overlapping weighted spans (heap sweep)."""
    if not spans:
        return SimilarityList.empty(maximum)
    singletons = [
        SimilarityList.from_sorted_pieces([span], maximum) for span in spans
    ]
    return max_merge_lists(singletons)
