"""Value tables for the freeze operator (paper §3.3).

The value of an attribute function ``q`` (e.g. ``height(x)``) over a video
is represented by a table ``R`` whose first columns give values of the
object variables free in ``q``, whose next column gives the value of ``q``,
and whose last column is a list of intervals of segment ids where ``q``
takes that value under that evaluation.

The freeze join combines ``R`` with the similarity table of the freeze
body: rows agree on common object variables, the captured value must fall
in the body row's range for the frozen variable, and the output similarity
list is the body list restricted to the value intervals (keeping the body
list's values on the intersections).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.core.intervals import Interval, coalesce
from repro.core.simlist import SimilarityList
from repro.core.tables import SimilarityTable, TableRow
from repro.errors import HTLTypeError
from repro.htl import ast
from repro.htl.variables import term_attr_vars, term_object_vars
from repro.model.metadata import SegmentMetadata
from repro.pictures.scoring import eval_term

CapturedValue = Union[str, int, float]


@dataclass(frozen=True)
class ValueRow:
    """One row of a value table: evaluation, captured value, id intervals."""

    objects: Tuple[str, ...]
    value: CapturedValue
    intervals: Tuple[Interval, ...]


class ValueTable:
    """The table ``R`` of paper §3.3 for one attribute function."""

    __slots__ = ("object_vars", "rows")

    def __init__(self, object_vars: Sequence[str], rows: Sequence[ValueRow]):
        self.object_vars: Tuple[str, ...] = tuple(object_vars)
        self.rows: List[ValueRow] = list(rows)

    def __len__(self) -> int:
        return len(self.rows)


def build_value_table(
    func: ast.AttrFunc, segments: Sequence[SegmentMetadata]
) -> ValueTable:
    """Materialise the value table of ``func`` over a segment sequence.

    Evaluations range over the object ids appearing in the sequence; the
    captured value at a segment is the attribute value there (confidence is
    irrelevant to *capturing* — the freeze stores the value itself).
    """
    if term_attr_vars(func):
        raise HTLTypeError(
            "freeze may not capture an expression over attribute variables: "
            f"{func!r}"
        )
    object_vars = sorted(term_object_vars(func))
    universe = _sequence_universe(segments)

    rows: Dict[Tuple[Tuple[str, ...], CapturedValue], List[int]] = {}
    for evaluation in _evaluations(object_vars, universe):
        binding = dict(zip(object_vars, evaluation))
        for segment_id, segment in enumerate(segments, start=1):
            result = eval_term(func, segment, binding)
            if result is None:
                continue
            rows.setdefault((evaluation, result[0]), []).append(segment_id)
    value_rows = [
        ValueRow(objects, value, tuple(coalesce(_runs(ids))))
        for (objects, value), ids in rows.items()
    ]
    return ValueTable(object_vars, value_rows)


def _sequence_universe(segments: Sequence[SegmentMetadata]) -> List[str]:
    seen: Dict[str, None] = {}
    for segment in segments:
        for object_id in segment.object_ids():
            seen.setdefault(object_id, None)
    return list(seen)


def _evaluations(
    object_vars: Sequence[str], universe: Sequence[str]
) -> List[Tuple[str, ...]]:
    if not object_vars:
        return [()]
    import itertools

    return list(itertools.product(universe, repeat=len(object_vars)))


def _runs(segment_ids: List[int]) -> List[Interval]:
    """Compress a sorted id list into intervals."""
    intervals: List[Interval] = []
    start = previous = None
    for segment_id in segment_ids:
        if previous is not None and segment_id == previous + 1:
            previous = segment_id
            continue
        if start is not None:
            intervals.append(Interval(start, previous))
        start = previous = segment_id
    if start is not None:
        intervals.append(Interval(start, previous))
    return intervals


def restrict_to_intervals(
    sim: SimilarityList, intervals: Sequence[Interval]
) -> SimilarityList:
    """The body list restricted to the captured-value intervals.

    Paper §3.3: "If the interval of I and J intersect then we generate an
    entry ... whose interval part is this intersection and whose similarity
    value is same as that from I."  Linear two-pointer merge over the
    list's columns; ``intervals`` must be pairwise disjoint (both callers
    coalesce them), so the pieces come out in ascending order.
    """
    begins, ends, actuals = sim.begins, sim.ends, sim.actuals
    pieces: List[Tuple[int, int, float]] = []
    entry_index = 0
    for interval in sorted(intervals):
        while entry_index < len(ends) and ends[entry_index] < interval.begin:
            entry_index += 1
        probe = entry_index
        while probe < len(begins) and begins[probe] <= interval.end:
            pieces.append(
                (
                    max(begins[probe], interval.begin),
                    min(ends[probe], interval.end),
                    actuals[probe],
                )
            )
            probe += 1
    # The normalising loop re-canonicalises: adjacent equal-valued pieces
    # produced by adjacent capture intervals must coalesce, or list
    # equality breaks.
    return SimilarityList.from_sorted_pieces(pieces, sim.maximum)


def freeze_join(
    body_table: SimilarityTable,
    frozen_var: str,
    value_table: ValueTable,
) -> SimilarityTable:
    """The freeze join of paper §3.3.

    Joins the body's similarity table with the value table on common object
    variables and on "captured value ∈ frozen-variable range"; the frozen
    variable's column disappears from the output.
    """
    if frozen_var not in body_table.attr_vars:
        # The body never constrains the frozen variable: the freeze is a
        # no-op apart from scoping, but the capture must still be possible
        # somewhere, so restrict to segments where q is defined.
        return _freeze_join_unconstrained(body_table, value_table)
    var_position = body_table.attr_vars.index(frozen_var)
    out_attr_vars = tuple(
        name for name in body_table.attr_vars if name != frozen_var
    )
    common_obj = [
        name for name in body_table.object_vars if name in value_table.object_vars
    ]
    value_only_obj = [
        name for name in value_table.object_vars
        if name not in body_table.object_vars
    ]
    out_object_vars = body_table.object_vars + tuple(value_only_obj)

    by_key: Dict[Tuple[str, ...], List[ValueRow]] = {}
    key_positions = [value_table.object_vars.index(name) for name in common_obj]
    extra_positions = [
        value_table.object_vars.index(name) for name in value_only_obj
    ]
    for value_row in value_table.rows:
        key = tuple(value_row.objects[p] for p in key_positions)
        by_key.setdefault(key, []).append(value_row)

    body_key_positions = [
        body_table.object_vars.index(name) for name in common_obj
    ]
    out_rows: List[TableRow] = []
    for body_row in body_table.rows:
        key = tuple(body_row.objects[p] for p in body_key_positions)
        var_range = body_row.ranges[var_position]
        kept_ranges = tuple(
            r for p, r in enumerate(body_row.ranges) if p != var_position
        )
        for value_row in by_key.get(key, []):
            if not var_range.contains(value_row.value):
                continue
            restricted = restrict_to_intervals(body_row.sim, value_row.intervals)
            if not restricted:
                continue
            extras = tuple(value_row.objects[p] for p in extra_positions)
            out_rows.append(
                TableRow(body_row.objects + extras, kept_ranges, restricted)
            )
    return SimilarityTable(
        out_object_vars, out_attr_vars, out_rows, body_table.maximum
    )


def _freeze_join_unconstrained(
    body_table: SimilarityTable, value_table: ValueTable
) -> SimilarityTable:
    """Freeze whose variable the body ignores: keep segments where the
    captured attribute is defined under a compatible evaluation."""
    common_obj = [
        name for name in body_table.object_vars if name in value_table.object_vars
    ]
    value_only_obj = [
        name for name in value_table.object_vars
        if name not in body_table.object_vars
    ]
    out_object_vars = body_table.object_vars + tuple(value_only_obj)
    key_positions = [value_table.object_vars.index(name) for name in common_obj]
    extra_positions = [
        value_table.object_vars.index(name) for name in value_only_obj
    ]
    by_key: Dict[Tuple[str, ...], Dict[Tuple[str, ...], List[Interval]]] = {}
    for value_row in value_table.rows:
        key = tuple(value_row.objects[p] for p in key_positions)
        extras = tuple(value_row.objects[p] for p in extra_positions)
        bucket = by_key.setdefault(key, {})
        bucket.setdefault(extras, []).extend(value_row.intervals)

    body_key_positions = [
        body_table.object_vars.index(name) for name in common_obj
    ]
    out_rows: List[TableRow] = []
    for body_row in body_table.rows:
        key = tuple(body_row.objects[p] for p in body_key_positions)
        for extras, intervals in by_key.get(key, {}).items():
            restricted = restrict_to_intervals(
                body_row.sim, coalesce(intervals)
            )
            if restricted:
                out_rows.append(
                    TableRow(
                        body_row.objects + extras, body_row.ranges, restricted
                    )
                )
    return SimilarityTable(
        out_object_vars, body_table.attr_vars, out_rows, body_table.maximum
    )
