"""Similarity tables: evaluations × ranges × similarity lists (paper §3.2–3.3).

A similarity table for a subformula ``h`` with free object variables
``x1..xk`` and free attribute variables ``y1..ym`` has one row per relevant
evaluation: the object columns give object ids, the attribute columns give
*ranges* of values (paper §3.3), and the last column is the similarity list
of ``h`` under that evaluation.

Tables are combined with a natural join on the shared object variables
(ranges of shared attribute variables are intersected), the joined rows'
lists being merged by the operator's list algorithm (∧-merge or
until-merge).  Two join modes are provided:

* ``"inner"`` — the paper's algorithm verbatim ("simply making a join").
* ``"outer"`` — definitional-semantics mode: an evaluation present on one
  side only still produces partial similarity (``a1 + 0``), so unmatched
  rows are kept with an empty partner list, and for shared attribute
  variables the un-intersected *remainder* boxes are emitted as well.
  DESIGN.md discusses why the paper's inner join under-approximates ∃.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ranges import FULL, Range
from repro.core.simlist import SIM_EPS, SimilarityList
from repro.core.ops import max_merge_lists
from repro.errors import HTLTypeError, SimilarityListInvariantError

#: A list-combination operator, e.g. ``and_lists`` or an ``until`` closure.
ListOp = Callable[[SimilarityList, SimilarityList], SimilarityList]

#: Join modes.
INNER = "inner"
OUTER = "outer"

Box = Tuple[Range, ...]


@dataclass(frozen=True)
class TableRow:
    """One evaluation: object ids, attribute ranges, similarity list."""

    objects: Tuple[str, ...]
    ranges: Box
    sim: SimilarityList


class SimilarityTable:
    """A similarity table with named object/attribute columns."""

    __slots__ = ("object_vars", "attr_vars", "rows", "maximum")

    def __init__(
        self,
        object_vars: Sequence[str],
        attr_vars: Sequence[str],
        rows: Iterable[TableRow],
        maximum: float,
    ):
        self.object_vars: Tuple[str, ...] = tuple(object_vars)
        self.attr_vars: Tuple[str, ...] = tuple(attr_vars)
        self.rows: List[TableRow] = list(rows)
        self.maximum = float(maximum)
        for row in self.rows:
            if len(row.objects) != len(self.object_vars):
                raise HTLTypeError(
                    f"row has {len(row.objects)} object values for "
                    f"{len(self.object_vars)} object columns"
                )
            if len(row.ranges) != len(self.attr_vars):
                raise HTLTypeError(
                    f"row has {len(row.ranges)} ranges for "
                    f"{len(self.attr_vars)} attribute columns"
                )
            if abs(row.sim.maximum - self.maximum) > SIM_EPS:
                raise SimilarityListInvariantError(
                    f"row list max {row.sim.maximum} != table max {self.maximum}"
                )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def closed(cls, sim: SimilarityList) -> "SimilarityTable":
        """A variable-free table holding a single similarity list.

        The row is kept even when the list is empty: a join partner must
        still see the evaluation (the paper's joins never filter rows —
        only the picture system's "relevant evaluations" pruning does).
        """
        return cls((), (), [TableRow((), (), sim)], sim.maximum)

    @classmethod
    def empty(cls, maximum: float) -> "SimilarityTable":
        """A variable-free table with no rows (similarity 0 everywhere)."""
        return cls((), (), [], maximum)

    # ------------------------------------------------------------------
    # basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def is_closed(self) -> bool:
        return not self.object_vars and not self.attr_vars

    def closed_list(self) -> SimilarityList:
        """The single list of a closed table (empty list when no rows)."""
        if not self.is_closed():
            raise HTLTypeError(
                f"table still has columns {self.object_vars + self.attr_vars}"
            )
        if not self.rows:
            return SimilarityList.empty(self.maximum)
        if len(self.rows) == 1:
            return self.rows[0].sim
        return max_merge_lists([row.sim for row in self.rows])

    def map_lists(
        self, transform: Callable[[SimilarityList], SimilarityList]
    ) -> "SimilarityTable":
        """Apply a unary list operator (next/eventually/...) to every row."""
        new_rows = []
        new_maximum = self.maximum
        for row in self.rows:
            new_sim = transform(row.sim)
            new_maximum = new_sim.maximum
            new_rows.append(TableRow(row.objects, row.ranges, new_sim))
        if not self.rows:
            # Determine the new maximum from an empty probe list.
            new_maximum = transform(SimilarityList.empty(self.maximum)).maximum
        return SimilarityTable(
            self.object_vars, self.attr_vars, new_rows, new_maximum
        )

    # ------------------------------------------------------------------
    # join (∧ / until combination, §3.2 first part)
    # ------------------------------------------------------------------
    def combine(
        self,
        other: "SimilarityTable",
        op: ListOp,
        mode: str = INNER,
        universe: Sequence[str] = (),
    ) -> "SimilarityTable":
        """Natural-join the two tables, merging joined lists with ``op``.

        In ``"outer"`` mode, a row kept from one side only leaves the other
        side's exclusive object variables without values; since the row's
        partial similarity holds for *every* assignment of those variables,
        it is expanded over ``universe`` (the object ids of the sequence
        under evaluation) — finite, and what ∃ quantifies over anyway.
        """
        if mode not in (INNER, OUTER):
            raise HTLTypeError(f"unknown join mode {mode!r}")
        common_obj = [v for v in self.object_vars if v in other.object_vars]
        left_only_obj = [
            v for v in self.object_vars if v not in other.object_vars
        ]
        right_only_obj = [
            v for v in other.object_vars if v not in self.object_vars
        ]
        out_object_vars = tuple(common_obj + left_only_obj + right_only_obj)

        common_attr = [v for v in self.attr_vars if v in other.attr_vars]
        left_only_attr = [v for v in self.attr_vars if v not in other.attr_vars]
        right_only_attr = [
            v for v in other.attr_vars if v not in self.attr_vars
        ]
        out_attr_vars = tuple(common_attr + left_only_attr + right_only_attr)

        empty_left = SimilarityList.empty(self.maximum)
        empty_right = SimilarityList.empty(other.maximum)
        out_maximum = op(empty_left, empty_right).maximum

        left_key = _key_extractor(self.object_vars, common_obj)
        right_key = _key_extractor(other.object_vars, common_obj)
        # Rows are matched over boxes spanning ALL output attribute
        # dimensions (FULL where a side does not constrain the variable),
        # so outer-mode remainders also cover the one-sided dimensions —
        # a row must survive for values of the partner's variables that no
        # partner row covers.
        left_full_box = _full_box_extractor(self.attr_vars, out_attr_vars)
        right_full_box = _full_box_extractor(other.attr_vars, out_attr_vars)

        right_by_key: Dict[Tuple[str, ...], List[TableRow]] = {}
        for row in other.rows:
            right_by_key.setdefault(right_key(row), []).append(row)
        # A match covers only its partner's values of the partner's
        # exclusive object variables, so outer-mode consumption is kept
        # per such assignment (see ``_unmatched_rows``).
        left_own = _key_extractor(self.object_vars, left_only_obj)
        right_own = _key_extractor(other.object_vars, right_only_obj)

        out_rows: List[TableRow] = []
        matched_right: Dict[int, List[Tuple[Tuple[str, ...], Box]]] = {}
        for left_row in self.rows:
            key = left_key(left_row)
            partners = right_by_key.get(key, [])
            left_box = left_full_box(left_row)
            consumed: List[Tuple[Tuple[str, ...], Box]] = []
            for right_row in partners:
                right_box = right_full_box(right_row)
                shared = _box_intersect(left_box, right_box)
                if shared is None:
                    continue
                consumed.append((right_own(right_row), shared))
                matched_right.setdefault(id(right_row), []).append(
                    (left_own(left_row), shared)
                )
                merged = op(left_row.sim, right_row.sim)
                out_rows.append(
                    _joined_row(
                        key, left_row, right_row, self, other,
                        (), shared, merged,
                    )
                )
            if mode == OUTER:
                merged = op(left_row.sim, empty_right)
                if merged or not consumed:
                    out_rows.extend(
                        _unmatched_rows(
                            key, left_row, None, self, other,
                            left_box, consumed, merged, universe,
                        )
                    )
        if mode == OUTER:
            for right_row in other.rows:
                right_box = right_full_box(right_row)
                consumed = matched_right.get(id(right_row), [])
                merged = op(empty_left, right_row.sim)
                if merged or not consumed:
                    out_rows.extend(
                        _unmatched_rows(
                            right_key(right_row), None, right_row,
                            self, other, right_box, consumed, merged,
                            universe,
                        )
                    )
        return SimilarityTable(
            out_object_vars, out_attr_vars, out_rows, out_maximum
        )

    # ------------------------------------------------------------------
    # existential projection (§3.2 second part)
    # ------------------------------------------------------------------
    def project_exists(self, quantified: Sequence[str]) -> "SimilarityTable":
        """Eliminate object variables by max-merging their rows' lists.

        The similarity of ``∃x g`` at a segment is the maximum over
        evaluations; rows agreeing on the remaining columns are merged with
        the m-way maximum merge.  When attribute-range columns remain, the
        ranges are first refined into disjoint pieces so the maximum is
        taken only among rows that genuinely overlap.
        """
        missing = [v for v in quantified if v not in self.object_vars]
        if missing:
            raise HTLTypeError(
                f"cannot project out unknown object variables {missing}"
            )
        keep_positions = [
            position
            for position, name in enumerate(self.object_vars)
            if name not in quantified
        ]
        out_object_vars = tuple(self.object_vars[p] for p in keep_positions)

        groups: Dict[Tuple[str, ...], List[TableRow]] = {}
        for row in self.rows:
            key = tuple(row.objects[p] for p in keep_positions)
            groups.setdefault(key, []).append(row)

        out_rows: List[TableRow] = []
        for key, rows in groups.items():
            for box, members in _refine_boxes(
                [(row.ranges, row) for row in rows], len(self.attr_vars)
            ):
                merged = max_merge_lists([member.sim for member in members])
                if merged:
                    out_rows.append(TableRow(key, box, merged))
        return SimilarityTable(
            out_object_vars, self.attr_vars, out_rows, self.maximum
        )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _key_extractor(
    columns: Tuple[str, ...], common: List[str]
) -> Callable[[TableRow], Tuple[str, ...]]:
    positions = [columns.index(name) for name in common]
    return lambda row: tuple(row.objects[p] for p in positions)


def _joined_row(
    key: Tuple[str, ...],
    left_row: Optional[TableRow],
    right_row: Optional[TableRow],
    left_table: "SimilarityTable",
    right_table: "SimilarityTable",
    assignment: Tuple[str, ...],
    box: Box,
    merged: SimilarityList,
) -> TableRow:
    """Assemble one output row in the canonical column order.

    ``box`` already spans every output attribute dimension.  When one
    input row is absent (outer-join remainder), ``assignment`` gives the
    values of the other side's exclusive object variables, in that
    side's column order.
    """
    objects: List[str] = list(key)
    filler = iter(assignment)
    for row, table, partner in (
        (left_row, left_table, right_table),
        (right_row, right_table, left_table),
    ):
        for position, name in enumerate(table.object_vars):
            if name not in partner.object_vars:
                objects.append(
                    next(filler) if row is None else row.objects[position]
                )
    return TableRow(tuple(objects), box, merged)


def _unmatched_rows(
    key: Tuple[str, ...],
    left_row: Optional[TableRow],
    right_row: Optional[TableRow],
    left_table: "SimilarityTable",
    right_table: "SimilarityTable",
    box: Box,
    consumed: Sequence[Tuple[Tuple[str, ...], Box]],
    merged: SimilarityList,
    universe: Sequence[str],
) -> List[TableRow]:
    """Outer-join remainder of the one present input row.

    The absent side's exclusive object variables are expanded over
    ``universe`` — the partial similarity holds for every assignment of
    them.  ``consumed`` pairs each match the row took part in with the
    partner's values of those variables, and a match covers that
    assignment only: every other assignment keeps the whole box.
    """
    present, absent = (
        (left_table, right_table) if right_row is None
        else (right_table, left_table)
    )
    missing = sum(
        1 for name in absent.object_vars if name not in present.object_vars
    )
    covered: Dict[Tuple[str, ...], List[Box]] = {}
    for assignment, shared in consumed:
        covered.setdefault(assignment, []).append(shared)
    rows: List[TableRow] = []
    for assignment in itertools.product(universe, repeat=missing):
        for remainder in _box_difference_many(box, covered.get(assignment, [])):
            rows.append(
                _joined_row(
                    key, left_row, right_row, left_table, right_table,
                    assignment, remainder, merged,
                )
            )
    return rows


def _full_box_extractor(
    columns: Tuple[str, ...], out_attr_vars: Tuple[str, ...]
) -> Callable[[TableRow], Box]:
    """Box over every output dimension; FULL where the side lacks the var."""
    positions = [
        columns.index(name) if name in columns else None
        for name in out_attr_vars
    ]
    def extract(row: TableRow) -> Box:
        return tuple(
            FULL if position is None else row.ranges[position]
            for position in positions
        )
    return extract


def _box_intersect(left: Box, right: Box) -> Optional[Box]:
    pieces = []
    for mine, theirs in zip(left, right):
        shared = mine.intersect(theirs)
        if shared is None:
            return None
        pieces.append(shared)
    return tuple(pieces)


def _box_difference(box: Box, removed: Box) -> List[Box]:
    """``box`` minus ``removed``, as disjoint boxes (standard k-d split)."""
    if _box_intersect(box, removed) is None:
        return [box]
    result: List[Box] = []
    current = list(box)
    for dimension, (mine, theirs) in enumerate(zip(box, removed)):
        for piece in mine.difference(theirs):
            result.append(
                tuple(current[:dimension]) + (piece,) + box[dimension + 1 :]
            )
        shared = mine.intersect(theirs)
        if shared is None:  # pragma: no cover - guarded above
            return [box]
        current[dimension] = shared
    return result


def _box_difference_many(box: Box, removed: Sequence[Box]) -> List[Box]:
    remaining = [box]
    for piece in removed:
        remaining = [
            part for current in remaining for part in _box_difference(current, piece)
        ]
        if not remaining:
            break
    return remaining


def _refine_boxes(
    boxed_rows: List[Tuple[Box, TableRow]], dimensions: int
) -> List[Tuple[Box, List[TableRow]]]:
    """Partition overlapping boxes into disjoint pieces with their owners.

    With no attribute columns every row shares the single empty box.  With
    columns, each owner's box is split against the accumulated disjoint
    pieces so every output piece has a definite owner set.
    """
    if dimensions == 0:
        if not boxed_rows:
            return []
        return [((), [row for __, row in boxed_rows])]
    pieces: List[Tuple[Box, List[TableRow]]] = []
    for box, row in boxed_rows:
        leftovers = [box]
        next_pieces: List[Tuple[Box, List[TableRow]]] = []
        for existing_box, owners in pieces:
            new_leftovers: List[Box] = []
            shared_with_existing: List[Box] = []
            for part in leftovers:
                shared = _box_intersect(part, existing_box)
                if shared is None:
                    new_leftovers.append(part)
                    continue
                shared_with_existing.append(shared)
                new_leftovers.extend(_box_difference(part, shared))
            # Split the existing piece into (shared, rest).
            rest = [existing_box]
            for shared in shared_with_existing:
                rest = [
                    piece
                    for current in rest
                    for piece in _box_difference(current, shared)
                ]
                next_pieces.append((shared, owners + [row]))
            for piece in rest:
                next_pieces.append((piece, owners))
            leftovers = new_leftovers
        for part in leftovers:
            next_pieces.append((part, [row]))
        pieces = next_pieces
    return pieces
