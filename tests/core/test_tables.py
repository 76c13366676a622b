"""Tests for similarity tables: joins, projection, freeze machinery."""

import pytest

from repro.core.ops import and_lists, until_lists
from repro.core.ranges import FULL, Range, interval
from repro.core.simlist import SimilarityList
from repro.core.tables import INNER, OUTER, SimilarityTable, TableRow
from repro.core.value_tables import (
    ValueRow,
    ValueTable,
    build_value_table,
    freeze_join,
    restrict_to_intervals,
)
from repro.core.intervals import Interval
from repro.errors import HTLTypeError
from repro.htl import ast
from repro.model.metadata import SegmentMetadata, make_object


def sim(entries, maximum):
    return SimilarityList.from_entries(entries, maximum)


def table(object_vars, rows, maximum, attr_vars=()):
    built = [
        TableRow(tuple(objects), tuple(ranges), sim_list)
        for objects, ranges, sim_list in rows
    ]
    return SimilarityTable(object_vars, attr_vars, built, maximum)


class TestBasics:
    def test_closed(self):
        closed = SimilarityTable.closed(sim([((1, 3), 1.0)], 2.0))
        assert closed.is_closed()
        assert len(closed) == 1
        assert closed.closed_list().actual_at(2) == 1.0

    def test_closed_empty_list(self):
        closed = SimilarityTable.closed(SimilarityList.empty(2.0))
        # The row survives (joins must see the evaluation), the list is empty.
        assert len(closed) == 1
        assert not closed.closed_list()

    def test_closed_list_requires_no_columns(self):
        open_table = table(("x",), [(("a",), (), sim([((1, 1), 1.0)], 2.0))], 2.0)
        with pytest.raises(HTLTypeError):
            open_table.closed_list()

    def test_row_arity_checked(self):
        with pytest.raises(HTLTypeError):
            table(("x",), [((), (), sim([((1, 1), 1.0)], 2.0))], 2.0)

    def test_map_lists_keeps_structure(self):
        from repro.core.ops import next_list

        t = table(
            ("x",),
            [
                (("a",), (), sim([((2, 4), 1.0)], 2.0)),
                (("b",), (), sim([((1, 1), 1.0)], 2.0)),
            ],
            2.0,
        )
        shifted = t.map_lists(next_list)
        assert shifted.object_vars == ("x",)
        # b's single entry at 1 falls off the axis; its row stays, empty.
        assert len(shifted.rows) == 2
        assert sum(1 for row in shifted.rows if row.sim) == 1


class TestInnerJoin:
    def test_join_on_common_variable(self):
        left = table(
            ("x",),
            [
                (("a",), (), sim([((1, 2), 1.0)], 2.0)),
                (("b",), (), sim([((3, 3), 1.0)], 2.0)),
            ],
            2.0,
        )
        right = table(
            ("x",),
            [(("a",), (), sim([((2, 4), 1.5)], 3.0))],
            3.0,
        )
        joined = left.combine(right, and_lists, mode=INNER)
        assert joined.object_vars == ("x",)
        assert joined.maximum == pytest.approx(5.0)
        assert len(joined.rows) == 1
        assert joined.rows[0].objects == ("a",)
        assert joined.rows[0].sim.actual_at(2) == pytest.approx(2.5)

    def test_cross_product_when_no_common(self):
        left = table(("x",), [(("a",), (), sim([((1, 1), 1.0)], 2.0))], 2.0)
        right = table(
            ("y",),
            [
                (("c",), (), sim([((1, 1), 1.0)], 2.0)),
                (("d",), (), sim([((2, 2), 1.0)], 2.0)),
            ],
            2.0,
        )
        joined = left.combine(right, and_lists, mode=INNER)
        assert joined.object_vars == ("x", "y")
        assert len(joined.rows) == 2

    def test_shared_attr_ranges_intersected(self):
        left = table(
            (),
            [((), (interval(1, 10),), sim([((1, 1), 1.0)], 2.0))],
            2.0,
            attr_vars=("h",),
        )
        right = table(
            (),
            [((), (interval(5, 20),), sim([((1, 1), 1.0)], 2.0))],
            2.0,
            attr_vars=("h",),
        )
        joined = left.combine(right, and_lists, mode=INNER)
        assert joined.rows[0].ranges == (interval(5, 10),)

    def test_disjoint_attr_ranges_drop_row(self):
        left = table(
            (),
            [((), (interval(1, 4),), sim([((1, 1), 1.0)], 2.0))],
            2.0,
            attr_vars=("h",),
        )
        right = table(
            (),
            [((), (interval(6, 9),), sim([((1, 1), 1.0)], 2.0))],
            2.0,
            attr_vars=("h",),
        )
        joined = left.combine(right, and_lists, mode=INNER)
        assert len(joined.rows) == 0

    def test_until_operator_join(self):
        left = table((), [((), (), sim([((1, 10), 2.0)], 2.0))], 2.0)
        right = table((), [((), (), sim([((5, 6), 3.0)], 4.0))], 4.0)

        def op(a, b):
            return until_lists(a, b, 0.5)

        joined = left.combine(right, op, mode=INNER)
        assert joined.maximum == pytest.approx(4.0)
        assert joined.rows[0].sim.actual_at(1) == pytest.approx(3.0)


class TestOuterJoin:
    def test_unmatched_left_row_kept(self):
        left = table(
            ("x",),
            [
                (("a",), (), sim([((1, 2), 1.0)], 2.0)),
                (("b",), (), sim([((3, 3), 1.5)], 2.0)),
            ],
            2.0,
        )
        right = table(("x",), [(("a",), (), sim([((2, 4), 1.5)], 3.0))], 3.0)
        joined = left.combine(right, and_lists, mode=OUTER, universe=("a", "b"))
        by_object = {row.objects[0]: row.sim for row in joined.rows}
        assert by_object["b"].actual_at(3) == pytest.approx(1.5)
        assert by_object["a"].actual_at(2) == pytest.approx(2.5)

    def test_unmatched_right_row_kept(self):
        left = table(("x",), [(("a",), (), sim([((1, 2), 1.0)], 2.0))], 2.0)
        right = table(("x",), [(("c",), (), sim([((5, 5), 2.0)], 3.0))], 3.0)
        joined = left.combine(right, and_lists, mode=OUTER, universe=("a", "c"))
        by_object = {row.objects[0]: row.sim for row in joined.rows}
        assert by_object["c"].actual_at(5) == pytest.approx(2.0)

    def test_missing_side_variables_expanded_over_universe(self):
        left = table(("x",), [(("a",), (), sim([((1, 1), 1.0)], 2.0))], 2.0)
        right = table(("y",), [], 3.0)
        joined = left.combine(right, and_lists, mode=OUTER, universe=("a", "b"))
        assert joined.object_vars == ("x", "y")
        keys = {row.objects for row in joined.rows}
        assert keys == {("a", "a"), ("a", "b")}

    def test_shared_attr_remainders_emitted(self):
        left = table(
            (),
            [((), (interval(1, 10),), sim([((1, 1), 1.0)], 2.0))],
            2.0,
            attr_vars=("h",),
        )
        right = table(
            (),
            [((), (interval(4, 6),), sim([((1, 1), 1.0)], 2.0))],
            2.0,
            attr_vars=("h",),
        )
        joined = left.combine(right, and_lists, mode=OUTER)
        by_range = {row.ranges[0]: row.sim for row in joined.rows}
        assert by_range[interval(4, 6)].actual_at(1) == pytest.approx(2.0)
        assert by_range[interval(1, 3)].actual_at(1) == pytest.approx(1.0)
        assert by_range[interval(7, 10)].actual_at(1) == pytest.approx(1.0)

    def test_until_right_only_row_survives_outer(self):
        """until(∅, h) = h at the witness itself - the right-only rows
        matter for until, which is why the outer join covers both sides."""
        left = table(("x",), [], 2.0)
        right = table(("x",), [(("c",), (), sim([((5, 5), 2.0)], 3.0))], 3.0)

        def op(a, b):
            return until_lists(a, b, 0.5)

        joined = left.combine(right, op, mode=OUTER, universe=("c",))
        assert len(joined.rows) == 1
        assert joined.rows[0].sim.actual_at(5) == pytest.approx(2.0)

    def test_match_covers_only_the_partners_own_assignment(self):
        """A right row matched by the left row ``x=a`` still holds, with an
        empty left list, for every other ``x`` of the universe."""
        left = table(("x",), [(("a",), (), sim([((3, 3), 1.0)], 1.0))], 1.0)
        right = table(("y",), [(("b",), (), sim([((2, 2), 1.0)], 1.0))], 1.0)

        def op(a, b):
            return until_lists(a, b, 0.5)

        joined = left.combine(right, op, mode=OUTER, universe=("a", "b"))
        by_objects = {row.objects: row.sim for row in joined.rows}
        assert by_objects[("a", "b")].actual_at(2) == pytest.approx(1.0)
        assert by_objects[("b", "b")].actual_at(2) == pytest.approx(1.0)
        assert ("b", "a") not in by_objects


class TestProjectExists:
    def test_projection_max_merges(self):
        t = table(
            ("x",),
            [
                (("a",), (), sim([((1, 4), 1.0)], 2.0)),
                (("b",), (), sim([((3, 6), 1.5)], 2.0)),
            ],
            2.0,
        )
        projected = t.project_exists(["x"])
        assert projected.is_closed()
        merged = projected.closed_list()
        assert merged.actual_at(2) == pytest.approx(1.0)
        assert merged.actual_at(3) == pytest.approx(1.5)
        assert merged.actual_at(6) == pytest.approx(1.5)

    def test_partial_projection(self):
        t = table(
            ("x", "y"),
            [
                (("a", "c"), (), sim([((1, 1), 1.0)], 2.0)),
                (("b", "c"), (), sim([((1, 1), 1.5)], 2.0)),
                (("a", "d"), (), sim([((2, 2), 1.0)], 2.0)),
            ],
            2.0,
        )
        projected = t.project_exists(["x"])
        assert projected.object_vars == ("y",)
        by_object = {row.objects[0]: row.sim for row in projected.rows}
        assert by_object["c"].actual_at(1) == pytest.approx(1.5)
        assert by_object["d"].actual_at(2) == pytest.approx(1.0)

    def test_unknown_variable_rejected(self):
        t = table(("x",), [], 2.0)
        with pytest.raises(HTLTypeError):
            t.project_exists(["zz"])

    def test_overlapping_ranges_refined(self):
        t = SimilarityTable(
            ("x",),
            ("h",),
            [
                TableRow(("a",), (interval(1, 10),), sim([((1, 1), 1.0)], 2.0)),
                TableRow(("b",), (interval(5, 20),), sim([((1, 1), 1.5)], 2.0)),
            ],
            2.0,
        )
        projected = t.project_exists(["x"])
        by_range = {row.ranges[0]: row.sim for row in projected.rows}
        assert by_range[interval(1, 4)].actual_at(1) == pytest.approx(1.0)
        assert by_range[interval(5, 10)].actual_at(1) == pytest.approx(1.5)
        assert by_range[interval(11, 20)].actual_at(1) == pytest.approx(1.5)


class TestValueTables:
    def segments(self):
        return [
            SegmentMetadata(objects=[make_object("p", "plane", height=100)]),
            SegmentMetadata(objects=[make_object("p", "plane", height=100)]),
            SegmentMetadata(objects=[make_object("p", "plane", height=300)]),
            SegmentMetadata(objects=[make_object("q", "plane", height=50)]),
        ]

    def test_build_value_table(self):
        func = ast.AttrFunc("height", (ast.ObjectVar("x"),))
        value_table = build_value_table(func, self.segments())
        assert value_table.object_vars == ("x",)
        rows = {
            (row.objects, row.value): row.intervals for row in value_table.rows
        }
        assert rows[(("p",), 100)] == (Interval(1, 2),)
        assert rows[(("p",), 300)] == (Interval(3, 3),)
        assert rows[(("q",), 50)] == (Interval(4, 4),)

    def test_segment_attribute_value_table(self):
        segments = [
            SegmentMetadata(attributes={"kind": "a"}),
            SegmentMetadata(attributes={"kind": "a"}),
            SegmentMetadata(),
        ]
        func = ast.AttrFunc("kind", ())
        value_table = build_value_table(func, segments)
        assert len(value_table.rows) == 1
        assert value_table.rows[0].value == "a"
        assert value_table.rows[0].intervals == (Interval(1, 2),)

    def test_capture_of_attr_var_expression_rejected(self):
        func = ast.AttrFunc("height", (ast.AttrVar("h"),))
        with pytest.raises(HTLTypeError):
            build_value_table(func, [])

    def test_restrict_to_intervals(self):
        base = sim([((1, 10), 1.0), ((20, 30), 2.0)], 3.0)
        cut = restrict_to_intervals(base, [Interval(5, 22), Interval(28, 40)])
        assert cut.to_segment_values() == {
            **{i: 1.0 for i in range(5, 11)},
            **{i: 2.0 for i in range(20, 23)},
            **{i: 2.0 for i in range(28, 31)},
        }


class TestFreezeJoin:
    def test_join_drops_frozen_column(self):
        body = SimilarityTable(
            ("x",),
            ("h",),
            [
                TableRow(("p",), (interval(None, 99),), sim([((1, 3), 1.0)], 2.0)),
                TableRow(("p",), (interval(100, 299),), sim([((3, 3), 1.0)], 2.0)),
            ],
            2.0,
        )
        value_table = ValueTable(
            ("x",),
            [
                ValueRow(("p",), 100, (Interval(1, 2),)),
                ValueRow(("p",), 300, (Interval(3, 3),)),
            ],
        )
        joined = freeze_join(body, "h", value_table)
        assert joined.attr_vars == ()
        assert joined.object_vars == ("x",)
        # Captured value 100 (segments 1-2) matches the [100,299] row whose
        # list covers segment 3 only - no intersection; and matches the
        # (-inf,99] row not at all. Captured 300 (segment 3) matches the
        # [100,299]... no - 300 > 299. So only 100∈[100,299] joins, with
        # list {3} ∩ segments{1,2} = ∅.
        assert len(joined.rows) == 0

    def test_join_intersects_capture_intervals(self):
        body = SimilarityTable(
            ("x",),
            ("h",),
            [TableRow(("p",), (interval(None, 200),), sim([((1, 5), 1.0)], 2.0))],
            2.0,
        )
        value_table = ValueTable(
            ("x",), [ValueRow(("p",), 150, (Interval(2, 3),))]
        )
        joined = freeze_join(body, "h", value_table)
        assert len(joined.rows) == 1
        assert joined.rows[0].sim.to_segment_values() == {2: 1.0, 3: 1.0}

    def test_unconstrained_freeze_keeps_defined_segments(self):
        body = SimilarityTable(
            ("x",),
            (),
            [TableRow(("p",), (), sim([((1, 5), 1.0)], 2.0))],
            2.0,
        )
        value_table = ValueTable(
            ("x",), [ValueRow(("p",), 100, (Interval(2, 4),))]
        )
        joined = freeze_join(body, "h", value_table)
        assert joined.rows[0].sim.to_segment_values() == {2: 1.0, 3: 1.0, 4: 1.0}
