"""Tests for the picture-retrieval similarity tables (atoms → tables)."""

import pytest

from repro.core.ranges import Range, interval
from repro.errors import HTLTypeError
from repro.htl import parse
from repro.model.metadata import (
    Fact,
    Relationship,
    SegmentMetadata,
    make_object,
)
from repro.pictures.index import MetadataIndex
from repro.pictures.retrieval import PictureRetrievalSystem


def segments_fixture():
    return [
        SegmentMetadata(  # 1
            objects=[make_object("p1", "airplane", height=100)],
        ),
        SegmentMetadata(  # 2
            objects=[
                make_object("p1", "airplane", height=300),
                make_object("jw", "person"),
            ],
            relationships=[Relationship("holds", ("jw", "gun"))],
        ),
        SegmentMetadata(  # 3
            attributes={"kind": "battle"},
            objects=[make_object("p2", "airplane", height=300)],
        ),
    ]


@pytest.fixture
def system():
    return PictureRetrievalSystem(segments_fixture())


class TestIndex:
    def test_postings(self):
        index = MetadataIndex(segments_fixture())
        assert index.segments_with_object("p1") == (1, 2)
        assert index.segments_with_type("airplane") == (1, 2, 3)
        assert index.segments_with_relationship("holds") == (2,)
        assert index.segments_with_attribute("kind", "battle") == (3,)
        assert index.segments_with_attribute("kind", "other") == ()

    def test_universe(self):
        index = MetadataIndex(segments_fixture())
        assert index.all_object_ids() == ["p1", "jw", "p2"]
        assert sorted(index.object_ids_of_type("airplane")) == ["p1", "p2"]


class TestClosedAtoms:
    def test_closed_atom_single_row(self, system):
        table = system.similarity_table(parse("kind() = 'battle'"))
        assert table.object_vars == ()
        sim = table.closed_list()
        assert sim.to_segment_values() == {3: pytest.approx(1.0)}

    def test_exists_atom(self, system):
        sim = system.similarity_list(
            parse("exists x . present(x) and type(x) = 'person'")
        )
        # Partial matching: a present non-person still scores the presence
        # condition, so segments 1 and 3 keep similarity 1 of 2.
        assert sim.to_segment_values() == {
            1: pytest.approx(1.0),
            2: pytest.approx(2.0),
            3: pytest.approx(1.0),
        }
        assert sim.maximum == pytest.approx(2.0)


class TestObjectVariableTables:
    def test_one_row_per_relevant_object(self, system):
        table = system.similarity_table(parse("present(x)"))
        assert table.object_vars == ("x",)
        by_object = {row.objects[0]: row.sim for row in table.rows}
        assert by_object["p1"].to_segment_values() == {1: 1.0, 2: 1.0}
        assert by_object["jw"].to_segment_values() == {2: 1.0}
        assert by_object["p2"].to_segment_values() == {3: 1.0}

    def test_partial_match_rows(self, system):
        table = system.similarity_table(
            parse("present(x) and type(x) = 'airplane'")
        )
        by_object = {row.objects[0]: row.sim for row in table.rows}
        # jw is present at 2 but not an airplane: partial similarity 1 of 2.
        assert by_object["jw"].actual_at(2) == pytest.approx(1.0)
        assert by_object["p1"].actual_at(1) == pytest.approx(2.0)

    def test_two_variables_cross_product(self, system):
        table = system.similarity_table(parse("holds(x, 'gun')"))
        assert table.object_vars == ("x",)
        by_object = {row.objects[0]: row.sim for row in table.rows}
        assert list(by_object) == ["jw"]


class TestAttributeVariableTables:
    def test_integer_partition(self, system):
        # height(x) > h for object p1: heights are 100 (seg 1), 300 (seg 2).
        table = system.similarity_table(parse("height(x) > @h"))
        rows_p1 = [row for row in table.rows if row.objects[0] == "p1"]
        assert table.attr_vars == ("h",)
        by_range = {row.ranges[0]: row.sim for row in rows_p1}
        # h <= 99: both segments satisfy height > h.
        assert by_range[interval(None, 99)].to_segment_values() == {
            1: 1.0,
            2: 1.0,
        }
        # h in [100, 299]: only segment 2 (height 300).
        assert by_range[interval(100, 100)].to_segment_values() == {2: 1.0}
        assert by_range[interval(101, 299)].to_segment_values() == {2: 1.0}
        # h >= 300: nothing - no row.
        assert interval(300, None) not in by_range
        assert interval(301, None) not in by_range

    def test_string_partition(self, system):
        table = system.similarity_table(parse("type(x) = @k"))
        rows = [row for row in table.rows if row.objects[0] == "p1"]
        by_range = {row.ranges[0]: row.sim for row in rows}
        exact = Range(exact="airplane")
        assert exact in by_range
        assert by_range[exact].to_segment_values() == {1: 1.0, 2: 1.0}
        # The complement row (any other string) has no satisfied segments.
        assert all(
            not r.is_complement() for r in by_range
        ), "complement row should be dropped when its list is empty"

    def test_partial_match_keeps_complement_row(self, system):
        formula = parse("present(x) and height(x) > @h")
        table = system.similarity_table(formula)
        rows_p1 = {
            row.ranges[0]: row.sim
            for row in table.rows
            if row.objects[0] == "p1"
        }
        # For h >= 300 the comparison fails everywhere but presence still
        # scores: partial similarity 1 of 2.
        high = rows_p1[interval(301, None)]
        assert high.to_segment_values() == {1: 1.0, 2: 1.0}

    def test_mixed_typing_rejected(self, system):
        with pytest.raises(HTLTypeError):
            system.similarity_table(
                parse("height(x) > @h and type(x) = @h")
            )

    def test_attr_var_in_relationship_rejected(self, system):
        with pytest.raises(HTLTypeError):
            system.similarity_table(parse("holds(x, @h)"))

    def test_attr_var_both_sides_rejected(self, system):
        with pytest.raises(HTLTypeError):
            system.similarity_table(parse("@h = @k"))


class TestTemporalRejected:
    def test_temporal_atom_rejected(self, system):
        from repro.errors import UnsupportedFormulaError

        with pytest.raises(UnsupportedFormulaError):
            system.similarity_table(parse("eventually true"))
