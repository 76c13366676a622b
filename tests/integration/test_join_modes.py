"""Targeted demonstrations of inner (paper) vs outer (definitional) joins.

DESIGN.md §2 documents that the paper's inner join under-approximates the
∃-maximum whenever an evaluation appears on one side of a join only; these
tests construct that situation explicitly.
"""

import pytest

from repro.core.engine import EngineConfig, RetrievalEngine
from repro.htl import parse
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object

INNER = RetrievalEngine(EngineConfig(join_mode="inner"))
OUTER = RetrievalEngine(EngineConfig(join_mode="outer"))


def disjoint_support_video():
    """Object 'a' satisfies P only, object 'b' satisfies Q only.

    For the conjunction ∃x (P(x)-part ∧ Q(x)-part), every evaluation has a
    row on exactly one side, so the paper's inner join returns nothing
    while the definitional semantics award partial similarity.
    """
    return flat_video(
        "disjoint",
        [
            SegmentMetadata(objects=[make_object("a", "train")]),
            SegmentMetadata(objects=[make_object("b", "person")]),
        ],
    )


class TestDivergence:
    FORMULA = parse(
        "exists x . (present(x) and type(x) = 'train') "
        "and eventually (present(x) and type(x) = 'person')"
    )

    def test_outer_keeps_partial_matches(self):
        video = disjoint_support_video()
        outer = OUTER.evaluate_video(self.FORMULA, video)
        # x = a at segment 1: left part scores 2 (present + train), right
        # part scores 1 via presence alone (a is no person) -> 3 of 4.
        assert outer.actual_at(1) == pytest.approx(3.0)

    def test_inner_agrees_here_because_atoms_overlap(self):
        """Both atoms produce rows for both objects (presence scores
        partially for the wrong type), so the join keys match and the
        modes agree — under-approximation needs an evaluation missing
        from one table entirely."""
        video = disjoint_support_video()
        inner = INNER.evaluate_video(self.FORMULA, video)
        outer = OUTER.evaluate_video(self.FORMULA, video)
        assert inner == outer

    def test_inner_drops_one_sided_evaluations(self):
        """With relationship atoms the tables have disjoint rows ('a' only
        in holds, 'b' only in rides) and the inner join loses both."""
        video = flat_video(
            "rel-disjoint",
            [
                SegmentMetadata(
                    objects=[make_object("a", "t"), make_object("b", "t")],
                ),
            ],
        )
        video.nodes_at_level(2)[0].metadata.add_relationship(
            __import__(
                "repro.model.metadata", fromlist=["Relationship"]
            ).Relationship("holds", ("a",))
        )
        formula = parse(
            "exists x . holds(x) and eventually rides(x)"
        )
        inner = INNER.evaluate_video(formula, video)
        outer = OUTER.evaluate_video(formula, video)
        # Definitional: x=a gives holds=1, rides=0 -> 1 of 2.
        assert outer.actual_at(1) == pytest.approx(1.0)
        # Paper inner join: 'a' has no row in the (empty) rides table.
        assert inner.actual_at(1) == 0.0

    def test_modes_agree_when_both_sides_populated(self):
        video = flat_video(
            "both",
            [
                SegmentMetadata(objects=[make_object("a", "train")]),
                SegmentMetadata(objects=[make_object("a", "person")]),
            ],
        )
        formula = parse(
            "exists x . (present(x) and type(x) = 'train') "
            "and eventually (present(x) and type(x) = 'person')"
        )
        inner = INNER.evaluate_video(formula, video)
        outer = OUTER.evaluate_video(formula, video)
        assert inner == outer
        assert inner.actual_at(1) == pytest.approx(4.0)


class TestOuterJoinOverDisjointVariables:
    def test_partner_match_covers_only_its_own_assignment(self):
        """``x = o1`` satisfies the until's left side and so matches the
        ``y = o3`` witness, but ``x = o3`` satisfies no left row: the
        witness must still count for it.  x = y = o3 at segment 2 scores
        present(x) = 1 plus until = 1."""
        video = flat_video(
            "disjoint-vars",
            [
                SegmentMetadata(),
                SegmentMetadata(objects=[make_object("o3", "plane")]),
                SegmentMetadata(
                    objects=[make_object("o1", "plane", height=100)]
                ),
            ],
        )
        formula = parse(
            "exists x, y . next (present(x) and "
            "(height(x) > 50 until present(y)))"
        )
        outer = OUTER.evaluate_video(formula, video)
        assert outer.actual_at(1) == pytest.approx(2.0)
        assert outer.actual_at(2) == pytest.approx(2.0)
