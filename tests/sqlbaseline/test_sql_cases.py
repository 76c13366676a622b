"""Hand-picked edge cases: the SQLite scripts equal the direct engine.

The hypothesis properties of ``test_translate.py`` draw random lists; this
table pins the inputs each construct of the translated scripts has to get
right on SQLite, so a regression names its case:

* empty operands — anti-joins against nothing, windows over no rows,
  ``until`` with no runs;
* a one-segment axis and intervals touching both axis ends — ``next``'s
  ``end_id > 1`` filter and ``MAX(beg_id - 1, 1)``;
* adjacent thresholded intervals — gaps-and-islands run coalescing;
* values just below and exactly at the ``until`` threshold;
* witnesses one past a run, straddling its start, or ending before it —
  the two candidate statements and the ``INDEXED BY`` straddler probe;
* tied actuals — the suffix ``MAX`` window.

Every list has maximum 4.0, so the default threshold 0.5 puts the
``until`` bound at 2.0.
"""

import pytest

from repro.core.engine import RetrievalEngine
from repro.core.simlist import SimilarityList
from repro.htl import parse
from repro.model.hierarchy import flat_video
from repro.model.metadata import Relationship, SegmentMetadata, make_object
from repro.sqlbaseline import SQLRetrievalSystem, Type2SQLSystem

MAXIMUM = 4.0


def sim(*entries):
    return SimilarityList.from_entries(list(entries), MAXIMUM)


#: name -> (axis length, P1, P2)
CASES = {
    "empty-left": (12, sim(), sim(((2, 4), 3.0), ((9, 12), 1.0))),
    "empty-right": (12, sim(((1, 5), 3.0)), sim()),
    "both-empty": (6, sim(), sim()),
    "one-segment-axis": (1, sim(((1, 1), 2.5)), sim(((1, 1), 4.0))),
    "axis-ends": (
        10,
        sim(((1, 1), 3.0), ((10, 10), 2.5)),
        sim(((1, 2), 1.5), ((9, 10), 4.0)),
    ),
    "whole-axis": (8, sim(((1, 8), 2.0)), sim(((3, 3), 1.0))),
    "adjacent-runs": (
        15,
        sim(((1, 3), 3.0), ((4, 6), 2.5), ((7, 7), 3.5), ((10, 12), 4.0)),
        sim(((5, 5), 1.0), ((8, 8), 2.0), ((13, 13), 3.0)),
    ),
    "below-threshold": (
        10,
        sim(((1, 4), 1.0), ((6, 9), 1.9)),
        sim(((3, 3), 2.0), ((7, 10), 1.0)),
    ),
    "at-threshold": (
        10,
        sim(((1, 4), 2.0), ((6, 9), 2.0)),
        sim(((3, 3), 2.0), ((7, 10), 1.0)),
    ),
    "straddling-witness": (
        12,
        sim(((4, 8), 3.0)),
        sim(((2, 5), 2.0), ((7, 7), 3.5), ((11, 12), 1.0)),
    ),
    "witness-before-run": (
        12,
        sim(((4, 8), 3.0)),
        sim(((1, 2), 3.0), ((10, 10), 2.5)),
    ),
    "tied-actuals": (
        8,
        sim(((1, 2), 2.0), ((4, 5), 2.0)),
        sim(((1, 1), 2.0), ((3, 3), 2.0), ((5, 5), 2.0), ((7, 8), 2.0)),
    ),
    "identical": (
        9,
        sim(((2, 3), 2.5), ((5, 9), 3.0)),
        sim(((2, 3), 2.5), ((5, 9), 3.0)),
    ),
}

FORMULAS = {
    "and": "$P1 and $P2",
    "next": "next $P1",
    "eventually": "eventually $P2",
    "until": "$P1 until $P2",
    "until-reversed": "$P2 until $P1",
    "nested": "eventually ($P1 and next $P2)",
}


@pytest.mark.parametrize("formula", sorted(FORMULAS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_type1_case(case, formula):
    n_segments, p1, p2 = CASES[case]
    lists = {"P1": p1, "P2": p2}
    parsed = parse(FORMULAS[formula])
    system = SQLRetrievalSystem()
    system.load_segments(n_segments)
    for name, sim_list in lists.items():
        system.load_atomic(name, sim_list)
    direct = RetrievalEngine().combine_lists(parsed, lists)
    assert system.evaluate(parsed) == direct


def shots(*objects_per_shot, near=()):
    """A flat video whose shot k holds the ``(id, type)`` pairs given;
    ``near`` lists ``(shot, a, b)`` relationships."""
    video = flat_video(
        "cases",
        [
            SegmentMetadata(
                objects=[make_object(name, kind) for name, kind in objects]
            )
            for objects in objects_per_shot
        ],
    )
    for shot, a, b in near:
        video.nodes_at_level(2)[shot - 1].metadata.add_relationship(
            Relationship("near", (a, b))
        )
    return video


VIDEOS = {
    "no-objects": shots((), (), ()),
    "one-shot": shots((("a", "train"), ("b", "person"))),
    "type-changes": shots(
        (("a", "train"),),
        (("a", "person"), ("b", "train")),
        (),
        (("b", "person"),),
        (("a", "train"), ("b", "train")),
        near=[(2, "a", "b"), (5, "b", "a")],
    ),
}

TYPE2_FORMULAS = {
    "and-shared-variable": (
        "exists x . (present(x) and type(x) = 'train') "
        "and eventually (present(x) and type(x) = 'person')"
    ),
    "next-from-first-shot": "exists x . next (present(x) and type(x) = 'person')",
    "until-two-variables": (
        "exists x, y . present(x) until (near(x, y) and present(y))"
    ),
    "eventually-over-next": (
        "exists x . eventually (present(x) and next present(x))"
    ),
    "disjoint-variables": (
        "exists x, y . (present(x) and type(x) = 'train') "
        "and next (present(y) and type(y) = 'person')"
    ),
}


@pytest.mark.parametrize("formula", sorted(TYPE2_FORMULAS))
@pytest.mark.parametrize("video", sorted(VIDEOS))
def test_type2_case(video, formula):
    parsed = parse(TYPE2_FORMULAS[formula])
    direct = RetrievalEngine().evaluate_video(parsed, VIDEOS[video])
    assert Type2SQLSystem().evaluate_on_video(parsed, VIDEOS[video]) == direct
