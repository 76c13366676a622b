"""Routed bindings score each content profile once (DESIGN.md §7).

A binding the support analysis cannot bound, or whose candidates are
dense, takes a full scan.  That scan runs the kernel once per content
profile, on the profile's first segment, and expands the scores by
profile id.  These tests check the claim against the definitional
per-segment scan (``_score_list``) on sequences built to repeat content,
count its kernel runs on the benchmark's smoke corpus, and pin its
budget charges.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import FULL, K, LEVEL, SMOKE, WORKLOADS
from repro.core import resilience
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.errors import BudgetExceededError
from repro.htl.parser import parse
from repro.model.metadata import SegmentMetadata, make_object
from repro.pictures import retrieval
from repro.pictures.index import MetadataIndex
from repro.pictures.retrieval import _EMPTY_SEGMENT, PictureRetrievalSystem
from repro.pictures.signature import resolve_clips
from tests.integration.strategies import segment_metadata
from tests.pictures.test_index_driven import nontemporal_atoms
from tests.pictures.test_signature import PALETTE, signature_formulas

#: Always in the sequence, so every open atom has a binding to route.
ANCHOR = SegmentMetadata(objects=[make_object("o1", "person", height=100)])


@st.composite
def contents(draw):
    """One segment content: drawn metadata, maybe a palette signature."""
    segment = draw(segment_metadata())
    return (
        segment.attributes,
        list(segment.objects()),
        list(segment.relationships),
        draw(st.one_of(st.none(), st.sampled_from(PALETTE))),
    )


@st.composite
def repeating_sequences(draw):
    """``(segments, cut)``: a few contents, each drawn segment one of
    them with its objects, relationships and attributes reordered, so
    profiles repeat and equal content is not equal order."""
    palette = [(ANCHOR.attributes, list(ANCHOR.objects()), [], None)]
    palette += draw(st.lists(contents(), min_size=1, max_size=3))
    picks = draw(
        st.lists(st.integers(0, len(palette) - 1), min_size=1, max_size=10)
    )
    segments = [ANCHOR]
    for pick in picks:
        attributes, objects, relationships, signature = palette[pick]
        names = draw(st.permutations(sorted(attributes)))
        segments.append(
            SegmentMetadata(
                attributes={name: attributes[name] for name in names},
                objects=draw(st.permutations(objects)),
                relationships=draw(st.permutations(relationships)),
                signature=signature,
            )
        )
    return segments, draw(st.integers(1, len(segments)))


def exact_rows(table):
    """A table's rows with every float spelled by ``repr``."""
    return [
        (
            row.objects,
            row.ranges,
            repr(row.sim.maximum),
            [
                (begin, end, repr(actual))
                for begin, end, actual in zip(
                    row.sim.begins, row.sim.ends, row.sim.actuals
                )
            ],
        )
        for row in table.rows
    ]


def assert_routed_equals_naive(system, atom):
    """Every binding routed (cutoff 0): the indexed table equals the
    naive ``_score_list`` table float for float, and some binding was
    routed."""
    system.stats.reset()
    with mock.patch.object(retrieval, "DENSE_CUTOFF", 0.0):
        routed = system.similarity_table(atom, use_index=True)
    assert system.stats.unbounded_bindings > 0
    assert system.stats.unbounded_bindings == system.stats.bindings
    naive = system.similarity_table(atom, use_index=False)
    assert (routed.object_vars, routed.attr_vars) == (
        naive.object_vars,
        naive.attr_vars,
    )
    assert exact_rows(routed) == exact_rows(naive)


@settings(max_examples=150, deadline=None)
@given(
    drawn=repeating_sequences(),
    atom=st.one_of(nontemporal_atoms(), signature_formulas()),
)
def test_routed_rows_equal_the_naive_scan(drawn, atom):
    """Closed, open, narrowed-∃ and ``looks_like`` atoms over repeated
    content: fresh, and after an append of new and repeated content."""
    segments, cut = drawn
    prefix, suffix = segments[:cut], segments[cut:]
    fresh = PictureRetrievalSystem(prefix)
    assert_routed_equals_naive(fresh, atom)
    fresh.append_segments(suffix)
    assert_routed_equals_naive(fresh, atom)


def test_representatives_are_first_positions_by_profile_id():
    a = SegmentMetadata(attributes={"kind": "a"})
    b = SegmentMetadata(attributes={"kind": "b"})
    index = MetadataIndex([a, b, a, a])
    assert index.profile_representatives() == ((0, 1, 0, 0), (0, 1))
    index.append_segments([b, SegmentMetadata(), a])
    assert index.profile_representatives() == (
        (0, 1, 0, 0, 1, 2, 0),
        (0, 1, 5),
    )


# ---------------------------------------------------------------------------
# exact work on the benchmark's smoke stream
# ---------------------------------------------------------------------------
#: The smoke ``sparse`` workload (3 videos, 12 requests) over the full
#: benchmark's 320-segment videos: at the smoke length of 40 segments
#: every content profile is distinct, so routed bindings would run the
#: per-segment loop and show nothing.  At 320 segments the videos hold
#: 151, 150 and 148 profiles.
ROUTED_SIZES = dataclasses.replace(SMOKE, sparse=(3, FULL.sparse[1]))
#: Seed 7, a fresh engine per request: the parent's picture counters
#: (routing per profile changes no sweep work).
ROUTED_PICTURE_WORK = dict(
    segments_scored=2386, fingerprint_hits=13, candidate_segments=2399,
    unbounded_bindings=12, dense_bindings=12,
)  # fmt: skip
#: Kernel runs of the 12 routed bindings, 4 per video: one per profile,
#: 4 × (151 + 150 + 148).  The per-segment scan ran 12 × 320 = 3840.
ROUTED_KERNEL_RUNS = 1796


def test_smoke_routed_bindings_run_the_kernel_once_per_profile(
    tmp_path, monkeypatch
):
    """Every kernel run on a stored segment is a swept pair or one run
    per profile of a routed binding; baselines run on the empty
    segment.  Nothing else calls the kernel."""
    database, clips, stream = WORKLOADS["sparse"](
        7, ROUTED_SIZES, str(tmp_path)
    ).inputs()
    owner = {}
    for video in database.videos():
        for segment in video.root.pictures_at_level(LEVEL).segments:
            owner[id(segment)] = video.name
    runs = dict.fromkeys(owner.values(), 0)
    baselines = []
    compile_atom = retrieval.compile_atom

    def counted_compile(atom, narrow):
        kernel = compile_atom(atom, narrow)

        def counted(segment, binding, pool):
            if segment is _EMPTY_SEGMENT:
                baselines.append(None)
            else:
                runs[owner[id(segment)]] += 1
            return kernel(segment, binding, pool)

        return counted

    monkeypatch.setattr(retrieval, "compile_atom", counted_compile)
    planner = RetrievalEngine().planner
    for text in stream:
        top_k_across_videos(
            RetrievalEngine(planner=planner),
            resolve_clips(parse(text), clips),
            database,
            K,
            level=LEVEL,
        )
    work = dict.fromkeys(ROUTED_PICTURE_WORK, 0)
    routed_runs = 0
    baseline_scores = 0
    for video in database.videos():
        system = video.root.pictures_at_level(LEVEL)
        stats = system.stats
        routed = stats.unbounded_bindings * system.index.n_profiles
        assert runs[video.name] == stats.segments_scored + routed
        routed_runs += routed
        baseline_scores += stats.baseline_scores
        for counter in work:
            work[counter] += getattr(stats, counter)
    assert len(baselines) == baseline_scores
    assert work == ROUTED_PICTURE_WORK
    assert routed_runs == ROUTED_KERNEL_RUNS


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------
def test_a_step_budget_runs_out_inside_a_routed_scan_as_before():
    """600 segments of two contents, one routed binding per object: the
    support analysis charges 1 step and the scan 256 + 256 + 88.  A
    300-step budget therefore overruns at the scan's second block, at
    513 steps, exactly where the per-segment scan overran."""
    segments = [
        SegmentMetadata(
            objects=[make_object("o1", "person"), make_object("o2", "car")]
        )
        if position % 3
        else SegmentMetadata()
        for position in range(600)
    ]
    system = PictureRetrievalSystem(segments)
    assert system.index.n_profiles == 2
    budget = resilience.QueryBudget(max_steps=300)
    with resilience.scope(budget):
        with pytest.raises(BudgetExceededError) as raised:
            system.similarity_table(parse("present(x)"), use_index=True)
    error = raised.value
    assert (error.site, error.steps, budget.steps) == ("atom-scoring", 513, 513)
    assert str(error).startswith(
        "step budget of 300 exhausted after 513 steps"
    )
    assert system.stats.dense_bindings == 1
