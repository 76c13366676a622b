"""Index-driven atom evaluation vs. the naive full-scan oracle.

The support-set/baseline decomposition (DESIGN.md §7) claims the indexed
path is list-for-list identical to the definitional scan on *every*
non-temporal formula — including ¬/∨ atoms whose empty-segment baseline
is nonzero, attribute variables, and ∃-pools under exact narrowing.
These tests check that claim property-style, plus the soundness of the
analysis itself (nothing outside the candidate set is ever visited).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import LEVEL, SMOKE, WORKLOADS
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.errors import HTLTypeError
from repro.htl import ast
from repro.htl.parser import parse
from repro.htl.variables import free_object_vars
from repro.model.metadata import (
    Relationship,
    SegmentMetadata,
    make_object,
)
from repro.pictures.retrieval import PictureRetrievalSystem
from repro.pictures.scoring import FRESH_OBJECT_ID
from tests.integration.strategies import (
    HEIGHTS,
    KINDS,
    TYPES,
    flat_videos,
    segment_metadata,
    type1_formulas,
    type2_formulas,
)

VAR_SETS = [(), ("x",), ("x", "y")]


# ---------------------------------------------------------------------------
# formula strategy: non-temporal atoms with ¬ / ∨ / weights / ∃ / attr vars
# ---------------------------------------------------------------------------
def _leaves(var_names):
    options = [
        st.just(ast.Truth()),
        st.sampled_from(KINDS).map(
            lambda k: ast.Compare("=", ast.AttrFunc("kind", ()), ast.Const(k))
        ),
    ]
    for name in var_names:
        var = ast.ObjectVar(name)
        options.extend(
            [
                st.just(ast.Present(var)),
                st.sampled_from(TYPES).map(
                    lambda t, v=var: ast.Compare(
                        "=", ast.AttrFunc("type", (v,)), ast.Const(t)
                    )
                ),
                st.sampled_from(HEIGHTS).map(
                    lambda h, v=var: ast.Compare(
                        ">", ast.AttrFunc("height", (v,)), ast.Const(h)
                    )
                ),
            ]
        )
    if len(var_names) >= 2:
        options.append(
            st.just(
                ast.Rel(
                    "near",
                    (ast.ObjectVar(var_names[0]), ast.ObjectVar(var_names[1])),
                )
            )
        )
    return st.one_of(options)


def _extend(children):
    return st.one_of(
        st.tuples(children, children).map(lambda pair: ast.And(*pair)),
        st.tuples(children, children).map(lambda pair: ast.Or(*pair)),
        children.map(ast.Not),
        children.map(lambda sub: ast.Weighted(2.5, sub)),
    )


@st.composite
def nontemporal_atoms(draw):
    """Non-temporal formulas: free/quantified object vars, ¬, ∨, weights,
    optionally a free attribute variable or a freeze capture."""
    var_names = draw(st.sampled_from(VAR_SETS))
    body = draw(st.recursive(_leaves(var_names), _extend, max_leaves=4))
    if var_names and draw(st.booleans()):
        body = ast.Exists(tuple(var_names), body)
        var_names = ()
    if draw(st.booleans()):
        anchor = ast.ObjectVar(var_names[0]) if var_names else None
        func = (
            ast.AttrFunc("height", (anchor,))
            if anchor is not None
            else ast.AttrFunc("kind", ())
        )
        shape = draw(st.integers(0, 1))
        if shape == 0 and anchor is not None:
            # free attribute variable (bare on one comparison side)
            op = draw(st.sampled_from([">", "<=", "="]))
            body = ast.And(body, ast.Compare(op, func, ast.AttrVar("g")))
        elif anchor is not None:
            # freeze capture compared inside the atom
            body = ast.Freeze(
                "h", func, ast.And(body, ast.Compare(">=", func, ast.AttrVar("h")))
            )
    return body


@st.composite
def segment_lists(draw, max_segments=6):
    n = draw(st.integers(0, max_segments))
    return [draw(segment_metadata()) for __ in range(n)]


def assert_tables_equal(indexed, naive):
    assert indexed.object_vars == naive.object_vars
    assert indexed.attr_vars == naive.attr_vars
    assert abs(indexed.maximum - naive.maximum) <= 1e-9
    assert len(indexed.rows) == len(naive.rows)
    for mine, theirs in zip(indexed.rows, naive.rows):
        assert mine.objects == theirs.objects
        assert mine.ranges == theirs.ranges
        assert mine.sim == theirs.sim


# ---------------------------------------------------------------------------
# the oracle property
# ---------------------------------------------------------------------------
class TestIndexedEqualsNaive:
    @settings(max_examples=120, deadline=None)
    @given(segments=segment_lists(), atom=nontemporal_atoms())
    def test_similarity_table_identical(self, segments, atom):
        system = PictureRetrievalSystem(segments)
        indexed = system.similarity_table(atom, use_index=True)
        naive = system.similarity_table(atom, use_index=False)
        assert_tables_equal(indexed, naive)

    @settings(max_examples=40, deadline=None)
    @given(segments=segment_lists(), atom=nontemporal_atoms())
    def test_pruned_tables_identical(self, segments, atom):
        """A pool narrower than the sequence's objects: what the deleted
        ``prune=`` knob built, and what a caller's ``universe`` still can."""
        system = PictureRetrievalSystem(segments)
        universe = system.universe[::2]
        indexed = system.similarity_table(atom, universe, use_index=True)
        naive = system.similarity_table(atom, universe, use_index=False)
        assert_tables_equal(indexed, naive)

    @settings(max_examples=40, deadline=None)
    @given(video=flat_videos(), formula=type1_formulas())
    def test_engine_naive_atoms_flag(self, video, formula):
        indexed = RetrievalEngine().evaluate_video(formula, video)
        naive = RetrievalEngine(
            EngineConfig(naive_atoms=True)
        ).evaluate_video(formula, video)
        assert indexed == naive

    def test_negation_baseline_runs(self):
        # ¬present('o1') scores m - a > 0 on every o1-free segment: the
        # indexed path must emit the baseline over the whole complement.
        segments = [SegmentMetadata() for __ in range(50)]
        segments[24] = SegmentMetadata(
            objects=[make_object("o1", "person", confidence=0.5)]
        )
        system = PictureRetrievalSystem(segments)
        atom = ast.Exists(("x",), ast.Not(ast.Present(ast.ObjectVar("x"))))
        indexed = system.similarity_list(atom, use_index=True)
        naive = system.similarity_list(atom, use_index=False)
        assert indexed == naive
        # compressed: entire complement is at most a handful of runs
        assert len(indexed) <= 3

    def test_fresh_id_in_metadata_still_exact(self):
        # Freak case: the fresh-object sentinel appears as a relationship
        # argument, so ∃-narrowing must fall back to the full pool.
        segments = [
            SegmentMetadata(
                objects=[make_object("o1", "person")],
                relationships=[Relationship("near", (FRESH_OBJECT_ID, "o1"))],
            ),
            SegmentMetadata(),
        ]
        system = PictureRetrievalSystem(segments)
        atom = parse("exists x . not near(x, 'o1')")
        assert system.similarity_list(atom, use_index=True) == (
            system.similarity_list(atom, use_index=False)
        )

    def test_bare_variable_comparison_disables_narrowing(self):
        # x = 'o1' can distinguish absent ids, so the pool must not narrow.
        segments = [
            SegmentMetadata(objects=[make_object("o2", "plane")]),
            SegmentMetadata(),
        ]
        system = PictureRetrievalSystem(segments)
        atom = parse("exists x . x = 'o1' or present(x)")
        assert system.similarity_list(atom, use_index=True) == (
            system.similarity_list(atom, use_index=False)
        )


# ---------------------------------------------------------------------------
# the planner property: planning never changes results
# ---------------------------------------------------------------------------
class TestPlannedEqualsStructural:
    """The cost-based plan (DESIGN.md §13) changes only the evaluation
    order and the per-atom index strategy — never the ranking.  Three-way
    check: planned engine vs. structural-order engine vs. naive oracle.
    """

    def _rankings(self, formula, video):
        def outcome(config):
            # Ill-typed formulas (e.g. a free attribute variable under a
            # temporal operator) must fail identically in every mode.
            try:
                return RetrievalEngine(config).evaluate_video(formula, video)
            except HTLTypeError as error:
                return ("raised", type(error).__name__)

        planned = outcome(EngineConfig())
        structural = outcome(EngineConfig(plan=False))
        naive = outcome(EngineConfig(naive_atoms=True))
        return planned, structural, naive

    @settings(max_examples=60, deadline=None)
    @given(video=flat_videos(), formula=type1_formulas())
    def test_closed_temporal_formulas(self, video, formula):
        planned, structural, naive = self._rankings(formula, video)
        assert planned == structural
        assert planned == naive

    @settings(max_examples=60, deadline=None)
    @given(video=flat_videos(), formula=type2_formulas())
    def test_quantified_temporal_formulas(self, video, formula):
        planned, structural, naive = self._rankings(formula, video)
        assert planned == structural
        assert planned == naive

    @settings(max_examples=40, deadline=None)
    @given(
        video=flat_videos(),
        left=nontemporal_atoms(),
        right=nontemporal_atoms(),
    )
    def test_temporal_conjunctions_of_atoms(self, video, left, right):
        # ∧ of an atom with a temporal wrapper is exactly the shape the
        # planner may reorder (And is a join, the sides stay atoms).
        formula = ast.And(left, ast.Eventually(right))
        names = sorted(free_object_vars(formula))
        if names:
            formula = ast.Exists(tuple(names), formula)
        planned, structural, naive = self._rankings(formula, video)
        assert planned == structural
        assert planned == naive


# ---------------------------------------------------------------------------
# support-set soundness
# ---------------------------------------------------------------------------
class TestSupportSoundness:
    @settings(max_examples=80, deadline=None)
    @given(segments=segment_lists(), atom=nontemporal_atoms())
    def test_never_scores_outside_candidates(self, segments, atom):
        system = PictureRetrievalSystem(segments)
        system.trace_scored = []
        table = system.similarity_table(atom, use_index=True)
        object_vars = table.object_vars
        for objects, segment_id in system.trace_scored:
            binding = dict(zip(object_vars, objects))
            candidates = system.atom_support(atom, binding)
            assert segment_id in candidates, (
                f"scored segment {segment_id} outside candidates "
                f"{candidates} for binding {binding}"
            )

    def test_sparse_workload_scores_few_segments(self):
        segments = [SegmentMetadata() for __ in range(200)]
        for position in (10, 90, 150):
            segments[position] = SegmentMetadata(
                objects=[make_object("o1", "person")]
            )
        system = PictureRetrievalSystem(segments)
        atom = parse("present(x) and type(x) = 'person'")
        system.similarity_table(atom, use_index=True)
        # one binding (o1), three candidate segments: nothing else scored
        assert system.stats.segments_scored <= 3
        assert system.stats.candidate_segments == 3

    def test_profile_memo_collapses_identical_segments(self):
        # o1 in 100 of 250 segments: under the density cutoff, so swept.
        segments = [
            SegmentMetadata(objects=[make_object("o1", "person")])
            for __ in range(100)
        ] + [SegmentMetadata() for __ in range(150)]
        system = PictureRetrievalSystem(segments)
        atom = parse("present(x)")
        system.similarity_table(atom, use_index=True)
        # all 100 candidates share one content profile: scored once
        assert system.stats.segments_scored == 1
        assert system.stats.fingerprint_hits == 99

    def test_segments_differing_off_the_atom_are_each_scored(self):
        # The content profile is the only memo: candidates that agree on
        # every fact the atom reads but differ elsewhere share no entry,
        # so each is scored — to the same value.
        segments = [SegmentMetadata() for __ in range(10)]
        for position, kind in ((2, "talk"), (7, "action")):
            segments[position] = SegmentMetadata(
                objects=[make_object("o1", "person")],
                attributes={"kind": kind},
            )
        system = PictureRetrievalSystem(segments)
        table = system.similarity_table(parse("present(x)"), use_index=True)
        assert system.stats.candidate_segments == 2
        assert system.stats.segments_scored == 2
        assert system.stats.fingerprint_hits == 0
        (row,) = table.rows
        assert row.sim.actual_at(3) == row.sim.actual_at(8) > 0

    def test_a_segment_naming_the_fresh_id_is_a_candidate(self):
        """A segment whose only object carries the fresh-object id: the
        naive scan binds ∃x to it and scores 1, so the support analysis
        must keep that id's postings."""
        segments = [
            SegmentMetadata(objects=[make_object(FRESH_OBJECT_ID, "person")]),
            SegmentMetadata(),
            SegmentMetadata(),
        ]
        system = PictureRetrievalSystem(segments)
        atom = parse("exists x . present(x)")
        indexed = system.similarity_table(atom, use_index=True)
        assert_tables_equal(
            indexed, system.similarity_table(atom, use_index=False)
        )
        assert indexed.rows[0].sim.actual_at(1) == 1.0
        assert system.atom_support(atom, {}) == (1,)


# ---------------------------------------------------------------------------
# sweep work on the end-to-end benchmark's smoke corpora
# ---------------------------------------------------------------------------
#: One atom per table shape: open, closed ∃ with a relationship, and a
#: closed ∃ whose body is a negation (a nonzero baseline).
SWEEP_ATOMS = [
    "present(x) and type(x) = 'person'",
    "exists x . present(x) and holds_gun(x)",
    "exists x . not present(x)",
]
#: Seed 7, every video, every atom above: ``(bindings, segments_scored,
#: fingerprint_hits, candidate_segments, dense_bindings)`` of the indexed
#: table builds.
SMOKE_SWEEP_WORK = {
    "sparse": (24, 50, 0, 50, 0),
    "dense": (16, 0, 0, 0, 16),
}


@pytest.mark.parametrize("name", sorted(SMOKE_SWEEP_WORK))
def test_smoke_sweep_visits_exactly_its_candidates(name, tmp_path):
    """A swept binding visits exactly its candidate set, each visit a
    kernel call or a profile-memo hit; on ``dense`` the density cutoff
    routes every binding to the naive scan, so the sweep visits
    nothing.  Every indexed table equals the naive scan's."""
    database, __, __ = WORKLOADS[name](7, SMOKE, str(tmp_path)).inputs()
    work = [0] * 5
    for video in database.videos():
        pictures = video.root.pictures_at_level(LEVEL)
        for text in SWEEP_ATOMS:
            atom = parse(text)
            naive = pictures.similarity_table(atom, use_index=False)
            pictures.stats.reset()
            indexed = pictures.similarity_table(atom)
            assert indexed.object_vars == naive.object_vars
            assert indexed.attr_vars == naive.attr_vars
            assert indexed.rows == naive.rows
            stats = pictures.stats
            assert (
                stats.segments_scored + stats.fingerprint_hits
                == stats.candidate_segments
            )
            for position, value in enumerate(
                (
                    stats.bindings,
                    stats.segments_scored,
                    stats.fingerprint_hits,
                    stats.candidate_segments,
                    stats.dense_bindings,
                )
            ):
                work[position] += value
    assert tuple(work) == SMOKE_SWEEP_WORK[name]
