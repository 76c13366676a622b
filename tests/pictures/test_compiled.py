"""The compiled atom kernel vs. the interpreting reference scorer.

``compile_atom`` (DESIGN.md §7) promises the floats of ``score`` bit for
bit, the same lazy typed errors, a binding that reads the same after the
call, and no state.  The property here checks that against ``score`` on
every scorer branch; the table-level tests check that the four call
sites in ``retrieval.py`` still build the tables the naive scan, the
naive engine and the §2.5 reference semantics build, compiling once per
indexed table build and leaving nothing behind.
"""

import dataclasses
import gc
import sys
import threading
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from benchmarks.e2e import streams
from benchmarks.e2e.workloads import K, LEVEL, SMOKE, WORKLOADS
from repro.core import resilience
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.semantics import ReferenceContext, reference_list
from repro.core.topk import top_k_across_videos
from repro.errors import (
    HTLTypeError,
    SignatureError,
    UnsupportedFormulaError,
)
from repro.htl import ast
from repro.htl.classify import is_non_temporal
from repro.htl.parser import parse
from repro.model.metadata import (
    Fact,
    Relationship,
    SegmentMetadata,
    make_object,
)
from repro.pictures import retrieval, scoring
from repro.pictures.retrieval import _EMPTY_SEGMENT, PictureRetrievalSystem
from repro.pictures.scoring import (
    FRESH_OBJECT_ID,
    compile_atom,
    exists_pool,
    score,
)
from repro.pictures.signature import resolve_clips
from repro.testing.faults import FaultSpec, inject
from tests.htl.strategies import (
    ATTR_FUNCS,
    ATTR_VARS,
    OBJECT_VARS,
    REL_NAMES,
    STRINGS,
    picture_atoms,
)
from tests.integration.test_engine_vs_oracle import assert_lists_equal

OBJECT_IDS = ["a", "b", "c"]
CONFIDENCES = [1.0, 0.5, 0.25]
VALUES = st.one_of(
    st.integers(-50, 50),
    st.sampled_from(STRINGS),
    st.booleans(),
    st.sampled_from([0.5, 50.0]),
)
UNIVERSES = [
    (),
    ("a", "b", "c", "ghost"),
    ("a", FRESH_OBJECT_ID, "b", "c"),
]


@st.composite
def facts(draw):
    return Fact(draw(VALUES), draw(st.sampled_from(CONFIDENCES)))


@st.composite
def segments(draw):
    """Segments in the vocabulary of ``tests/htl/strategies.py``."""
    objects = [
        make_object(
            object_id,
            draw(st.sampled_from(STRINGS)),
            confidence=draw(st.sampled_from(CONFIDENCES)),
            **draw(st.dictionaries(st.sampled_from(ATTR_FUNCS), facts())),
        )
        for object_id in OBJECT_IDS
        if draw(st.booleans())
    ]
    arguments = st.one_of(st.sampled_from(OBJECT_IDS + ["ghost"]), VALUES)
    relationships = draw(
        st.lists(
            st.builds(
                Relationship,
                st.sampled_from(REL_NAMES),
                st.lists(arguments, min_size=1, max_size=2).map(tuple),
                st.sampled_from(CONFIDENCES),
            ),
            max_size=3,
        )
    )
    return SegmentMetadata(
        attributes=draw(
            st.dictionaries(st.sampled_from(ATTR_FUNCS), facts())
        ),
        objects=objects,
        relationships=relationships,
        signature=draw(
            st.none()
            | st.lists(
                st.sampled_from([0.0, 1.0, 2.0, 5.0]), min_size=4, max_size=4
            ).filter(any)
        ),
    )


#: Bindings that miss variables or bind them to non-strings.
bindings = st.dictionaries(
    st.sampled_from(OBJECT_VARS + ATTR_VARS),
    st.one_of(
        st.sampled_from(OBJECT_IDS + ["ghost", FRESH_OBJECT_ID]), VALUES
    ),
)


def outcome(call):
    """What a scorer call did: its float's repr (``==`` would pass
    ``-0.0 == 0.0`` and ``1 == 1.0``) or the error it raised."""
    try:
        return repr(call())
    except (SignatureError, UnsupportedFormulaError) as error:
        return type(error), str(error)


class TestKernelEqualsReference:
    @given(
        picture_atoms(),
        segments() | st.just(_EMPTY_SEGMENT),
        bindings,
        st.sampled_from(UNIVERSES),
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_bit_identical(self, formula, segment, binding, universe, narrow):
        pool = exists_pool(universe) if universe else ()
        kernel = compile_atom(formula, narrow)
        handed = dict(binding)
        assert outcome(lambda: kernel(segment, handed, pool)) == outcome(
            lambda: score(formula, segment, binding, universe, narrow)
        )
        assert handed == binding

    def test_shadowing_exists_restores_the_outer_variable(self):
        formula = parse("exists x . (present(x) and exists x . holds_gun(x))")
        segment = SegmentMetadata(
            objects=[make_object("a", "person"), make_object("b", "person")],
            relationships=[Relationship("holds_gun", ("b",), 0.5)],
        )
        binding = {"x": "b"}
        for narrow in (False, True):
            kernel = compile_atom(formula, narrow)
            assert kernel(segment, binding, exists_pool(["a", "b"])) == 1.5
            assert kernel(segment, binding, ()) == 1.5
            assert binding == {"x": "b"}

    def test_one_kernel_on_eight_threads(self):
        """The kernel keeps no state: threads over separate bindings get
        the serial scores."""
        formula = parse(
            "exists y . (near(x, y) and height(y) > 10) "
            "or not (present(x) and [h := height(x)] h >= 50)"
        )
        sequence = [
            SegmentMetadata(
                objects=[
                    make_object(
                        object_id,
                        "person",
                        confidence=CONFIDENCES[(step + offset) % 3],
                        height=10 * ((step * offset) % 9),
                    )
                    for offset, object_id in enumerate(OBJECT_IDS, start=1)
                    if (step + offset) % 4
                ],
                relationships=[
                    Relationship(
                        "near", (OBJECT_IDS[step % 3], OBJECT_IDS[-step % 3])
                    )
                ],
            )
            for step in range(60)
        ]
        pool = exists_pool(OBJECT_IDS)
        values = (OBJECT_IDS + ["ghost"]) * 2
        expected = [
            [score(formula, s, {"x": v}, OBJECT_IDS, True) for s in sequence]
            for v in values
        ]
        kernel = compile_atom(formula, narrow=True)
        barrier = threading.Barrier(len(values), timeout=10)
        got = [None] * len(values)

        def worker(slot):
            binding = {"x": values[slot]}
            barrier.wait()
            got[slot] = [kernel(s, binding, pool) for s in sequence]

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(len(values))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected


class TestErrorsStayLazyAndTyped:
    @pytest.mark.parametrize(
        "formula, error",
        [
            (parse("looks_like('q', 0.5)"), SignatureError),
            (ast.AtomicRef("P1"), UnsupportedFormulaError),
            (ast.Not(ast.AtomicRef("P1")), UnsupportedFormulaError),
            (ast.Eventually(ast.Truth()), UnsupportedFormulaError),
            (
                ast.Compare("=", ast.AttrFunc("f", (ast.Term(),)), ast.Const(1)),
                UnsupportedFormulaError,
            ),
        ],
    )
    def test_raised_by_the_first_call_not_by_compilation(self, formula, error):
        for narrow in (False, True):
            kernel = compile_atom(formula, narrow)
            with pytest.raises(error) as raised:
                kernel(_EMPTY_SEGMENT, {}, ())
            with pytest.raises(error) as expected:
                score(formula, _EMPTY_SEGMENT, {}, (), narrow)
            assert str(raised.value) == str(expected.value)

    def test_unreached_nodes_do_not_raise(self):
        # An undefined capture fails the freeze before its body is scored.
        formula = ast.Freeze(
            "h", ast.AttrFunc("height", ()), ast.AtomicRef("P1")
        )
        assert compile_atom(formula)(_EMPTY_SEGMENT, {}, ()) == 0.0

    def test_zero_segments_score_nothing(self):
        unresolved = parse("looks_like('q', 0.5)")
        assert not PictureRetrievalSystem([]).similarity_list(
            unresolved, use_index=False
        )
        with pytest.raises(SignatureError):
            PictureRetrievalSystem([SegmentMetadata()]).similarity_list(
                unresolved, use_index=False
            )


# ---------------------------------------------------------------------------
# table level: the four call sites
# ---------------------------------------------------------------------------
def picture_subformulas(formula):
    """The maximal non-temporal subformulas — what the engine hands to
    the picture system."""
    if is_non_temporal(formula):
        return [formula]
    return [
        atom
        for child in formula.children()
        for atom in picture_subformulas(child)
    ]


@pytest.fixture(scope="module", params=["sparse", "dense"])
def corpus(request, tmp_path_factory):
    """The end-to-end benchmark's smoke-size corpus under seed 7, with
    its fixed queries resolved against its clips."""
    workdir = str(tmp_path_factory.mktemp(request.param))
    database, clips, __ = WORKLOADS[request.param](7, SMOKE, workdir).inputs()
    queries = [
        resolve_clips(parse(text), clips) for text in streams.MIX_A_FIXED
    ]
    return database, queries


class TestTablesUnchanged:
    def test_indexed_naive_and_reference_tables_agree(self, corpus):
        database, queries = corpus
        atoms = dict.fromkeys(
            atom for query in queries for atom in picture_subformulas(query)
        )
        for video in database.videos():
            pictures = video.root.pictures_at_level(LEVEL)
            universe = video.object_universe()
            context = ReferenceContext(
                nodes=video.nodes_at_level(LEVEL),
                video=video,
                level=LEVEL,
                universe=universe,
            )
            for atom in atoms:
                indexed = pictures.similarity_table(atom, universe)
                naive = pictures.similarity_table(
                    atom, universe, use_index=False
                )
                assert indexed.rows == naive.rows
                assert indexed.maximum == naive.maximum
                for row in naive.rows:
                    binding = dict(zip(naive.object_vars, row.objects))
                    assert row.sim == reference_list(atom, context, binding)

    def test_engines_and_reference_semantics_agree(self, corpus):
        database, queries = corpus
        planned = RetrievalEngine()
        naive = RetrievalEngine(EngineConfig(naive_atoms=True, plan=False))
        definitional = RetrievalEngine(EngineConfig(join_mode="outer"))
        for video in database.videos():
            context = ReferenceContext(
                nodes=video.nodes_at_level(LEVEL),
                video=video,
                level=LEVEL,
                universe=video.object_universe(),
            )
            for query in queries:
                expected = naive.evaluate_video(query, video, LEVEL)
                assert planned.evaluate_video(query, video, LEVEL) == expected
                assert_lists_equal(
                    definitional.evaluate_video(query, video, LEVEL),
                    reference_list(query, context),
                )

    def test_one_compilation_per_sweep(self, corpus, monkeypatch):
        """``compile_atom`` recurses, so count outermost calls: one per
        ``_sweep``, one per ``_score_list``."""
        database, queries = corpus
        video = next(iter(database.videos()))
        pictures = video.root.pictures_at_level(LEVEL)
        universe = video.object_universe()
        compiled = []
        monkeypatch.setattr(
            retrieval,
            "compile_atom",
            lambda atom, narrow: compiled.append((atom, narrow))
            or compile_atom(atom, narrow),
        )
        for query in queries:
            for atom in picture_subformulas(query):
                del compiled[:]
                indexed = pictures.similarity_table(atom, universe)
                assert compiled == [(atom, True)]
                del compiled[:]
                pictures.similarity_table(atom, universe, use_index=False)
                lists = len(universe) ** len(indexed.object_vars)
                assert compiled == [(atom, False)] * lists


#: Recorded at the parent commit (the interpreting scorer) by running
#: this very loop: the kernel does the same work, only faster.
#: ``sparse`` was re-recorded when the fingerprint memo was deleted: the
#: 32 pairs it used to resolve are scored (250 + 32 = 282 candidates,
#: 456 + 32 = 488 fault-site visits).  Both rows were re-recorded when
#: the planner stopped choosing indexed vs. naive per atom: every atom
#: now enters the indexed path and the density rule routes each binding.
#: On ``dense`` (0 indexed tables before) 80 of 86 bindings are routed
#: and 6 have empty support, so they skip the scan (3097 → 2917 budget
#: steps).  On ``sparse`` the 12 ``looks_like`` tables once planned naive
#: are routed: +12 tables, bindings and routed bindings, +12 fault-site
#: visits.  ``segments_scored`` / ``fingerprint_hits`` /
#: ``candidate_segments`` and the budget steps of ``sparse`` are unchanged.
PARENT_WORK = {
    "sparse": dict(
        tables=55, bindings=115, segments_scored=282, fingerprint_hits=0,
        candidate_segments=282, unbounded_bindings=12, dense_bindings=12,
        baseline_scores=103, budget_steps=1087, atom_score_visits=500,
    ),
    "dense": dict(
        tables=38, bindings=86, segments_scored=0, fingerprint_hits=0,
        candidate_segments=0, unbounded_bindings=80, dense_bindings=80,
        baseline_scores=6, budget_steps=2917, atom_score_visits=92,
    ),
}  # fmt: skip


@pytest.mark.parametrize("name", sorted(PARENT_WORK))
def test_same_work_as_the_interpreting_scorer(name, tmp_path):
    """The smoke-size request stream under seed 7: picture counters,
    budget steps and ``atom-score`` fault-site visits are the parent's."""
    database, clips, stream = WORKLOADS[name](7, SMOKE, str(tmp_path)).inputs()
    engine = RetrievalEngine()
    budget = resilience.QueryBudget(max_steps=10**9)
    never = FaultSpec(resilience.SITE_ATOM_SCORE, rate=0.0)
    with inject(never) as chaos:
        for text in stream:
            top_k_across_videos(
                engine,
                resolve_clips(parse(text), clips),
                database,
                K,
                level=LEVEL,
                budget=budget,
            )
    assert not chaos.injected
    work = dict.fromkeys(PARENT_WORK[name], 0)
    for video in database.videos():
        stats = video.root.pictures_at_level(LEVEL).stats
        for counter, value in dataclasses.asdict(stats).items():
            work[counter] += value
    work["budget_steps"] = budget.steps
    work["atom_score_visits"] = chaos.visits.get(
        resilience.SITE_ATOM_SCORE, 0
    )
    assert work == PARENT_WORK[name]


@given(picture_atoms(), st.lists(segments(), max_size=5))
@settings(max_examples=200, deadline=None)
def test_every_visited_pair_is_scored_or_a_memo_hit(formula, drawn):
    """One memo, one sweep shape: a visited (binding, segment) pair is a
    kernel call or a content-profile hit, and a swept binding visits
    exactly its candidates.  Routed bindings visit nothing."""
    system = PictureRetrievalSystem(drawn)
    try:
        system.similarity_table(formula, use_index=True)
    except HTLTypeError:
        assume(False)
    stats = system.stats
    assert stats.segments_scored + stats.fingerprint_hits == (
        stats.candidate_segments
    )


def test_a_routed_binding_charges_what_the_naive_scan_charges():
    """Per routed binding, one step for the analysis plus one per
    segment: exactly the naive scan's one step per binding plus one per
    segment, across the 256-segment charge blocks."""
    segments = [
        SegmentMetadata(
            objects=[make_object("o1", "person"), make_object("o2", "car")]
        )
        if position % 3
        else SegmentMetadata()
        for position in range(600)
    ]
    system = PictureRetrievalSystem(segments)
    atom = parse("present(x)")
    steps = {}
    for use_index in (True, False):
        budget = resilience.QueryBudget(max_steps=10**9)
        with resilience.scope(budget):
            system.similarity_table(atom, use_index=use_index)
        steps[use_index] = budget.steps
    assert system.stats.dense_bindings == 2
    assert steps[True] == steps[False] == 2 * (1 + len(segments))


class TestNothingIsKeptPerFormula:
    def test_distinct_constant_atoms_die_with_their_request(self):
        """Half of a ``mix-a`` stream carries never-repeated constants;
        scoring them must not pin one entry (and one AST) each."""
        assert not hasattr(scoring, "_exists_narrowing")
        pictures = PictureRetrievalSystem(
            [
                SegmentMetadata(objects=[make_object("a", "person", height=h)])
                for h in (50, 100, 300)
            ]
        )
        atoms = [
            parse(f"exists x . present(x) and height(x) > {constant}")
            for constant in range(1000)
        ]
        for atom in atoms:
            assert pictures.similarity_list(atom) == pictures.similarity_list(
                atom, use_index=False
            )
        alive = [weakref.ref(atom) for atom in atoms]
        del atoms, atom
        gc.collect()
        assert not any(ref() is not None for ref in alive)
