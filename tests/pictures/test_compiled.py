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
from hypothesis import assume, example, given, settings
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
    ObjectInstance,
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
    CLIP,
    OBJECT_VARS,
    REL_NAMES,
    STRINGS,
    picture_atoms,
)
from tests.integration.test_engine_vs_oracle import assert_lists_equal

OBJECT_IDS = ["a", "b", "c"]
#: ``type`` names an attribute too: an explicit ``type`` fact overrides
#: an object's type slot, which answers ``type(x)`` otherwise.
ATTRIBUTES = ATTR_FUNCS + ["type"]
CONFIDENCES = [1.0, 0.5, 0.25]
VALUES = st.one_of(
    st.integers(-50, 50),
    st.sampled_from(STRINGS),
    st.booleans(),
    st.sampled_from([0.5, 50.0]),
)
#: Empty, a video's, one carrying the fresh id, and one that omits some
#: of a segment's objects (the narrowed ∃ keeps only pool members).
UNIVERSES = [
    (),
    ("a", "b", "c", "ghost"),
    ("a", FRESH_OBJECT_ID, "b", "c"),
    ("a",),
]


@st.composite
def facts(draw):
    return Fact(draw(VALUES), draw(st.sampled_from(CONFIDENCES)))


@st.composite
def segments(draw):
    """Segments in the vocabulary of ``tests/htl/strategies.py``; now and
    then one names the fresh id as an object or a relationship argument."""
    present = [object_id for object_id in OBJECT_IDS if draw(st.booleans())]
    if draw(st.integers(0, 7)) == 0:
        present.append(FRESH_OBJECT_ID)
    objects = [
        ObjectInstance(
            object_id,
            draw(st.sampled_from(STRINGS)),
            attributes=draw(
                st.dictionaries(st.sampled_from(ATTRIBUTES), facts())
            ),
            confidence=draw(st.sampled_from(CONFIDENCES)),
        )
        for object_id in present
    ]
    arguments = st.one_of(
        st.sampled_from(OBJECT_IDS + ["ghost", FRESH_OBJECT_ID]), VALUES
    )
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
            st.dictionaries(st.sampled_from(ATTRIBUTES), facts())
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


#: A segment for the pinned examples: a person, a plane whose explicit
#: ``type`` fact overrides its slot, and a relationship naming an id
#: outside every universe.
EXAMPLE_SEGMENT = SegmentMetadata(
    objects=[
        make_object("a", "person", confidence=0.5, height=100),
        ObjectInstance(
            "b",
            "plane",
            attributes={"height": 50, "type": Fact("car", 0.5)},
            confidence=0.25,
        ),
        make_object("c", "person", height=Fact(95, 0.5)),
    ],
    relationships=[Relationship("holds_gun", ("ghost",), 0.5)],
)


#: A segment naming the fresh id as one of its objects.
FRESH_SEGMENT = SegmentMetadata(
    objects=[
        make_object(FRESH_OBJECT_ID, "person", confidence=0.5),
        make_object("a", "plane"),
    ]
)

#: The object-local one-variable ∃ shapes of the ``mix-a`` stream.
OBJECT_LOCAL = [
    "exists x . present(x) and type(x) = 'person'",
    "exists x . present(x) and height(x) > 90",
    "exists y . type(y) = 'plane'",
    "exists x . not present(x)",
]


def builder_pool(universe):
    """The pool in the form the indexed table build hands the kernel."""
    return dict.fromkeys(exists_pool(universe)) if universe else ()


class TestKernelEqualsReference:
    @given(
        picture_atoms(attributes=ATTRIBUTES),
        segments() | st.just(_EMPTY_SEGMENT),
        bindings,
        st.sampled_from(UNIVERSES),
        st.booleans(),
        st.booleans(),
    )
    # The object-local ∃ shapes of the ``mix-a`` stream, each on a pool
    # that omits one of the segment's objects.
    @example(
        parse(OBJECT_LOCAL[0]), EXAMPLE_SEGMENT, {}, ("a", "b"), True, True
    )
    @example(
        parse(OBJECT_LOCAL[1]), EXAMPLE_SEGMENT, {}, ("b", "c"), True, True
    )
    @example(
        parse(OBJECT_LOCAL[2]), EXAMPLE_SEGMENT, {"y": "a"}, ("a", "b"),
        True, True,
    )
    @example(parse(OBJECT_LOCAL[3]), EXAMPLE_SEGMENT, {}, ("a",), True, True)
    # The fresh id as a segment's object; a relationship argument that is
    # a pool member but no object of the segment; a binding loop whose
    # best object is outside the pool.
    @example(
        parse(OBJECT_LOCAL[3]), FRESH_SEGMENT, {}, ("a",), True, True
    )
    @example(
        parse("exists y . holds_gun(y)"), EXAMPLE_SEGMENT, {},
        ("a", "ghost"), True, True,
    )
    @example(
        parse("exists x . present(x) or kind() = 'battle'"), EXAMPLE_SEGMENT,
        {}, ("a",), True, True,
    )  # fmt: skip
    @settings(max_examples=400, deadline=None)
    def test_bit_identical(
        self, formula, segment, binding, universe, narrow, keyed
    ):
        """``keyed``: the pool as the table build hands it over, else
        the plain ``exists_pool`` list."""
        if keyed:
            pool = builder_pool(universe)
        else:
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


class RecordingBinding(dict):
    """A binding that records every variable a kernel writes to it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.written = []

    def __setitem__(self, name, value):
        self.written.append(name)
        super().__setitem__(name, value)


class TestObjectLocalExists:
    """A narrowed one-variable ∃ whose body reads its variable only
    through ``present`` and attribute accesses scores each instance and
    binds nothing; every other body goes through the binding loop."""

    @pytest.mark.parametrize("text", OBJECT_LOCAL)
    def test_scored_per_instance_without_binding_writes(self, text):
        formula = parse(text)
        pool = builder_pool(("a", "b", "c", "ghost"))
        binding = RecordingBinding()
        local = compile_atom(formula, narrow=True)(
            EXAMPLE_SEGMENT, binding, pool
        )
        assert binding.written == []
        looped = compile_atom(formula, narrow=False)(
            EXAMPLE_SEGMENT, binding, pool
        )
        assert binding.written
        assert repr(local) == repr(looped)

    @pytest.mark.parametrize(
        "formula",
        [
            parse("exists y . holds_gun(y)"),
            parse("exists x . present(x) and kind() = 'battle'"),
            parse("exists x . present(x) and present(z)"),
            parse("exists x . present(x) and type(z) = 'person'"),
            parse("exists x . type(x) = x"),
            parse("exists x . [h := height(x)] h > 3"),
            parse("exists x . exists y . present(x) and present(y)"),
            ast.Exists(
                ("x",),
                ast.And(
                    ast.Present(ast.ObjectVar("x")),
                    ast.LooksLike(theta=0.5, clip=CLIP),
                ),
            ),
        ],
    )
    def test_other_bodies_bind(self, formula):
        binding = RecordingBinding({"z": "a"})
        compile_atom(formula, narrow=True)(
            EXAMPLE_SEGMENT, binding, builder_pool(("a", "b"))
        )
        assert set(binding.written) & set(formula.vars)

    def test_a_segment_naming_the_fresh_id_binds_and_scores(self):
        """Here the fresh id is a real object, not the stand-in for
        every absent one, so the ∃ falls back to the binding loop."""
        formula = parse(OBJECT_LOCAL[3])
        binding = RecordingBinding()
        actual = compile_atom(formula, narrow=True)(
            FRESH_SEGMENT, binding, builder_pool(("a",))
        )
        assert binding.written
        assert actual == score(formula, FRESH_SEGMENT, {}, ("a",), True)
        # Every pool member is present: no id scores "absent" (1.0).
        assert actual == 0.5


def test_dense_type_reads_build_no_fact(tmp_path, monkeypatch):
    """An indexed table build of ``mix-a``'s first atom over the ``dense``
    smoke corpus reads ``type(x)`` from the type slot: it constructs no
    ``Fact`` and never calls ``ObjectInstance.attribute``."""
    database, __, __ = WORKLOADS["dense"](7, SMOKE, str(tmp_path)).inputs()
    counts = {"Fact": 0, "ObjectInstance.attribute": 0}
    post_init = Fact.__post_init__
    attribute = ObjectInstance.attribute

    def counting_post_init(self):
        counts["Fact"] += 1
        post_init(self)

    def counting_attribute(self, name):
        counts["ObjectInstance.attribute"] += 1
        return attribute(self, name)

    monkeypatch.setattr(Fact, "__post_init__", counting_post_init)
    monkeypatch.setattr(ObjectInstance, "attribute", counting_attribute)
    atom = parse(OBJECT_LOCAL[0])
    for video in database.videos():
        pictures = video.root.pictures_at_level(LEVEL)
        tables = pictures.stats.tables
        table = pictures.similarity_table(atom, video.object_universe())
        assert pictures.stats.tables == tables + 1
        assert table.rows
    assert counts == {"Fact": 0, "ObjectInstance.attribute": 0}
    # The wrappers count: the reference scorer builds a Fact per read.
    segment = next(s for s in pictures.segments if s.object_map())
    assert score(atom, segment, {}, video.object_universe()) > 0
    assert counts["Fact"] > 0 and counts["ObjectInstance.attribute"] > 0


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
    planner = RetrievalEngine().planner
    budget = resilience.QueryBudget(max_steps=10**9)
    never = FaultSpec(resilience.SITE_ATOM_SCORE, rate=0.0)
    with inject(never) as chaos:
        for text in stream:
            # A fresh engine (one shared planner) per request: a list
            # memo hit would skip the kernel work this test pins.
            top_k_across_videos(
                RetrievalEngine(planner=planner),
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
