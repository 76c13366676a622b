"""Content-signature backend: scoring, clip resolution, exactness.

The ``looks_like`` predicate (DESIGN.md §16) claims to be just another
closed non-temporal atom: the indexed sweep, the naive oracle, the
planned engine and the structural engine must all agree exactly under
¬/∨/∃/freeze composition, the L1 bound must be admissible (pruning never
changes a thresholded score), and the dense-regime cutoff must route
near-universal candidate sets to the naive scan without changing any
ranking.  These tests
check those claims property-style, mirroring ``test_index_driven.py``.
"""

import gc
import math
import random
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.e2e.workloads import K, LEVEL, SMOKE, WORKLOADS
from repro.core import cache
from repro.core.cache import ClipMemo
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.simlist import SimilarityList
from repro.core.topk import top_k_across_videos
from repro.errors import (
    HTLTypeError,
    MetadataError,
    ModelError,
    SignatureError,
    WorkloadError,
)
from repro.htl import ast
from repro.htl.parser import parse
from repro.htl.pretty import pretty
from repro.htl.variables import free_object_vars
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.model.serialize import segment_from_dict, segment_to_dict
from repro.pictures import retrieval
from repro.pictures.retrieval import DENSE_CUTOFF, PictureRetrievalSystem
from repro.pictures.scoring import compile_atom
from repro.pictures.signature import (
    ClipTable,
    average_histograms,
    bind_clip_scorers,
    clip_from_segments,
    clip_scorer,
    looks_like_atom,
    looks_like_atoms,
    looks_like_score,
    resolve_clips,
    ssim_score,
    unresolved_clip_names,
    window_bound,
    window_similarity,
)
from repro.pictures.support import SupportAnalyzer
from repro.shard import ShardedCorpus
from tests.integration.strategies import KINDS, TYPES, segment_metadata
from tests.pictures.test_index_driven import assert_tables_equal

#: A small signature palette with deliberate structure: two near-identical
#: vectors (high similarity), one distant, one uniform — so drawn θ values
#: land on both sides of real scores.
PALETTE = [
    (0.70, 0.10, 0.10, 0.10),
    (0.68, 0.12, 0.10, 0.10),
    (0.05, 0.05, 0.70, 0.20),
    (0.25, 0.25, 0.25, 0.25),
]
THETAS = [0.55, 0.80, 0.97]


def signed(segment, signature):
    """The segment with a signature attached (metadata is immutable)."""
    return SegmentMetadata(
        attributes=segment.attributes,
        objects=list(segment.objects()),
        relationships=list(segment.relationships),
        signature=signature,
    )


def count_kernel_runs(monkeypatch):
    """Wrap the clip table's kernel; the returned list grows by one
    signature per run."""
    runs = []
    compute = ClipTable._compute

    def counted(self, signature):
        runs.append(signature)
        return compute(self, signature)

    monkeypatch.setattr(ClipTable, "_compute", counted)
    return runs


# ---------------------------------------------------------------------------
# strategies: signature-bearing segments, looks_like-bearing formulas
# ---------------------------------------------------------------------------
@st.composite
def signed_segments(draw, min_segments=0, max_segments=6):
    n = draw(st.integers(min_segments, max_segments))
    segments = []
    for __ in range(n):
        segment = draw(segment_metadata())
        signature = draw(
            st.one_of(st.none(), st.sampled_from(PALETTE))
        )
        segments.append(signed(segment, signature))
    return segments


def _looks_like_leaf():
    return st.builds(
        lambda windows, theta: looks_like_atom(windows, theta, name="clip"),
        st.lists(st.sampled_from(PALETTE), min_size=1, max_size=2),
        st.sampled_from(THETAS),
    )


def _leaves(var_names):
    options = [
        _looks_like_leaf(),
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
            ]
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
def signature_formulas(draw):
    """Non-temporal formulas guaranteed to contain a ``looks_like`` atom,
    composed under ¬/∨/∧/weights, optionally ∃-closed or freeze-wrapped."""
    var_names = draw(st.sampled_from([(), ("x",)]))
    body = draw(st.recursive(_leaves(var_names), _extend, max_leaves=4))
    if not looks_like_atoms(body):
        body = ast.And(body, draw(_looks_like_leaf()))
    if var_names and draw(st.booleans()):
        body = ast.Exists(tuple(var_names), body)
        var_names = ()
    if var_names and draw(st.booleans()):
        # freeze capture compared inside the atom, as in test_index_driven
        func = ast.AttrFunc("height", (ast.ObjectVar(var_names[0]),))
        body = ast.Freeze(
            "h", func, ast.And(body, ast.Compare(">=", func, ast.AttrVar("h")))
        )
    return body


def closed(formula):
    names = sorted(free_object_vars(formula))
    if names:
        return ast.Exists(tuple(names), formula)
    return formula


# ---------------------------------------------------------------------------
# signature construction
# ---------------------------------------------------------------------------
class TestSignatureConstruction:
    def test_average_is_mass_normalised_mean(self):
        signature = average_histograms([(2.0, 0.0), (0.0, 2.0), (2.0, 2.0)])
        assert signature == pytest.approx((0.5, 0.5))
        assert sum(signature) == pytest.approx(1.0)

    def test_empty_frame_sequence_rejected(self):
        with pytest.raises(WorkloadError, match="empty frame sequence"):
            average_histograms([])

    def test_ragged_histograms_rejected(self):
        with pytest.raises(WorkloadError, match="ragged"):
            average_histograms([(0.5, 0.5), (0.3, 0.3, 0.4)])

    def test_zero_total_rejected(self):
        with pytest.raises(WorkloadError, match="zero-total"):
            average_histograms([(0.0, 0.0), (0.0, 0.0)])

    def test_clip_from_segments(self):
        segments = [
            signed(SegmentMetadata(), PALETTE[0]),
            signed(SegmentMetadata(), PALETTE[2]),
        ]
        assert clip_from_segments(segments) == (PALETTE[0], PALETTE[2])

    def test_clip_needs_segments(self):
        with pytest.raises(SignatureError, match="at least one segment"):
            clip_from_segments([])

    def test_signature_less_example_rejected(self):
        segments = [signed(SegmentMetadata(), PALETTE[0]), SegmentMetadata()]
        with pytest.raises(SignatureError, match="segment 2"):
            clip_from_segments(segments)

    def test_atom_needs_windows(self):
        with pytest.raises(SignatureError, match="at least one window"):
            looks_like_atom([], 0.5)


# ---------------------------------------------------------------------------
# clip resolution
# ---------------------------------------------------------------------------
class TestClipResolution:
    def test_parser_leaves_clips_unresolved(self):
        formula = parse("looks_like('intro', 0.8)")
        atoms = looks_like_atoms(formula)
        assert len(atoms) == 1
        assert not atoms[0].resolved
        assert atoms[0].name == "intro"
        assert atoms[0].theta == 0.8
        assert unresolved_clip_names(formula) == ["intro"]

    def test_resolution_rewrites_nested_atoms(self):
        formula = parse(
            "not looks_like('a', 0.9) or "
            "(exists x . present(x) and looks_like('b', 0.6))"
        )
        assert unresolved_clip_names(formula) == ["a", "b"]
        resolved = resolve_clips(
            formula, {"a": [PALETTE[0]], "b": [PALETTE[1], PALETTE[2]]}
        )
        assert unresolved_clip_names(resolved) == []
        atoms = looks_like_atoms(resolved)
        assert atoms[0].clip == (PALETTE[0],)
        assert atoms[1].clip == (PALETTE[1], PALETTE[2])
        # names survive resolution for display purposes
        assert [atom.name for atom in atoms] == ["a", "b"]

    def test_unknown_clip_name_is_typed_error(self):
        formula = parse("looks_like('missing', 0.5)")
        with pytest.raises(SignatureError, match="known clips: intro"):
            resolve_clips(formula, {"intro": [PALETTE[0]]})

    def test_fully_resolved_formula_returned_unchanged(self):
        formula = resolve_clips(
            parse("looks_like('q', 0.5)"), {"q": [PALETTE[0]]}
        )
        assert resolve_clips(formula, {}) is formula

    def test_evaluating_unresolved_atom_is_typed_error(self):
        atom = parse("looks_like('q', 0.5)")
        system = PictureRetrievalSystem([signed(SegmentMetadata(), PALETTE[0])])
        with pytest.raises(SignatureError, match="resolve_clips"):
            system.similarity_list(atom, use_index=True)
        with pytest.raises(SignatureError, match="resolve_clips"):
            system.similarity_list(atom, use_index=False)


# ---------------------------------------------------------------------------
# window similarity and the admissible bound
# ---------------------------------------------------------------------------
def vectors(min_size=2, max_size=8):
    return st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=min_size,
        max_size=max_size,
    ).filter(lambda values: sum(values) > 0.0).map(tuple)


class TestWindowSimilarity:
    def test_identical_vectors_score_one(self):
        for window in PALETTE:
            assert window_similarity(window, window) == pytest.approx(1.0)

    @settings(max_examples=80, deadline=None)
    @given(first=vectors(min_size=4, max_size=4), second=vectors(4, 4))
    def test_bounded_symmetric_and_admissible(self, first, second):
        similarity = window_similarity(first, second)
        assert 0.0 <= similarity <= 1.0
        assert similarity == pytest.approx(window_similarity(second, first))
        assert window_bound(first, second) >= similarity - 1e-12
        assert -1.0 <= ssim_score(first, second) <= 1.0

    def test_mismatched_bins_rejected(self):
        with pytest.raises(SignatureError, match="bin count"):
            window_similarity((0.5, 0.5), (0.3, 0.3, 0.4))
        with pytest.raises(SignatureError, match="bin count"):
            window_bound((), ())

    def test_zero_total_vector_rejected(self):
        with pytest.raises(SignatureError, match="zero-total"):
            window_similarity((0.0, 0.0), (0.5, 0.5))

    def test_score_zero_without_signature(self):
        atom = looks_like_atom([PALETTE[0]], 0.5)
        assert looks_like_score(atom, None) == 0.0

    def test_score_thresholds_best_window(self):
        atom = looks_like_atom([PALETTE[0], PALETTE[2]], 0.6)
        best = max(
            window_similarity(PALETTE[1], PALETTE[0]),
            window_similarity(PALETTE[1], PALETTE[2]),
        )
        assert best >= 0.6
        assert looks_like_score(atom, PALETTE[1]) == best
        strict = looks_like_atom([PALETTE[0], PALETTE[2]], best + 1e-6)
        assert looks_like_score(strict, PALETTE[1]) == 0.0

    def test_unresolved_atom_rejected(self):
        atom = ast.LooksLike(theta=0.5, name="q")
        with pytest.raises(SignatureError, match="resolve_clips"):
            looks_like_score(atom, PALETTE[0])

    @settings(max_examples=80, deadline=None)
    @given(
        signature=st.sampled_from(PALETTE),
        windows=st.lists(st.sampled_from(PALETTE), min_size=1, max_size=3),
        theta=st.sampled_from(THETAS),
    )
    def test_bound_pruning_never_changes_the_score(
        self, signature, windows, theta
    ):
        # The definitional scorer: every window, full similarity, no bound.
        best = max(window_similarity(signature, w) for w in windows)
        expected = best if best >= theta else 0.0
        atom = looks_like_atom(windows, theta)
        assert looks_like_score(atom, signature) == expected


# ---------------------------------------------------------------------------
# the clip scorer: prepared windows + signature → score memo on the atom
# ---------------------------------------------------------------------------
SCORER_THETAS = [0.0, 0.5, 0.8, 0.9, 0.95, 1.0]


@st.composite
def clip_and_signatures(draw):
    """A clip (1–6 windows, 1–32 bins) and signatures to score against
    it: mass-normalised, un-normalised (scaled 0.1–10), and verbatim
    copies of clip windows."""
    n_bins = draw(st.integers(1, 32))
    vector = st.lists(
        st.one_of(st.just(0.0), st.floats(0.001, 1.0)),
        min_size=n_bins,
        max_size=n_bins,
    ).filter(lambda bins: sum(bins) > 0.0)
    clip = [tuple(w) for w in draw(st.lists(vector, min_size=1, max_size=6))]
    signatures = [draw(st.sampled_from(clip))]
    for raw in draw(st.lists(vector, min_size=1, max_size=4)):
        total = sum(raw)
        scale = draw(st.floats(0.1, 10.0))
        signatures.append(tuple(value / total for value in raw))
        signatures.append(tuple(value * scale for value in raw))
    return clip, signatures


@st.composite
def theta_sequences(draw):
    """θ values with the edges 0 and 1, ascending, descending or in a
    drawn order."""
    thetas = draw(
        st.lists(
            st.one_of(st.sampled_from(SCORER_THETAS), st.floats(0.0, 1.0)),
            max_size=6,
        )
    ) + [0.0, 1.0]
    order = draw(st.sampled_from(["ascending", "descending", "drawn"]))
    if order == "drawn":
        return draw(st.permutations(thetas))
    return sorted(thetas, reverse=order == "descending")


def shared_signature_corpus(n_videos=3, n_segments=20, n_bases=10):
    """Videos whose segments draw their signatures from one shared pool
    (every base in every video); a few segments also carry objects so
    their content profiles differ."""
    bases = [
        tuple(1.0 + ((base * 7 + position * 3) % 11) for position in range(8))
        for base in range(n_bases)
    ]
    database = VideoDatabase()
    for number in range(n_videos):
        segments = [
            SegmentMetadata(
                objects=(
                    [make_object(f"o{index}", "person")]
                    if index % 5 == number
                    else []
                ),
                signature=bases[(index + number) % n_bases],
            )
            for index in range(n_segments)
        ]
        database.add(flat_video(f"v{number}", segments))
    return database, bases


class TestClipScorer:
    @settings(max_examples=150, deadline=None)
    @given(drawn=clip_and_signatures(), theta=st.sampled_from(SCORER_THETAS))
    def test_scorer_equals_the_definition_exactly(self, drawn, theta):
        clip, signatures = drawn
        atom = looks_like_atom(clip, theta)
        for signature in signatures:
            best = max(window_similarity(signature, w) for w in clip)
            expected = best if best >= theta else 0.0
            # First call runs the kernel, the second reads the memo.
            assert looks_like_score(atom, signature) == expected
            assert looks_like_score(atom, signature) == expected

    def test_typed_errors_unchanged(self):
        atom = looks_like_atom([PALETTE[0]], 0.5)
        with pytest.raises(SignatureError, match="zero-total"):
            looks_like_score(atom, (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(SignatureError, match="bin count"):
            looks_like_score(atom, (0.5, 0.5))
        with pytest.raises(SignatureError, match="bin count"):
            looks_like_score(atom, ())
        # A failure leaves nothing behind: it fails again, others score.
        with pytest.raises(SignatureError, match="bin count"):
            looks_like_score(atom, (0.5, 0.5))
        assert looks_like_score(atom, PALETTE[0]) == 1.0
        empty_mass = looks_like_atom([(0.0, 0.0, 0.0, 0.0)], 0.5)
        for __ in range(2):
            with pytest.raises(SignatureError, match="zero-total"):
                looks_like_score(empty_mass, PALETTE[0])
        assert looks_like_score(empty_mass, None) == 0.0
        unresolved = ast.LooksLike(theta=0.5, name="q")
        with pytest.raises(SignatureError, match="resolve_clips"):
            looks_like_score(unresolved, None)
        with pytest.raises(SignatureError, match="resolve_clips"):
            clip_scorer(unresolved)

    def test_scorer_is_invisible_to_the_formula_value(self):
        cold = looks_like_atom([PALETTE[0]], 0.8, name="q")
        warm = looks_like_atom([PALETTE[0]], 0.8, name="q")
        looks_like_score(warm, PALETTE[1])
        assert clip_scorer(warm) is clip_scorer(warm)
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold)
        assert pretty(warm) == pretty(cold)
        assert ast.structural_key(warm) == ast.structural_key(cold)
        assert ast.Not(warm) == ast.Not(cold)

    @pytest.mark.parametrize(
        "config", [EngineConfig(), EngineConfig(naive_atoms=True, plan=False)]
    )
    def test_each_signature_scored_once_per_request(self, config, monkeypatch):
        database, bases = shared_signature_corpus()
        runs = count_kernel_runs(monkeypatch)
        clips = {"q": (bases[0], bases[3])}
        text = "looks_like('q', 0.9) and eventually (exists x . present(x))"
        planner = RetrievalEngine(config).planner
        for __ in range(2):
            formula = resolve_clips(parse(text), clips)
            # A fresh engine (one shared planner) per request: a list
            # memo hit would skip the kernel runs this test counts.
            engine = RetrievalEngine(config, planner=planner)
            top_k_across_videos(engine, formula, database, 5, prune=False)
            # Sweep or oracle scan, three videos: one kernel run per
            # distinct signature — and a new engine starts from an
            # empty clip memo.
            assert sorted(runs) == sorted(bases)
            runs.clear()
        # The same engine answers a request at a new θ from its memo.
        formula = resolve_clips(
            parse(text.replace("0.9", "0.8")), clips
        )
        top_k_across_videos(engine, formula, database, 5, prune=False)
        assert runs == []

    def test_smoke_probe_runs_the_kernel_once_per_distinct_signature(
        self, tmp_path, monkeypatch
    ):
        """The ``sparse`` smoke corpus, seed 7: three videos of 40
        segments share 40 shot signatures.  One request for the
        ``probe`` clip runs the kernel 40 times, not 120, and each
        video's list is the brute-force definition's: the full blended
        similarity of every window, no bound, no memo."""
        database, clips, __ = WORKLOADS["sparse"](
            7, SMOKE, str(tmp_path)
        ).inputs()
        runs = count_kernel_runs(monkeypatch)
        formula = resolve_clips(parse("looks_like('probe', 0.9)"), clips)
        engine = RetrievalEngine()
        signatures = []
        for video in database.videos():
            segments = video.root.pictures_at_level(LEVEL).segments
            signatures.extend(segment.signature for segment in segments)
            values = {}
            for segment_id, segment in enumerate(segments, start=1):
                best = max(
                    window_similarity(segment.signature, window)
                    for window in formula.clip
                )
                if best >= formula.theta:
                    values[segment_id] = best
            assert values
            assert engine.evaluate_video(
                formula, video, LEVEL
            ) == SimilarityList.from_segment_values(values, 1.0)
        assert len(signatures) == 120
        assert len(runs) == len(set(runs)) == len(set(signatures)) == 40

    def test_atoms_share_entries_but_not_thresholds(self, monkeypatch):
        """Atoms bound to one memo share a clip's entries whatever their
        θ: the kernel runs once per signature, and each atom applies
        its own threshold.  Unbound atoms keep private tables."""
        memo = ClipMemo()
        loose = looks_like_atom([PALETTE[0]], 0.55)
        strict = looks_like_atom([PALETTE[0]], 0.999)
        bind_clip_scorers(ast.Or(loose, strict), memo.table)
        runs = count_kernel_runs(monkeypatch)
        assert clip_scorer(loose) is not clip_scorer(strict)
        assert clip_scorer(loose).table is clip_scorer(strict).table
        assert looks_like_score(loose, PALETTE[1]) > 0.0
        assert looks_like_score(strict, PALETTE[1]) == 0.0
        assert looks_like_score(loose, PALETTE[1]) > 0.0
        assert runs == [PALETTE[1]]
        # A clip is keyed by value: a separately built equal clip shares.
        twin = looks_like_atom([PALETTE[0]], 0.7)
        bind_clip_scorers(twin, memo.table)
        assert clip_scorer(twin).table is clip_scorer(loose).table
        assert looks_like_score(twin, PALETTE[1]) > 0.0
        assert runs == [PALETTE[1]] and len(memo) == 1
        # A bound scorer is kept by a second memo; an unbound atom gets
        # a private table that shares nothing.
        bind_clip_scorers(loose, ClipMemo().table)
        assert clip_scorer(loose).table is clip_scorer(strict).table
        lone = looks_like_atom([PALETTE[0]], 0.55)
        assert lone == loose
        assert clip_scorer(lone).table is not clip_scorer(loose).table

    def test_failing_signatures_memoize_nothing(self):
        memo = ClipMemo()
        atom = looks_like_atom([PALETTE[0]], 0.5)
        empty_mass = looks_like_atom([(0.0, 0.0, 0.0, 0.0)], 0.5)
        bind_clip_scorers(ast.Or(atom, empty_mass), memo.table)
        table = clip_scorer(atom).table
        accounted = memo.nbytes
        bad = [
            ((0.0, 0.0, 0.0, 0.0), "zero-total"),
            ((0.5, 0.5), "bin count"),
            ((), "bin count"),
        ]
        for __ in range(2):
            for signature, match in bad:
                with pytest.raises(SignatureError, match=match):
                    looks_like_score(atom, signature)
            with pytest.raises(SignatureError, match="zero-total"):
                looks_like_score(empty_mass, PALETTE[0])
        assert table.entries == {}
        assert clip_scorer(empty_mass).table.entries == {}
        assert memo.nbytes == accounted
        assert looks_like_score(atom, PALETTE[0]) == 1.0
        assert list(table.entries) == [PALETTE[0]]

    @settings(max_examples=100, deadline=None)
    @given(drawn=clip_and_signatures(), thetas=theta_sequences())
    def test_one_engine_scores_every_theta_as_the_definition(
        self, drawn, thetas
    ):
        """One engine, one clip, a sequence of θ: every request reuses
        the engine's table, and every list is the definition's, bit
        for bit."""
        clip, signatures = drawn
        video = flat_video(
            "signed", [SegmentMetadata(signature=s) for s in signatures]
        )
        bests = [
            max(window_similarity(signature, w) for w in clip)
            for signature in signatures
        ]
        engine = RetrievalEngine()
        for theta in thetas:
            atom = looks_like_atom(clip, theta)
            values = {
                segment_id: best
                for segment_id, best in enumerate(bests, start=1)
                if best >= theta and best > 0.0
            }
            assert engine.evaluate_video(
                atom, video
            ) == SimilarityList.from_segment_values(values, 1.0)
            assert [looks_like_score(atom, s) for s in signatures] == [
                best if best >= theta else 0.0 for best in bests
            ]
        assert len(engine.clip_memo) == 1
        (table,) = engine.clip_memo._tables.values()
        assert table.entries == dict(zip(signatures, bests))

    def test_smoke_round_runs_the_kernel_once_per_distinct_signature(
        self, tmp_path, monkeypatch
    ):
        """The ``dense`` smoke corpus, seed 7: two videos, 60 distinct
        signatures, four ``looks_like`` requests at four θ.  One
        ``mix-a`` round on one engine runs the kernel once per distinct
        (clip, signature), 60 times rather than 240; a second engine
        starts from an empty memo and runs it 60 times again."""
        database, clips, stream = WORKLOADS["dense"](
            7, SMOKE, str(tmp_path)
        ).inputs()
        thetas = {
            formula.theta
            for text in stream
            for formula in looks_like_atoms(parse(text))
        }
        signatures = {
            segment.signature
            for video in database.videos()
            for segment in video.root.pictures_at_level(LEVEL).segments
        }
        assert (len(thetas), len(signatures)) == (4, 60)
        runs = count_kernel_runs(monkeypatch)

        def run(engine):
            for text in stream:
                top_k_across_videos(
                    engine,
                    resolve_clips(parse(text), clips),
                    database,
                    K,
                    level=LEVEL,
                    prune=False,
                )
            return engine.clip_memo

        memo = run(RetrievalEngine())
        assert len(runs) == 60 and set(runs) == signatures
        assert (len(memo), memo.evictions) == (1, 0)
        runs.clear()
        second = RetrievalEngine()
        assert (len(second.clip_memo), second.clip_memo.nbytes) == (0, 0)
        run(second)
        assert len(runs) == 60 and set(runs) == signatures

    def test_scorer_dies_with_its_formula(self):
        database, bases = shared_signature_corpus()
        atom = looks_like_atom([bases[0]], 0.9)
        for video in database.videos():
            pictures = video.root.pictures_at_level(2)
            assert pictures.similarity_list(atom) == pictures.similarity_list(
                atom, use_index=False
            )
        scorer = weakref.ref(clip_scorer(atom))
        assert scorer() is not None
        del atom
        gc.collect()
        assert scorer() is None

    def test_evaluated_formulas_die_with_their_request(self):
        """Keying a formula pins nothing: 1 000 evaluated distinct-θ
        ``looks_like`` requests leave no node (and no clip scorer)
        alive once the caller drops them.  Each request is planned, which
        keys it; it gets an engine of its own because the planner's
        bounded plan cache holds its plans' formulas for the engine's
        life."""
        database, bases = shared_signature_corpus()
        alive = []
        for step in range(1000):
            formula = resolve_clips(
                parse(f"looks_like('q', {0.5 + step / 4000})"),
                {"q": (bases[0],)},
            )
            top_k_across_videos(RetrievalEngine(), formula, database, 3)
            alive.append(weakref.ref(formula))
            alive.append(weakref.ref(clip_scorer(formula)))
        del formula
        gc.collect()
        assert [ref for ref in alive if ref() is not None] == []

    def test_concurrent_fills_agree_and_share_one_scorer(self):
        """No lock guards the scorer: racing threads must still end up
        with one scorer per atom and the definitional score per entry."""
        clip = [PALETTE[0], PALETTE[2]]
        signatures = [
            (1.0 + step % 7, 2.0 + step % 5, 1.0, 3.0 + step % 3)
            for step in range(105)
        ]
        expected = [
            max(window_similarity(signature, w) for w in clip)
            for signature in signatures
        ]
        atom = looks_like_atom(clip, 0.0)
        barrier = threading.Barrier(8, timeout=10)
        seen = []

        def worker():
            barrier.wait()
            scorer = clip_scorer(atom)
            seen.append(
                (scorer, [looks_like_score(atom, s) for s in signatures])
            )

        threads = [threading.Thread(target=worker) for __ in range(8)]
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
        assert len(seen) == 8
        assert all(scorer is clip_scorer(atom) for scorer, __ in seen)
        assert all(scores == expected for __, scores in seen)

    def test_sharded_rows_equal_direct(self):
        database, bases = shared_signature_corpus(n_videos=4)
        clips = {"q": (bases[0], bases[3])}
        text = "looks_like('q', 0.9) and eventually (exists x . present(x))"

        def rows(result):
            return [
                (s.video, s.segment_id, s.actual, s.maximum) for s in result
            ]

        def fresh():
            return resolve_clips(parse(text), clips)

        direct = rows(
            top_k_across_videos(
                RetrievalEngine(), fresh(), database, 6, prune=False
            )
        )
        assert direct
        corpus = ShardedCorpus.from_database(database, 2)
        sharded = corpus.top_k(RetrievalEngine(), fresh(), 6)
        assert rows(sharded) == direct


def accounted_bytes(memo):
    """What the memo's tables should account, recomputed from scratch."""
    return sum(
        cache.TABLE_BYTES
        + cache.WINDOW_BYTES * len(table.clip)
        + cache.CLIP_BIN_BYTES * sum(map(len, table.clip))
        + sum(
            cache.SIGNATURE_BYTES + cache.SIGNATURE_BIN_BYTES * len(key)
            for key in table.entries
        )
        for table in memo._tables.values()
    )


def four_bins(position):
    return (1.0 + position, 1.0, 2.0, 3.0)


class TestClipMemo:
    def test_accounted_bytes_match_what_the_memo_allocates(self):
        """tracemalloc: what the tables keep alive — clips, prepared
        windows, signature keys and best floats — is their accounted
        size within ±25% when the memo alone holds the keys."""
        rng = random.Random(5)

        def vector(n_bins):
            return tuple(rng.random() + 0.01 for __ in range(n_bins))

        gc.collect()
        tracemalloc.start()
        try:
            memo = ClipMemo()
            base = tracemalloc.get_traced_memory()[0]
            for n_windows, n_bins in ((1, 16), (4, 16), (2, 64), (3, 4)):
                table = memo.table(
                    tuple(vector(n_bins) for __ in range(n_windows))
                )
                for __ in range(100):
                    table.fill(vector(n_bins))
            del table
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert memo.evictions == 0 and len(memo) == 4
        assert memo.nbytes == accounted_bytes(memo)
        assert 0.75 * memo.nbytes <= retained <= 1.25 * memo.nbytes

    def test_lru_eviction(self, monkeypatch):
        """A 4 KiB bound holds a four-bin table with five entries
        (2 313 accounted bytes) but not a second one as well: the least
        recently filled table is evicted and cleared in place.  An atom
        still bound to it scores right and stores nothing more; the next
        binding of its clip gets a new table."""
        monkeypatch.setattr(cache, "CLIP_MEMO_BYTES", 4096)
        memo = ClipMemo()
        first = looks_like_atom([PALETTE[0]], 0.0)
        second = looks_like_atom([PALETTE[2]], 0.0)
        bind_clip_scorers(ast.Or(first, second), memo.table)
        evicted = clip_scorer(first).table
        for position in range(5):
            looks_like_score(first, four_bins(position))
        assert memo.nbytes == 2313 + 1173
        for position in range(3):
            looks_like_score(second, four_bins(position))
        assert (memo.evictions, len(memo), evicted.entries) == (1, 1, {})
        assert memo.nbytes == accounted_bytes(memo) == 1173 + 3 * 228
        assert looks_like_score(first, PALETTE[0]) == 1.0
        assert evicted.entries == {}
        assert memo.nbytes == accounted_bytes(memo) <= memo.max_bytes
        newer = looks_like_atom([PALETTE[0]], 0.0)
        bind_clip_scorers(newer, memo.table)
        assert clip_scorer(newer).table is not evicted
        assert looks_like_score(newer, PALETTE[0]) == 1.0
        assert list(clip_scorer(newer).table.entries) == [PALETTE[0]]
        assert memo.nbytes == accounted_bytes(memo) <= memo.max_bytes

    def test_concurrent_fills_account_each_entry_once(self):
        """Eight atoms at eight θ, bound to one table, race to fill the
        same 105 signatures: every score is the definition's and each
        entry is accounted once."""
        clip = [PALETTE[0], PALETTE[2]]
        signatures = [
            (1.0 + step % 7, 2.0 + step % 5, 1.0, 3.0 + step % 3)
            for step in range(105)
        ]
        bests = [
            max(window_similarity(signature, w) for w in clip)
            for signature in signatures
        ]
        memo = ClipMemo()
        atoms = [looks_like_atom(clip, step / 8) for step in range(8)]
        for atom in atoms:
            bind_clip_scorers(atom, memo.table)
        barrier = threading.Barrier(8, timeout=10)
        seen = {}

        def worker(atom):
            barrier.wait()
            seen[atom.theta] = [looks_like_score(atom, s) for s in signatures]

        threads = [
            threading.Thread(target=worker, args=(atom,)) for atom in atoms
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
        assert seen == {
            atom.theta: [best if best >= atom.theta else 0.0 for best in bests]
            for atom in atoms
        }
        assert len(memo) == 1
        assert len(clip_scorer(atoms[0]).table.entries) == 105
        assert memo.nbytes == accounted_bytes(memo)


# ---------------------------------------------------------------------------
# the oracle property, signature edition
# ---------------------------------------------------------------------------
class TestIndexedEqualsNaive:
    @settings(max_examples=120, deadline=None)
    @given(segments=signed_segments(), atom=signature_formulas())
    def test_similarity_table_identical(self, segments, atom):
        system = PictureRetrievalSystem(segments)
        indexed = system.similarity_table(atom, use_index=True)
        naive = system.similarity_table(atom, use_index=False)
        assert_tables_equal(indexed, naive)

    @settings(max_examples=40, deadline=None)
    @given(segments=signed_segments(), atom=signature_formulas())
    def test_pruned_tables_identical(self, segments, atom):
        """A pool narrower than the sequence's objects: what the deleted
        ``prune=`` knob built, and what a caller's ``universe`` still can."""
        system = PictureRetrievalSystem(segments)
        universe = system.universe[::2]
        indexed = system.similarity_table(atom, universe, use_index=True)
        naive = system.similarity_table(atom, universe, use_index=False)
        assert_tables_equal(indexed, naive)

    @settings(max_examples=60, deadline=None)
    @given(
        segments=signed_segments(min_segments=1),
        left=signature_formulas(),
        right=signature_formulas(),
    )
    def test_planned_equals_structural_equals_naive(
        self, segments, left, right
    ):
        # ∧ of a signature atom with a temporal wrapper: the shape the
        # planner reorders.  Planning must never change the ranking.
        video = flat_video("signed", segments)
        formula = closed(ast.And(left, ast.Eventually(right)))

        def outcome(config):
            try:
                return RetrievalEngine(config).evaluate_video(formula, video)
            except HTLTypeError as error:
                return ("raised", type(error).__name__)

        planned = outcome(EngineConfig())
        structural = outcome(EngineConfig(plan=False))
        naive = outcome(EngineConfig(naive_atoms=True))
        assert planned == structural
        assert planned == naive

    @settings(max_examples=80, deadline=None)
    @given(segments=signed_segments(), atom=signature_formulas())
    def test_never_scores_outside_candidates(self, segments, atom):
        system = PictureRetrievalSystem(segments)
        system.trace_scored = []
        table = system.similarity_table(atom, use_index=True)
        object_vars = table.object_vars
        for objects, segment_id in system.trace_scored:
            binding = dict(zip(object_vars, objects))
            assert segment_id in system.atom_support(atom, binding)


# ---------------------------------------------------------------------------
# support analysis: signature candidates and the dense cutoff
# ---------------------------------------------------------------------------
class TestDenseCutoff:
    def corpus(self, n_signed, n_total):
        segments = [SegmentMetadata() for __ in range(n_total)]
        for position in range(n_signed):
            segments[position] = signed(
                SegmentMetadata(), PALETTE[position % len(PALETTE)]
            )
        return segments

    def test_analysis_returns_the_exact_candidates(self):
        # No policy in the analysis: 15 signed of 20 is over the cutoff,
        # and the analysis still reports exactly those 15.
        system = PictureRetrievalSystem(self.corpus(15, 20))
        atom = looks_like_atom([PALETTE[0]], 0.5)
        support = SupportAnalyzer(system.index).atom_support(atom, {})
        assert support == set(range(1, 16))

    def test_sparse_signature_support_stays_bounded(self):
        # 3 signed of 20: below the cutoff, candidates are explicit.
        system = PictureRetrievalSystem(self.corpus(3, 20))
        atom = looks_like_atom([PALETTE[0]], 0.5)
        assert system.atom_support(atom, {}, charge=False) == (1, 2, 3)

    def test_cutoff_boundary(self):
        atom = looks_like_atom([PALETTE[0]], 0.5)
        just_under = PictureRetrievalSystem(self.corpus(9, 20))
        assert just_under.atom_support(atom, {}, charge=False) == tuple(
            range(1, 10)
        )
        at_cutoff = PictureRetrievalSystem(
            self.corpus(int(DENSE_CUTOFF * 20), 20)
        )
        assert at_cutoff.atom_support(atom, {}, charge=False) is None

    def test_routed_rows_are_the_naive_scans(self):
        # The rule is not signature-specific: a near-universal object
        # posting is routed too, and its rows are the naive scan's, bit
        # for bit.
        segments = [
            SegmentMetadata(objects=[make_object("o1", "person")])
            if position % 10 < 6
            else SegmentMetadata()
            for position in range(40)
        ]
        system = PictureRetrievalSystem(segments)
        system.trace_scored = []
        atom = parse("exists x . present(x)")
        indexed = system.similarity_table(atom, use_index=True)
        naive = system.similarity_table(atom, use_index=False)
        assert indexed.rows == naive.rows
        for mine, theirs in zip(indexed.rows, naive.rows):
            assert repr(mine.sim.actuals) == repr(theirs.sim.actuals)
        assert system.stats.dense_bindings == 1
        assert system.stats.unbounded_bindings == 1
        assert system.trace_scored == []

    def test_routed_bindings_record_no_visits(self):
        system = PictureRetrievalSystem(self.corpus(18, 20))
        system.trace_scored = []
        atom = looks_like_atom([PALETTE[0], PALETTE[3]], 0.6)
        indexed = system.similarity_list(atom, use_index=True)
        assert indexed == system.similarity_list(atom, use_index=False)
        assert system.stats.dense_bindings == 1
        assert system.stats.segments_scored == 0
        assert system.stats.fingerprint_hits == 0
        assert system.trace_scored == []

    def test_one_compilation_when_routed_and_swept_mix(self, monkeypatch):
        # o1 is in 30 of 40 segments (routed), o2 in 2 (swept): one
        # table build, one kernel, both kinds of binding.
        segments = [
            SegmentMetadata(
                objects=[make_object("o1", "person")]
                + ([make_object("o2", "person")] if position < 2 else [])
            )
            if position < 30
            else SegmentMetadata()
            for position in range(40)
        ]
        system = PictureRetrievalSystem(segments)
        compiled = []
        monkeypatch.setattr(
            retrieval,
            "compile_atom",
            lambda atom, narrow: compiled.append(narrow)
            or compile_atom(atom, narrow),
        )
        atom = parse("present(x)")
        indexed = system.similarity_table(atom, use_index=True)
        assert compiled == [True]
        assert system.stats.dense_bindings == 1
        assert system.stats.candidate_segments == 2
        assert indexed.rows == system.similarity_table(
            atom, use_index=False
        ).rows

    def test_sparse_workload_unaffected_by_cutoff(self):
        # The sparse regime (the §7 speedup) must keep its tight bound:
        # nothing outside the 3 candidates is scored.
        system = PictureRetrievalSystem(self.corpus(3, 200))
        atom = looks_like_atom([PALETTE[0]], 0.0)
        system.similarity_list(atom, use_index=True)
        assert system.stats.dense_bindings == 0
        assert system.stats.segments_scored <= 3


# ---------------------------------------------------------------------------
# index maintenance and persistence
# ---------------------------------------------------------------------------
class TestIndexMaintenance:
    def test_signature_postings_tracked(self):
        segments = [
            signed(SegmentMetadata(), PALETTE[0]),
            SegmentMetadata(),
            signed(SegmentMetadata(), PALETTE[1]),
        ]
        system = PictureRetrievalSystem(segments)
        assert system.index.segments_with_signature() == (1, 3)
        assert system.index.stats()["pools"]["signature_segments"] == 2

    def test_append_maintains_signature_postings(self):
        initial = [signed(SegmentMetadata(), PALETTE[0]), SegmentMetadata()]
        appended = [
            SegmentMetadata(),
            signed(SegmentMetadata(), PALETTE[1]),
        ]
        incremental = PictureRetrievalSystem(list(initial))
        incremental.append_segments(appended)
        fresh = PictureRetrievalSystem(initial + appended)
        assert incremental.index.segments_with_signature() == (1, 4)
        atom = looks_like_atom([PALETTE[0], PALETTE[1]], 0.6)
        assert incremental.similarity_list(atom, use_index=True) == (
            fresh.similarity_list(atom, use_index=True)
        )

    def test_segment_roundtrips_with_signature(self):
        segment = signed(
            SegmentMetadata(objects=[make_object("o1", "person")]),
            PALETTE[0],
        )
        restored = segment_from_dict(segment_to_dict(segment))
        assert restored.signature == segment.signature
        plain = segment_from_dict(segment_to_dict(SegmentMetadata()))
        assert plain.signature is None

    def test_corrupt_signature_payloads_rejected(self):
        with pytest.raises(ModelError, match="list of numbers"):
            segment_from_dict({"signature": "deadbeef"})
        with pytest.raises(MetadataError, match="finite non-negative"):
            segment_from_dict({"signature": [0.5, -0.1]})
        with pytest.raises(MetadataError, match="finite non-negative"):
            segment_from_dict({"signature": [0.5, math.nan]})
        with pytest.raises(MetadataError, match="at least one bin"):
            segment_from_dict({"signature": []})
