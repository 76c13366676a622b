"""Unit tests for the cost-based query planner (DESIGN.md §13)."""

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from benchmarks.e2e.streams import MIX_A_FIXED
from benchmarks.e2e.workloads import K, LEVEL, SMOKE, WORKLOADS, rows
from repro.core import planner as planning
from repro.core.cache import PlanCache
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.planner import (
    Planner,
    Statistics,
    has_picture_atoms,
)
from repro.core.tables import OUTER
from repro.core.topk import top_k_across_videos
from repro.errors import HTLTypeError
from repro.htl import ast, parse
from repro.htl.pretty import pretty
from repro.htl.variables import is_closed
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.pictures.index import MetadataIndex
from repro.pictures.retrieval import PictureRetrievalSystem
from repro.pictures.scoring import exists_pool
from repro.pictures.signature import resolve_clips
from tests.htl.strategies import picture_atoms
from tests.pictures.test_compiled import picture_subformulas, segments


def skewed_segments(n=20, rare=2):
    """``rare`` segments carry the rare type, the rest the common one."""
    segments = []
    for position in range(n):
        objects = [make_object("common", "plane")]
        if position < rare:
            objects.append(make_object(f"rare{position}", "person"))
        segments.append(SegmentMetadata(objects=objects))
    return segments


def skewed_video(name="vid", n=20, rare=2):
    return flat_video(name, skewed_segments(n, rare))


class TestHasPictureAtoms:
    def test_pure_refs_have_none(self):
        assert not has_picture_atoms(parse("$A and eventually $B"))

    def test_metadata_atoms_do(self):
        assert has_picture_atoms(parse("exists x . present(x)"))

    def test_mixed_ref_conjunction(self):
        assert has_picture_atoms(parse("$A and (exists x . present(x))"))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
class TestIndexStats:
    def test_empty_index_edge_case(self):
        stats = MetadataIndex([]).stats()
        assert stats["n_segments"] == 0
        assert stats["pools"] == {
            "universe": 0,
            "types": 0,
            "any_object_segments": 0,
            "signature_segments": 0,
        }
        for family in stats["postings"].values():
            assert family["keys"] == 0
            assert family["lengths"] == {
                "mean": 0.0,
                "p50": 0,
                "p90": 0,
                "max": 0,
            }

    def test_single_video_percentiles(self):
        index = MetadataIndex(skewed_segments(n=10, rare=1))
        stats = index.stats()
        objects = stats["postings"]["object"]
        # 'common' appears in all 10, 'rare0' in 1.
        assert objects["keys"] == 2
        assert objects["lengths"]["max"] == 10
        assert objects["lengths"]["p50"] == 1
        assert objects["lengths"]["p90"] == 10
        assert objects["lengths"]["mean"] == pytest.approx(5.5)
        assert stats["pools"]["universe"] == 2
        assert stats["pools"]["any_object_segments"] == 10

    def test_signature_equal_for_identical_shapes(self):
        left = PictureRetrievalSystem(skewed_segments())
        right = PictureRetrievalSystem(skewed_segments())
        assert (
            Statistics.from_pictures(left).signature
            == Statistics.from_pictures(right).signature
        )

    def test_signature_differs_across_shapes(self):
        small = PictureRetrievalSystem(skewed_segments(n=5))
        large = PictureRetrievalSystem(skewed_segments(n=25))
        assert (
            Statistics.from_pictures(small).signature
            != Statistics.from_pictures(large).signature
        )

    def test_empty_statistics(self):
        stats = Statistics.from_pictures(PictureRetrievalSystem([]))
        assert stats.n_segments == 0


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------
class TestPlanConstruction:
    def test_selective_side_ordered_first(self):
        """The rare-type conjunct evaluates before the everywhere-true one."""
        pictures = PictureRetrievalSystem(skewed_segments())
        formula = parse(
            "exists x . (present(x) and (eventually type(x) = 'person'))"
        )
        planner = Planner()
        plan = planner.plan_for(formula, pictures, 2, EngineConfig())
        conjunction = formula.sub
        assert isinstance(conjunction, ast.And)
        assert plan.right_first(conjunction)

    def test_no_swaps_under_outer_join(self):
        pictures = PictureRetrievalSystem(skewed_segments())
        formula = parse(
            "exists x . (present(x) and (eventually type(x) = 'person'))"
        )
        config = EngineConfig(join_mode=OUTER)
        plan = Planner().plan_for(formula, pictures, 2, config)
        assert not plan.swapped

    def test_every_picture_atom_is_priced_in_visits(self):
        pictures = PictureRetrievalSystem(skewed_segments())
        formula = parse(
            "exists x . (present(x) and (eventually type(x) = 'person'))"
        )
        plan = Planner().plan_for(formula, pictures, 2, EngineConfig())
        assert len(plan.atoms) == 2
        for key, choice in plan.atoms.items():
            per_binding = (
                len(pictures.segments)
                if choice.candidates is None
                else choice.candidates
            )
            assert choice.visits == choice.bindings * per_binding
            assert plan.nodes[key].cost == choice.visits
            assert plan.atom_use_index(key) is None

    def test_probes_do_not_touch_picture_stats(self):
        """Planning must not inflate the system's evaluation counters."""
        pictures = PictureRetrievalSystem(skewed_segments())
        before = (pictures.stats.bindings, pictures.stats.segments_scored)
        Planner().plan_for(
            formula=parse("exists x . present(x)"),
            pictures=pictures,
            level=2,
            config=EngineConfig(),
        )
        assert (
            pictures.stats.bindings,
            pictures.stats.segments_scored,
        ) == before

    def test_describe_and_to_dict_render(self):
        pictures = PictureRetrievalSystem(skewed_segments())
        formula = parse(
            "exists x . (present(x) and (eventually type(x) = 'person'))"
        )
        plan = Planner().plan_for(formula, pictures, 2, EngineConfig())
        text = plan.describe()
        assert "visits" in text and "strategy" not in text
        assert "evaluate right first" in text
        doc = plan.to_dict()
        assert doc["tree"]["children"]
        assert doc["estimated_cost"] == pytest.approx(plan.estimated_cost)


def atom_choice(atom, pictures):
    """The plan's counted work for one atom planned on its own."""
    plan = Planner().plan_for(atom, pictures, LEVEL, EngineConfig())
    return plan.atoms[ast.structural_key(atom)]


def observed_visits(pictures, build):
    """``candidate_segments + n × unbounded_bindings`` over one call."""
    stats = pictures.stats
    before = (stats.candidate_segments, stats.unbounded_bindings)
    build()
    swept = stats.candidate_segments - before[0]
    routed = stats.unbounded_bindings - before[1]
    return swept + len(pictures.segments) * routed


@given(picture_atoms().filter(is_closed), st.lists(segments(), max_size=6))
@settings(max_examples=200, deadline=None)
def test_closed_atom_visits_are_what_the_table_build_visits(atom, drawn):
    """A closed atom has one binding, the one the planner probes, so its
    planned visits are the build's counted work exactly: the candidates
    it sweeps, or every segment when the density rule routes it."""
    pictures = PictureRetrievalSystem(drawn)
    universe = exists_pool(pictures.universe)
    try:
        # ``bool`` constants have no HTL text, so the plan's description
        # of them raises; the atom then never reaches a plan.
        choice = atom_choice(atom, pictures)
        observed = observed_visits(
            pictures, lambda: pictures.similarity_table(atom, universe)
        )
    except HTLTypeError:
        assume(False)
    assert choice.bindings == 1
    assert choice.visits == observed


#: The closed picture atoms of the fixed ``mix-a`` queries.
CLOSED_SMOKE_ATOMS = sorted(
    {
        pretty(atom)
        for text in MIX_A_FIXED
        for atom in picture_subformulas(parse(text))
        if is_closed(atom)
    }
)


@pytest.fixture(scope="module")
def smoke_inputs(tmp_path_factory):
    """The end-to-end benchmark's smoke-size inputs under seed 7."""
    built = {}

    def inputs(name):
        if name not in built:
            workdir = str(tmp_path_factory.mktemp(name))
            built[name] = WORKLOADS[name](7, SMOKE, workdir).inputs()
        return built[name]

    return inputs


@pytest.mark.parametrize("workload", ["sparse", "dense"])
@pytest.mark.parametrize("text", CLOSED_SMOKE_ATOMS)
def test_smoke_atom_visits_are_counted_exactly(workload, text, smoke_inputs):
    """Under a seed, each closed atom's planned visits equal what the
    engine's table build of that atom visits, video by video."""
    database, clips, __ = smoke_inputs(workload)
    atom = resolve_clips(parse(text), clips)
    for video in database.videos():
        pictures = video.root.pictures_at_level(LEVEL)
        universe = exists_pool(video.object_universe())
        assert atom_choice(atom, pictures).visits == observed_visits(
            pictures, lambda: pictures.similarity_table(atom, universe)
        )


def test_dense_smoke_atom_is_routed_per_binding(smoke_inputs):
    """On the ``dense`` smoke corpus the old planner sent this atom to the
    naive scan outright.  Now it enters the indexed path, the density
    rule routes its binding, and its rows are the scan's."""
    database, __, __ = smoke_inputs("dense")
    atom = parse(MIX_A_FIXED[0])
    engine = RetrievalEngine()
    for video in database.videos():
        pictures = video.root.pictures_at_level(LEVEL)
        choice = atom_choice(atom, pictures)
        assert choice.candidates is None
        assert choice.visits == len(pictures.segments)
        before = pictures.stats.dense_bindings
        engine.evaluate_video(atom, video, LEVEL)
        assert pictures.stats.dense_bindings > before
        universe = exists_pool(video.object_universe())
        indexed = pictures.similarity_table(atom, universe)
        naive = pictures.similarity_table(atom, universe, use_index=False)
        assert indexed.rows == naive.rows


#: Two conjuncts of one shape (one free variable, one temporal operator):
#: only index statistics can tell the common side from the rare one.
SKEWED_QUERY = (
    "exists x . ((eventually present(x)) and (eventually type(x) = 'person'))"
)


def test_smoke_planner_scores_fewer_segments_and_plans_once(tmp_path):
    """On the ``sparse`` smoke corpus (one person-rich video of three),
    seed 7: the planned sweep ranks as structural order does but scores
    24 segments to its 36; the cold sweep builds one plan per distinct
    index shape; a warm sweep on a fresh engine sharing the planner runs
    no support probe and builds no plan."""
    formula = parse(SKEWED_QUERY)

    def sweep(engine, database):
        ranked = top_k_across_videos(
            engine, formula, database, K, level=LEVEL, prune=False
        )
        scored = sum(
            video.root.pictures_at_level(LEVEL).stats.segments_scored
            for video in database.videos()
        )
        return rows(ranked), scored

    planned_db, __, __ = WORKLOADS["sparse"](7, SMOKE, str(tmp_path)).inputs()
    structural_db, __, __ = WORKLOADS["sparse"](
        7, SMOKE, str(tmp_path)
    ).inputs()
    engine = RetrievalEngine()
    planned, planned_scored = sweep(engine, planned_db)
    structural, structural_scored = sweep(
        RetrievalEngine(EngineConfig(plan=False)), structural_db
    )
    assert planned == structural
    assert (planned_scored, structural_scored) == (24, 36)

    cold = engine.planner.stats
    shapes = {
        Statistics.from_pictures(video.root.pictures_at_level(LEVEL)).signature
        for video in planned_db.videos()
    }
    assert cold.plans_built == len(shapes) == 2
    probes = cold.support_probes
    warm, __ = sweep(RetrievalEngine(planner=engine.planner), planned_db)
    assert warm == planned
    assert engine.planner.stats.support_probes == probes
    assert engine.planner.stats.plans_built == len(shapes)


# ---------------------------------------------------------------------------
# plan caching
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_hit_on_identical_shape(self):
        planner = Planner()
        formula = parse("exists x . present(x)")
        config = EngineConfig()
        left = PictureRetrievalSystem(skewed_segments())
        right = PictureRetrievalSystem(skewed_segments())
        first = planner.plan_for(formula, left, 2, config)
        second = planner.plan_for(formula, right, 2, config)
        assert second is first  # cross-video reuse via the signature
        assert planner.stats.cache_hits == 1
        assert planner.stats.plans_built == 1

    def test_miss_on_different_shape_or_config(self):
        planner = Planner()
        formula = parse("exists x . present(x)")
        pictures = PictureRetrievalSystem(skewed_segments())
        plan = planner.plan_for(formula, pictures, 2, EngineConfig())
        other_level = planner.plan_for(formula, pictures, 1, EngineConfig())
        other_config = planner.plan_for(
            formula, pictures, 2, EngineConfig(join_mode=OUTER)
        )
        assert other_level is not plan
        assert other_config is not plan
        assert planner.stats.plans_built == 3

    def test_generation_sync_invalidates(self):
        planner = Planner()
        formula = parse("exists x . present(x)")
        pictures = PictureRetrievalSystem(skewed_segments())
        first = planner.plan_for(
            formula, pictures, 2, EngineConfig(), generation=1
        )
        second = planner.plan_for(
            formula, pictures, 2, EngineConfig(), generation=2
        )
        assert second is not first
        assert planner.cache.stats().invalidations == 1

    def test_plan_cache_fifo_eviction(self):
        cache = PlanCache(max_plans=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") is None
        assert cache.get("c") == 3
        assert cache.stats().entries == 2


# ---------------------------------------------------------------------------
# engine integration
# ---------------------------------------------------------------------------
class TestEngineIntegration:
    def _database(self):
        database = VideoDatabase()
        database.add(skewed_video())
        return database

    def test_planned_matches_unplanned(self):
        database = self._database()
        video = database.get("vid")
        formula = parse(
            "exists x . (present(x) and (eventually type(x) = 'person'))"
        )
        planned = RetrievalEngine()
        unplanned = RetrievalEngine(EngineConfig(plan=False))
        assert planned.evaluate_video(
            formula, video, database=database
        ) == unplanned.evaluate_video(formula, video, database=database)
        assert planned.planner.stats.plans_built == 1

    def test_short_circuit_skips_subformula(self):
        """A row-free selective side short-circuits its join partner."""
        database = self._database()
        video = database.get("vid")
        # No 'car' objects anywhere: the right conjunct's table is empty,
        # so the (swapped-first) evaluation skips scoring present(x).
        formula = parse(
            "exists x . (present(x) and (eventually type(x) = 'car'))"
        )
        planned = RetrievalEngine()
        unplanned = RetrievalEngine(EngineConfig(plan=False))
        a = planned.evaluate_video(formula, video, database=database)
        b = unplanned.evaluate_video(formula, video, database=database)
        assert a == b
        assert not a  # empty similarity list, identical both ways
        assert planned.planner.stats.skipped_subformulas == 1

    def test_plan_false_builds_no_planner_work(self):
        database = self._database()
        video = database.get("vid")
        engine = RetrievalEngine(EngineConfig(plan=False))
        engine.evaluate_video(
            parse("exists x . present(x)"), video, database=database
        )
        assert engine.planner is None

    def test_pure_ref_queries_never_planned(self):
        from repro.workloads.synthetic import random_similarity_list

        database = VideoDatabase()
        video = flat_video("v", [SegmentMetadata() for __ in range(4)])
        database.add(video)
        database.register_atomic(
            "A", "v", random_similarity_list(4, satisfy_fraction=0.5)
        )
        engine = RetrievalEngine()
        engine.evaluate_video(
            parse("eventually $A"), video, database=database
        )
        assert engine.planner.stats.plans_built == 0

    def test_naive_oracle_config_never_planned(self):
        database = self._database()
        video = database.get("vid")
        engine = RetrievalEngine(EngineConfig(naive_atoms=True))
        engine.evaluate_video(
            parse("exists x . present(x)"), video, database=database
        )
        assert (
            engine.planner is None
            or engine.planner.stats.plans_built == 0
        )

    def test_malformed_atom_raises_even_when_skippable(self):
        """Attr-var misuse raises whether or not the operand is skipped."""
        from repro.errors import HTLTypeError

        database = self._database()
        video = database.get("vid")
        # f(x) > h uses the attribute variable h twice in one comparison
        # chain misuse scenario; simpler: unbound attr var comparison is
        # checked by the picture system's validator either way.
        formula = parse(
            "exists x . ((eventually type(x) = 'car') and "
            "[h := f(x)] f(x) > h and f(x) < h)"
        )
        planned = RetrievalEngine()
        unplanned = RetrievalEngine(EngineConfig(plan=False))
        outcomes = []
        for engine in (planned, unplanned):
            try:
                engine.evaluate_video(formula, video, database=database)
                outcomes.append("ok")
            except HTLTypeError:
                outcomes.append("raised")
            except Exception as error:  # pragma: no cover - diagnostic
                outcomes.append(type(error).__name__)
        assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
STREAM_TEMPLATES = (
    "exists x . (present(x) and (eventually type(x) = '{kind}'))",
    "exists x . ((eventually present(x)) and (eventually type(x) = '{kind}'))",
    "exists x . ((type(x) = '{kind}') until present(x))",
    "exists x . exists y . "
    "(present(x) and eventually (present(y) and type(y) = '{kind}'))",
)


class RecordingPlanner(Planner):
    """Keeps every decision ``plan_for`` handed out, per plan key."""

    def __init__(self):
        super().__init__()
        self.decisions = {}

    def plan_for(self, *args, **kwargs):
        plan = super().plan_for(*args, **kwargs)
        self.decisions.setdefault(repr(plan.key), []).append(
            (
                tuple(
                    sorted((key, c.visits) for key, c in plan.atoms.items())
                ),
                tuple(sorted(plan.swapped)),
            )
        )
        return plan


def run_seeded_stream(seed=16, n_videos=6, n_requests=24):
    """One seeded multi-video request stream on one engine, serially.

    A few (length, rare-count) shapes recur across the videos, so some
    share a statistics signature and some do not; requests repeat, so
    the plan cache sees hits as well as misses.
    """
    rng = random.Random(seed)
    database = VideoDatabase()
    for position in range(n_videos):
        database.add(
            skewed_video(
                f"vid{position}",
                n=rng.choice((12, 20, 20)),
                rare=rng.choice((0, 2, 2, 5)),
            )
        )
    engine = RetrievalEngine(planner=RecordingPlanner())
    rankings = []
    for __ in range(n_requests):
        text = rng.choice(STREAM_TEMPLATES).format(
            kind=rng.choice(("person", "plane", "car"))
        )
        result = top_k_across_videos(
            engine, parse(text), database, k=3, prune=False
        )
        rankings.append(
            [(s.video, s.segment_id, s.actual, s.maximum) for s in result]
        )
    return engine.planner, rankings


class TestPlanDeterminism:
    def test_plans_do_not_depend_on_the_clock(self, monkeypatch):
        """Same seed, a clock running 1000x slower: same plans, same
        counters, same bytes out."""
        planner, rankings = run_seeded_stream()
        real = time.perf_counter
        with monkeypatch.context() as patch:
            patch.setattr(time, "perf_counter", lambda: real() * 1000.0)
            slow_planner, slow_rankings = run_seeded_stream()
        assert planner.stats.plans_built > 1
        assert planner.stats.cache_hits > 0
        assert slow_planner.stats == planner.stats
        assert slow_planner.decisions == planner.decisions
        assert all(
            len(set(decisions)) == 1
            for decisions in planner.decisions.values()
        )
        assert repr(slow_rankings) == repr(rankings)


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------
#: A join whose operands may come back with no rows, so the engine plans it.
OPEN_JOIN_QUERY = "exists x . (present(x) and (eventually type(x) = 'person'))"


class TestPlanObservability:
    def test_counters_flow_into_trace_spans(self):
        from repro.core import trace

        database = VideoDatabase()
        database.add(skewed_video())
        engine = RetrievalEngine()
        formula = parse(OPEN_JOIN_QUERY)
        with trace.recording() as recorder:
            top_k_across_videos(engine, formula, database, k=3)
        root = recorder.roots[-1]
        assert root.attrs["plans-built"] == 1
        assert root.attrs["plan-reuses"] == 0
        # bump() credits the innermost span, so roll up the subtree.
        counters = root.total_counters()
        assert counters.get(planning.PLAN_BUILT, 0) == 1
        assert counters.get(planning.PLAN_CACHE_MISS, 0) == 1

    def test_cross_video_plan_reuse(self):
        database = VideoDatabase()
        database.add(skewed_video("a"))
        database.add(skewed_video("b"))
        database.add(skewed_video("c"))
        engine = RetrievalEngine()
        top_k_across_videos(
            engine,
            parse(OPEN_JOIN_QUERY),
            database,
            k=3,
            prune=False,
        )
        stats = engine.planner.stats
        assert stats.plans_built == 1  # identical index shapes share it
        assert stats.cache_hits == 2
