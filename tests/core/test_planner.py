"""Unit tests for the cost-based query planner (DESIGN.md §13)."""

import random
import time

import pytest

from repro.core import planner as planning
from repro.core.cache import PlanCache
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.planner import (
    Planner,
    Statistics,
    has_picture_atoms,
    order_conjuncts,
    structural_cost,
)
from repro.core.tables import OUTER
from repro.htl import ast, parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.pictures.index import MetadataIndex
from repro.pictures.retrieval import PictureRetrievalSystem


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


# ---------------------------------------------------------------------------
# structural fallback (the old optimizer heuristic)
# ---------------------------------------------------------------------------
class TestStructuralCost:
    def test_tuple_shape_matches_old_heuristic(self):
        formula = parse("exists x . eventually present(x)")
        n_vars, n_temporal, size = structural_cost(formula)
        assert n_vars == 0  # closed formula: x is bound
        assert n_temporal == 1
        assert size == 3

    def test_free_vars_dominate(self):
        open_atom = parse("exists x . present(x)").sub
        closed = parse("eventually eventually eventually $A")
        # Free object variables are the dominant cost driver: one free var
        # outranks any number of temporal operators.
        assert structural_cost(closed) < structural_cost(open_atom)

    def test_order_conjuncts_is_stable(self):
        a = parse("$A")
        b = parse("$B")
        c = parse("eventually $C")
        assert order_conjuncts([a, b, c]) == [a, b, c]
        assert order_conjuncts([c, a, b]) == [a, b, c]

    def test_order_conjuncts_custom_key(self):
        a, b = parse("$A"), parse("eventually $B")
        assert order_conjuncts([a, b], key=lambda f: 0) == [a, b]


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

    def test_empty_statistics_dedup_factor(self):
        stats = Statistics.from_pictures(PictureRetrievalSystem([]))
        assert stats.dedup_factor == 1.0
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

    def test_every_picture_atom_gets_a_strategy(self):
        pictures = PictureRetrievalSystem(skewed_segments())
        formula = parse(
            "exists x . (present(x) and (eventually type(x) = 'person'))"
        )
        plan = Planner().plan_for(formula, pictures, 2, EngineConfig())
        assert len(plan.atoms) == 2
        assert all(
            choice.strategy in ("indexed", "naive")
            for choice in plan.atoms.values()
        )

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
        assert "strategy=" in text
        assert "evaluate right first" in text
        doc = plan.to_dict()
        assert doc["tree"]["children"]
        assert doc["estimated_cost"] == pytest.approx(plan.estimated_cost)


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
            (tuple(sorted(plan.strategies.items())), tuple(sorted(plan.swapped)))
        )
        return plan


def run_seeded_stream(seed=16, n_videos=6, n_requests=24):
    """One seeded multi-video request stream on one engine, serially.

    A few (length, rare-count) shapes recur across the videos, so some
    share a statistics signature and some do not; requests repeat, so
    the plan cache sees hits as well as misses.
    """
    from repro.core.topk import top_k_across_videos

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
class TestPlanObservability:
    def test_counters_flow_into_trace_spans(self):
        from repro.core import trace

        database = VideoDatabase()
        database.add(skewed_video())
        engine = RetrievalEngine()
        formula = parse("exists x . present(x)")
        with trace.recording() as recorder:
            from repro.core.topk import top_k_across_videos

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
        from repro.core.topk import top_k_across_videos

        top_k_across_videos(
            engine,
            parse("exists x . present(x)"),
            database,
            k=3,
            prune=False,
        )
        stats = engine.planner.stats
        assert stats.plans_built == 1  # identical index shapes share it
        assert stats.cache_hits == 2
