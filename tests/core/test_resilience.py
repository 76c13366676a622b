"""Unit tests for the resilience layer: budgets, breakers, fallbacks."""

import threading

import pytest

from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine
from repro.core.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    QueryBudget,
    ResilienceContext,
    ResiliencePolicy,
    evaluate_with_fallback,
)
from repro.core.simlist import SimilarityList
from repro.errors import (
    BudgetExceededError,
    CircuitOpenError,
    UnsupportedFormulaError,
)
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.pictures.retrieval import PictureRetrievalSystem
from repro.pictures.signature import looks_like_atom


class FakeClock:
    """A hand-cranked monotone clock for deterministic deadline tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestQueryBudget:
    def test_deadline_raises_with_site_and_elapsed(self):
        clock = FakeClock()
        budget = QueryBudget(deadline_ms=50, clock=clock, check_interval=1)
        budget.charge(1, site="warm")
        clock.advance(0.2)
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge(1, site="list-merge")
        error = excinfo.value
        assert error.site == "list-merge"
        assert error.elapsed_ms == pytest.approx(200.0)
        assert "50" in str(error)

    def test_step_budget_raises_independent_of_clock(self):
        budget = QueryBudget(max_steps=10, clock=FakeClock())
        budget.charge(10)
        with pytest.raises(BudgetExceededError) as excinfo:
            budget.charge(1, site="atom-scoring")
        assert excinfo.value.steps == 11
        assert excinfo.value.site == "atom-scoring"

    def test_clock_checked_only_every_interval(self):
        clock = FakeClock()
        budget = QueryBudget(deadline_ms=50, clock=clock, check_interval=100)
        clock.advance(10.0)  # way past the deadline
        for __ in range(99):
            budget.charge(1)  # below the check interval: no clock read
        with pytest.raises(BudgetExceededError):
            budget.charge(1)

    def test_checkpoint_forces_immediate_check(self):
        clock = FakeClock()
        budget = QueryBudget(deadline_ms=50, clock=clock, check_interval=10**6)
        clock.advance(10.0)
        with pytest.raises(BudgetExceededError):
            budget.checkpoint(site="engine-table")

    def test_remaining_and_elapsed(self):
        clock = FakeClock()
        budget = QueryBudget(deadline_ms=100, clock=clock)
        clock.advance(0.03)
        assert budget.elapsed_ms() == pytest.approx(30.0)
        assert budget.remaining_ms() == pytest.approx(70.0)
        clock.advance(1.0)
        assert budget.remaining_ms() == 0.0
        assert budget.expired()

    def test_no_limits_never_expires(self):
        budget = QueryBudget(clock=FakeClock())
        budget.charge(10**6)
        budget.checkpoint()
        assert not budget.expired()
        assert budget.remaining_ms() is None

    def test_invalid_limits_rejected(self):
        with pytest.raises(BudgetExceededError):
            QueryBudget(deadline_ms=0)
        with pytest.raises(BudgetExceededError):
            QueryBudget(max_steps=-1)

    def test_overrun_counted(self):
        trace.METRICS.reset()
        budget = QueryBudget(max_steps=1, clock=FakeClock())
        with pytest.raises(BudgetExceededError):
            budget.charge(5)
        assert trace.METRICS.counters()[trace.BUDGET_EXCEEDED] == 1

    def test_warm_clip_scorer_charges_the_same_steps(self):
        """The signature → score memo sits below ``score()``: sweeping
        with every score already memoised on the atom is charged exactly
        like the first sweep, on the indexed and the naive path."""
        signatures = [(3.0, 1.0, 1.0), (1.0, 2.0, 3.0), (1.0, 1.0, 1.0)]
        segments = [
            SegmentMetadata(signature=signatures[index % 3])
            for index in range(300)
        ]
        system = PictureRetrievalSystem(segments)
        atom = looks_like_atom([signatures[0]], 0.9)
        for use_index in (True, False):
            charged = []
            for __ in range(2):
                budget = QueryBudget(clock=FakeClock())
                with resilience.scope(budget=budget):
                    system.similarity_list(atom, use_index=use_index)
                charged.append(budget.steps)
            # One step for the binding, one per segment visited.
            assert charged == [301, 301]


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker("x", failure_threshold=3, cooldown=2)
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker("x", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_probe_after_cooldown(self):
        breaker = CircuitBreaker("x", failure_threshold=1, cooldown=3)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert not breaker.allow()
        assert breaker.allow()  # third refusal-count probe: half-open trial
        assert breaker.state == HALF_OPEN

    def test_half_open_success_closes(self):
        breaker = CircuitBreaker("x", failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker("x", failure_threshold=1, cooldown=2)
        breaker.record_failure()
        assert not breaker.allow()  # first refusal of the cooldown
        assert breaker.allow()  # second probe runs half-open
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # cooldown restarts from zero

    def test_half_open_admits_one_probe_only(self):
        breaker = CircuitBreaker("x", failure_threshold=1, cooldown=1)
        breaker.record_failure()
        assert breaker.allow()
        assert not breaker.allow()  # concurrent probe refused

    def test_guard_raises_typed_error(self):
        breaker = CircuitBreaker("atoms", failure_threshold=1, cooldown=99)
        breaker.record_failure()
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.guard()
        assert excinfo.value.breaker == "atoms"

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            CircuitBreaker("x", failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker("x", cooldown=0)


class TestPolicyAndContext:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ResiliencePolicy(mode="yolo")

    def test_lenient_property(self):
        assert not ResiliencePolicy().lenient
        assert ResiliencePolicy(mode=resilience.LENIENT).lenient

    def test_breakers_are_minted_once_with_policy_knobs(self):
        context = ResilienceContext(
            ResiliencePolicy(breaker_threshold=7, breaker_cooldown=11)
        )
        breaker = context.breaker("engine")
        assert breaker is context.breaker("engine")
        assert breaker.failure_threshold == 7
        assert breaker.cooldown == 11
        assert context.breaker("other") is not breaker

    def test_scope_installs_and_restores(self):
        assert resilience.current() is None
        with resilience.scope(budget=QueryBudget(max_steps=5)) as context:
            assert resilience.current() is context
            assert resilience.current_budget() is context.budget
        assert resilience.current() is None
        assert resilience.current_budget() is None

    def test_context_is_thread_local(self):
        seen = {}

        def worker():
            seen["context"] = resilience.current()

        with resilience.scope():
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["context"] is None

    def test_activate_nests(self):
        outer = ResilienceContext()
        inner = ResilienceContext()
        with resilience.activate(outer):
            with resilience.activate(inner):
                assert resilience.current() is inner
            assert resilience.current() is outer


def _video_with_trains(name="v"):
    return flat_video(
        name,
        [
            SegmentMetadata(objects=[make_object("a", "train")]),
            SegmentMetadata(),
            SegmentMetadata(objects=[make_object("a", "train")]),
        ],
    )


class _ExplodingEngine(RetrievalEngine):
    """Primary path always fails; the naive fallback is a real engine."""

    def evaluate_video(self, *args, **kwargs):
        raise RuntimeError("primary engine down")


class TestEvaluateWithFallback:
    def test_primary_success_needs_no_context(self):
        database = VideoDatabase()
        video = database.add(_video_with_trains())
        formula = parse("exists x . present(x)")
        engine = RetrievalEngine()
        direct = engine.evaluate_video(formula, video, database=database)
        assert (
            evaluate_with_fallback(engine, formula, video, 2, database)
            == direct
        )

    def test_engine_failure_falls_back_to_naive(self):
        trace.METRICS.reset()
        database = VideoDatabase()
        video = database.add(_video_with_trains())
        formula = parse("exists x . present(x)")
        oracle = RetrievalEngine().evaluate_video(
            formula, video, database=database
        )
        context = ResilienceContext()
        result = evaluate_with_fallback(
            _ExplodingEngine(), formula, video, 2, database, context
        )
        assert result == oracle
        assert trace.METRICS.counters()[trace.ENGINE_FALLBACK] == 1

    def test_no_context_propagates_primary_error(self):
        database = VideoDatabase()
        video = database.add(_video_with_trains())
        with pytest.raises(RuntimeError, match="primary engine down"):
            evaluate_with_fallback(
                _ExplodingEngine(),
                parse("exists x . present(x)"),
                video,
                2,
                database,
                None,
            )

    def test_fallback_disabled_by_policy(self):
        database = VideoDatabase()
        video = database.add(_video_with_trains())
        context = ResilienceContext(ResiliencePolicy(engine_fallback=False))
        with pytest.raises(RuntimeError, match="primary engine down"):
            evaluate_with_fallback(
                _ExplodingEngine(),
                parse("exists x . present(x)"),
                video,
                2,
                database,
                context,
            )

    def test_budget_error_never_degrades(self):
        class DeadlineEngine(RetrievalEngine):
            def evaluate_video(self, *args, **kwargs):
                raise BudgetExceededError("deadline blown")

        database = VideoDatabase()
        video = database.add(_video_with_trains())
        context = ResilienceContext()
        with pytest.raises(BudgetExceededError):
            evaluate_with_fallback(
                DeadlineEngine(),
                parse("exists x . present(x)"),
                video,
                2,
                database,
                context,
            )

    def test_sql_baseline_recovers_type1_queries(self, monkeypatch):
        trace.METRICS.reset()
        database = VideoDatabase()
        video = database.add(_video_with_trains())
        sim = SimilarityList.from_entries([((1, 2), 3.0)], 4.0)
        database.register_atomic("P1", video.name, sim)
        formula = parse("eventually atomic('P1')")
        # Break *every* engine evaluation — primary and naive alike — so
        # only the SQL hop can answer.
        monkeypatch.setattr(
            RetrievalEngine,
            "evaluate_video",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("engines down")
            ),
        )
        context = ResilienceContext()
        result = evaluate_with_fallback(
            RetrievalEngine(), formula, video, 2, database, context
        )
        assert result.maximum == pytest.approx(4.0)
        assert result.support_size() > 0
        assert trace.METRICS.counters()[trace.SQL_FALLBACK] == 1

    def test_type2_queries_cannot_use_sql_and_raise_primary(self, monkeypatch):
        database = VideoDatabase()
        video = database.add(_video_with_trains())
        monkeypatch.setattr(
            RetrievalEngine,
            "evaluate_video",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("engines down")
            ),
        )
        context = ResilienceContext()
        with pytest.raises(RuntimeError, match="engines down"):
            evaluate_with_fallback(
                RetrievalEngine(),
                parse("exists x . present(x)"),
                video,
                2,
                database,
                context,
            )

    def test_breaker_opens_after_repeated_engine_failures(self, monkeypatch):
        database = VideoDatabase()
        video = database.add(_video_with_trains())
        monkeypatch.setattr(
            RetrievalEngine,
            "evaluate_video",
            lambda self, *a, **k: (_ for _ in ()).throw(
                RuntimeError("engines down")
            ),
        )
        context = ResilienceContext(ResiliencePolicy(breaker_threshold=2))
        formula = parse("exists x . present(x)")
        for __ in range(2):
            with pytest.raises(RuntimeError):
                evaluate_with_fallback(
                    RetrievalEngine(), formula, video, 2, database, context
                )
        assert context.breaker("engine").state == OPEN


class TestSqlBaselineGuards:
    def test_outer_join_mode_rejected(self):
        from repro.core.engine import EngineConfig
        from repro.core.resilience import _sql_baseline
        from repro.core.tables import OUTER

        database = VideoDatabase()
        video = database.add(_video_with_trains())
        engine = RetrievalEngine(EngineConfig(join_mode=OUTER))
        with pytest.raises(UnsupportedFormulaError, match="inner-join"):
            _sql_baseline(
                engine, parse("atomic('P1')"), video, 2, database
            )

    def test_unregistered_atom_rejected(self):
        from repro.core.resilience import _sql_baseline

        database = VideoDatabase()
        video = database.add(_video_with_trains())
        with pytest.raises(UnsupportedFormulaError, match="no similarity"):
            _sql_baseline(
                RetrievalEngine(),
                parse("atomic('ghost')"),
                video,
                2,
                database,
            )
