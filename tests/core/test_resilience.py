"""Unit tests for the resilience layer: budgets, breakers, contexts."""

import threading

import pytest

from benchmarks.e2e.workloads import K, LEVEL, SMOKE, WORKLOADS, rows
from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine
from repro.core.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    QueryBudget,
    ResilienceContext,
)
from repro.core.topk import top_k_across_videos
from repro.errors import BudgetExceededError, CircuitOpenError
from repro.htl import parse
from repro.model.metadata import SegmentMetadata
from repro.pictures.retrieval import PictureRetrievalSystem
from repro.pictures.signature import looks_like_atom, resolve_clips


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


#: Seed 7, smoke size, the whole stream: ``(steps, charges, checkpoints,
#: clock reads)`` of one generous deadline budget per request.
IDLE_BUDGET_WORK = {
    "sparse": (1087, 321, 113, 125),
    "dense": (2917, 272, 82, 100),
    "temporal": (1211, 348, 224, 237),
}


@pytest.mark.parametrize("name", sorted(IDLE_BUDGET_WORK))
def test_idle_budget_reads_the_clock_only_at_checkpoints(
    name, tmp_path, monkeypatch
):
    """An armed deadline that never fires changes no answer.  Its cost is
    an integer add per charge: the clock is read once at creation, once
    per checkpoint, and once per ``check_interval`` steps, never per
    charge."""
    database, clips, stream = WORKLOADS[name](7, SMOKE, str(tmp_path)).inputs()
    charges = []
    checkpoints = []
    charge, checkpoint = QueryBudget.charge, QueryBudget.checkpoint

    def counted_charge(self, n=1, site=""):
        charges.append(n)
        return charge(self, n, site)

    def counted_checkpoint(self, site=""):
        checkpoints.append(site)
        return checkpoint(self, site)

    monkeypatch.setattr(QueryBudget, "charge", counted_charge)
    monkeypatch.setattr(QueryBudget, "checkpoint", counted_checkpoint)
    reads = []
    clock = FakeClock()

    def counted_clock():
        reads.append(None)
        return clock()

    steps = 0
    for text in stream:
        formula = resolve_clips(parse(text), clips)

        def ranked(budget=None):
            return rows(
                top_k_across_videos(
                    RetrievalEngine(), formula, database, K, level=LEVEL,
                    prune=False, budget=budget,
                )
            )

        bare = ranked()
        budget = QueryBudget(deadline_ms=10**9, clock=counted_clock)
        assert ranked(budget) == bare
        steps += budget.steps
    assert (
        steps, len(charges), len(checkpoints), len(reads)
    ) == IDLE_BUDGET_WORK[name]
    interval_reads = len(reads) - len(stream) - len(checkpoints)
    assert 0 <= interval_reads <= steps // budget.check_interval


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
    def test_scope_defaults_to_strict(self):
        with resilience.scope() as context:
            assert context.budget is None
            assert not context.lenient
        with resilience.scope(lenient=True) as context:
            assert context.lenient

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

