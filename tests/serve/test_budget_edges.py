"""QueryBudget edge cases at the serving boundaries (DESIGN.md §14).

Covers the corners where the SLA-derived budget meets the pool:
admission with zero/negative remaining, one step ceiling over every
shard of a sharded pool, and budgets exhausting while the server is
draining.
"""

import pytest

from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.errors import BudgetExceededError
from repro.htl import parse
from repro.serve import (
    EnginePool,
    RetrievalServer,
    SLAClass,
)
from repro.serve.request import STATUS_COMPLETED, STATUS_TIMED_OUT
from repro.shard import ShardedCorpus

from tests.serve.conftest import (
    FORMULA_TEXT,
    K,
    request_for,
    serve_classes,
)
from tests.shard.conftest import graded_corpus


@pytest.fixture
def corpus():
    return graded_corpus(n_videos=6, n_segments=16)


class TestAdmissionEdge:
    def test_whole_deadline_burned_in_queue_never_dispatches(self, corpus):
        """A fake clock jumps past the deadline between submit and
        dispatch: the worker resolves timed-out without touching an
        engine (attempts stays 0)."""
        now = [0.0]
        pool = EnginePool(ShardedCorpus.from_database(corpus), 1)
        server = RetrievalServer(
            pool, classes=serve_classes(), clock=lambda: now[0]
        )
        server._started = True  # no threads: we drive dispatch by hand
        server.submit(request_for(sla="interactive"))
        now[0] = 11.0  # past the 10s interactive deadline
        ticket = server._queue.take(0.1)
        server._serve_one(pool.workers[0], ticket)
        result = ticket.result(0.0)
        assert result.status == STATUS_TIMED_OUT
        assert result.attempts == 0
        assert isinstance(result.error, BudgetExceededError)
        assert result.error.site == "serve-admit"
        assert server.stats().conserved

    def test_exactly_at_deadline_is_timed_out(self, corpus):
        now = [0.0]
        pool = EnginePool(ShardedCorpus.from_database(corpus), 1)
        server = RetrievalServer(
            pool, classes=serve_classes(), clock=lambda: now[0]
        )
        server._started = True
        server.submit(request_for(sla="interactive"))
        now[0] = 10.0  # queued exactly the whole deadline
        ticket = server._queue.take(0.1)
        server._serve_one(pool.workers[0], ticket)
        assert ticket.result(0.0).status == STATUS_TIMED_OUT

    def test_queue_wait_shrinks_the_execution_budget(self, corpus):
        """The budget a worker runs under is deadline − queue wait, not
        the full deadline."""
        classes = serve_classes()
        sla = classes["interactive"]
        budget = sla.budget(queued_ms=9_000.0)
        remaining = budget.remaining_ms()
        assert remaining is not None
        assert remaining <= 1_000.0


class TestSharedStepBudget:
    def test_step_ceiling_covers_every_shard_of_the_pool(self, corpus):
        """An SLA step ceiling flows submit → budget → every shard: the
        sharded pool charges the request's one budget object."""
        sla = SLAClass(
            "batch", deadline_ms=30_000.0, max_steps=1_000_000, priority=0
        )
        budget = sla.budget(queued_ms=0.0)
        pool = EnginePool(ShardedCorpus.from_database(corpus, 3), 1)
        pool.execute(pool.workers[0], request_for(sla="batch"), budget)
        assert 0 < budget.steps <= sla.max_steps

    def test_tiny_step_budget_times_out_strict_degrades_lenient(
        self, corpus
    ):
        """A 2-step batch budget over 3 shards cannot finish scoring.
        Strict: the typed budget error resolves the request timed-out,
        no partial ranking leaks.  Lenient: an explicitly partial
        ranking with timed-out video outcomes."""
        classes = serve_classes(
            batch=SLAClass(
                "batch", deadline_ms=30_000.0, max_steps=2, priority=0
            )
        )
        pool = EnginePool(ShardedCorpus.from_database(corpus, 3), 1)
        with RetrievalServer(pool, classes=classes) as server:
            strict = server.query(
                FORMULA_TEXT, K, sla="batch", lenient=False
            )
            lenient = server.query(FORMULA_TEXT, K, sla="batch")
        assert strict.status == STATUS_TIMED_OUT
        assert isinstance(strict.error, BudgetExceededError)
        assert strict.topk is None  # nothing partial leaks out
        assert lenient.status == STATUS_COMPLETED
        assert lenient.degraded
        assert lenient.topk.partial

    def test_generous_step_budget_completes_exactly(self, corpus):
        reference = top_k_across_videos(
            RetrievalEngine(), parse(FORMULA_TEXT), corpus, K, prune=False
        )
        classes = serve_classes(
            batch=SLAClass(
                "batch",
                deadline_ms=30_000.0,
                max_steps=1_000_000,
                priority=0,
            )
        )
        pool = EnginePool(ShardedCorpus.from_database(corpus, 3), 1)
        with RetrievalServer(pool, classes=classes) as server:
            result = server.query(FORMULA_TEXT, K, sla="batch")
        assert result.status == STATUS_COMPLETED
        assert list(result.topk) == list(reference)


class TestExhaustionMidDrain:
    def test_deadlines_expiring_during_drain_are_swept(self, corpus):
        """Tickets whose deadline expires while the server drains end
        timed-out — the drain sweep and the expiry race, but every
        ticket is terminal and the ledger balances."""
        classes = serve_classes(
            batch=SLAClass("batch", deadline_ms=1.0, priority=0)
        )
        pool = EnginePool(ShardedCorpus.from_database(corpus), 1)
        # initial_service_ms=0: the backlog estimator must not reject
        # these 1ms-deadline requests before the drain race under test.
        server = RetrievalServer(
            pool, classes=classes, initial_service_ms=0.0
        )
        server._started = True  # no workers: everything expires queued
        tickets = [
            server.submit(request_for(sla="batch")) for __ in range(4)
        ]
        stats = server.close(drain_timeout_ms=30.0)
        for ticket in tickets:
            result = ticket.result(0.0)
            assert result.status == STATUS_TIMED_OUT
            assert isinstance(result.error, BudgetExceededError)
        assert stats.timed_out == 4
        assert stats.conserved

    def test_inflight_budget_overrun_during_drain_is_timed_out(
        self, corpus
    ):
        """A running request whose step budget fires mid-drain resolves
        timed-out (not dropped, not completed-with-garbage)."""
        classes = serve_classes(
            batch=SLAClass(
                "batch", deadline_ms=30_000.0, max_steps=1, priority=0
            )
        )
        pool = EnginePool(ShardedCorpus.from_database(corpus), 1)
        server = RetrievalServer(pool, classes=classes).start(warm=False)
        ticket = server.submit(request_for(sla="batch", lenient=False))
        stats = server.close()  # drain waits for the in-flight overrun
        result = ticket.result(0.0)
        assert result.status == STATUS_TIMED_OUT
        assert isinstance(result.error, BudgetExceededError)
        assert stats.conserved
