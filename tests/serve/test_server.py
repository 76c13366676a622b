"""The threaded server end to end: lifecycle, ledger, degradation."""

import threading

import pytest

from repro.core import resilience
from repro.errors import ServeError, ServeRejected
from repro.serve import (
    EnginePool,
    QueryRequest,
    RetrievalServer,
    ServeResult,
    SLAClass,
    Ticket,
)
from repro.serve.request import (
    STATUS_COMPLETED,
    STATUS_SHED,
    STATUS_TIMED_OUT,
)
from repro.shard import ShardedCorpus
from repro.testing.faults import FaultSpec, inject

from tests.serve.conftest import (
    FORMULA_TEXT,
    K,
    request_for,
    serve_classes,
)


class TestLifecycle:
    def test_submit_before_start_refused(self, pool):
        server = RetrievalServer(pool, classes=serve_classes())
        with pytest.raises(ServeError):
            server.submit(request_for())

    def test_double_start_refused(self, server):
        with pytest.raises(ServeError):
            server.start()

    def test_unknown_sla_refused(self, server):
        with pytest.raises(ServeError) as caught:
            server.submit(request_for(sla="platinum"))
        assert "platinum" in str(caught.value)

    def test_submit_after_close_rejected_closing(self, server):
        server.close()
        with pytest.raises(ServeRejected) as caught:
            server.submit(request_for())
        assert caught.value.reason == "closing"

    def test_close_is_idempotent(self, server):
        first = server.close()
        second = server.close()
        assert first.admitted == second.admitted

    def test_context_manager_drains(self, pool):
        with RetrievalServer(pool, classes=serve_classes()) as server:
            ticket = server.submit(request_for())
            result = ticket.result(30.0)
        assert result.status == STATUS_COMPLETED
        assert server.stats().conserved


class TestResults:
    def test_ranking_matches_the_direct_query(self, server, reference):
        result = server.query(FORMULA_TEXT, K, sla="interactive")
        assert result.status == STATUS_COMPLETED
        assert not result.degraded
        assert list(result.topk) == list(reference)
        assert result.raise_for_status() is result.topk

    def test_sharded_pool_matches_the_direct_query(self, corpus, reference):
        pool = EnginePool(ShardedCorpus.from_database(corpus, 3), 2)
        with RetrievalServer(pool, classes=serve_classes()) as server:
            result = server.query(FORMULA_TEXT, K)
        assert result.status == STATUS_COMPLETED
        assert list(result.topk) == list(reference)

    def test_timing_decomposition(self, server):
        result = server.query(FORMULA_TEXT, K)
        assert result.queue_ms >= 0.0
        assert result.service_ms > 0.0
        assert result.total_ms >= result.service_ms
        assert result.worker in {w.name for w in server.pool.workers}
        assert result.attempts == 1

    def test_per_request_profile_span(self, server):
        result = server.query(FORMULA_TEXT, K, profile=True)
        span = result.topk.profile
        assert span is not None
        assert span.kind == "serve"
        assert span.attrs["sla"] == "standard"
        # The query's own span tree nests under the serve span.
        kinds = {child.kind for child in span.children}
        assert "query" in kinds

    def test_payload_shape(self, server):
        payload = server.query(FORMULA_TEXT, K).to_payload()
        assert payload["status"] == "completed"
        assert payload["sla"] == "standard"
        assert {"queue_ms", "service_ms", "total_ms", "attempts"} <= set(
            payload
        )
        assert payload["result"]["segments"]

    def test_many_concurrent_clients_all_served(self, server, reference):
        results = []
        errors = []

        def client():
            try:
                results.append(server.query(FORMULA_TEXT, K))
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=client) for __ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
        assert not errors
        assert len(results) == 12
        for result in results:
            assert result.status == STATUS_COMPLETED
            assert list(result.topk) == list(reference)
        stats = server.stats()
        assert stats.admitted == 12
        assert stats.conserved


class TestDegradation:
    def test_persistent_worker_fault_degrades_not_raises(
        self, pool, corpus
    ):
        server = RetrievalServer(
            pool, classes=serve_classes(), max_attempts=2
        ).start(warm=False)
        spec = FaultSpec(site=resilience.SITE_SERVE_WORKER)
        try:
            with inject(spec):
                result = server.query(FORMULA_TEXT, K)
        finally:
            stats = server.close()
        assert result.status == STATUS_COMPLETED
        assert result.degraded
        assert result.error is not None
        assert result.topk.partial
        # The degradation floor names every video as failed.
        assert sorted(o.video for o in result.topk.outcomes) == sorted(
            corpus.names()
        )
        assert result.attempts == 2
        assert stats.degraded == 1
        assert stats.conserved

    def test_transient_worker_fault_retries_to_success(
        self, pool, reference
    ):
        server = RetrievalServer(
            pool, classes=serve_classes(), max_attempts=3
        ).start(warm=False)
        spec = FaultSpec(site=resilience.SITE_SERVE_WORKER, max_faults=1)
        try:
            with inject(spec):
                result = server.query(FORMULA_TEXT, K)
        finally:
            stats = server.close()
        assert result.status == STATUS_COMPLETED
        assert not result.degraded
        assert list(result.topk) == list(reference)
        assert result.attempts == 2
        assert stats.requeued == 1
        assert stats.conserved

    def test_all_breakers_open_degrades_without_livelock(self, pool):
        server = RetrievalServer(pool, classes=serve_classes()).start(
            warm=False
        )
        for worker in pool.workers:
            for __ in range(worker.breaker.failure_threshold):
                worker.breaker.record_failure()
        assert not pool.healthy_workers()
        try:
            result = server.query(FORMULA_TEXT, K)
        finally:
            stats = server.close()
        assert result.status == STATUS_COMPLETED
        assert result.degraded
        assert stats.conserved
        assert stats.healthy_workers == 0


class TestDrain:
    def test_drain_sweeps_queued_work_timed_out(self, pool):
        # No worker threads at all: start() is skipped, so submitted
        # work stays queued and close() must sweep every ticket.
        server = RetrievalServer(pool, classes=serve_classes())
        server._started = True  # bypass start: no threads, no warmup
        tickets = [server.submit(request_for()) for __ in range(5)]
        stats = server.close(drain_timeout_ms=50.0)
        for ticket in tickets:
            result = ticket.result(0.0)
            assert result.status == STATUS_TIMED_OUT
        assert stats.timed_out == 5
        assert stats.conserved

    @staticmethod
    def close_under_watchdog(server, drain_timeout_ms):
        """``server.close(...)`` on a helper thread; fails instead of
        hanging the suite if close does not return within 10 s."""
        outcome = []
        closer = threading.Thread(
            target=lambda: outcome.append(
                server.close(drain_timeout_ms=drain_timeout_ms)
            ),
            daemon=True,
        )
        closer.start()
        closer.join(timeout=10.0)
        assert not closer.is_alive(), "close() did not return"
        return outcome[0]

    def test_frozen_clock_without_workers_returns(self, pool):
        """A clock that stands still, no worker thread, one queued
        request: nothing can drain it, so close stops waiting at once
        and sweeps it."""
        sleeps = []
        server = RetrievalServer(
            pool,
            classes=serve_classes(),
            clock=lambda: 0.0,
            sleep=sleeps.append,
        )
        server._started = True  # bypass start: no threads, no warmup
        ticket = server.submit(request_for())
        stats = self.close_under_watchdog(server, 50.0)
        assert ticket.result(0.0).status == STATUS_TIMED_OUT
        assert (stats.timed_out, stats.outstanding) == (1, 0)
        assert stats.conserved
        assert sleeps == []

    def test_frozen_clock_waits_the_timeouts_worth_of_sleeps(self, pool):
        """A clock that stands still and a live worker that never takes
        the queued request: close sleeps 50 ms / 5 ms = 10 polls, not
        forever, then sweeps the request."""
        sleeps = []
        server = RetrievalServer(
            pool,
            classes=serve_classes(),
            clock=lambda: 0.0,
            sleep=sleeps.append,
        )
        server._started = True
        idle = threading.Thread(target=server._stop.wait, daemon=True)
        idle.start()
        server._threads.append(idle)
        ticket = server.submit(request_for())
        stats = self.close_under_watchdog(server, 50.0)
        assert len(sleeps) == 10
        assert ticket.result(0.0).status == STATUS_TIMED_OUT
        assert stats.timed_out == 1 and stats.conserved
        assert not idle.is_alive()

    def test_stats_payload_shape(self, server):
        server.query(FORMULA_TEXT, K)
        payload = server.close().to_payload()
        assert payload["conserved"] is True
        assert payload["admitted"] == 1
        assert payload["completed"] == 1
        assert payload["queue_depths"] == {
            "interactive": 0,
            "standard": 0,
            "batch": 0,
        }
        assert payload["latency_ms"]["standard"]["count"] == 1
        assert payload["n_workers"] == 2

    def test_ms_summaries_are_milliseconds(self, pool):
        """A fake clock holds a request 13 ms in the queue and stands
        still while it is served: every ``*_ms`` summary must say 13,
        not 0.013."""
        now = [0.0]
        server = RetrievalServer(
            pool, classes=serve_classes(), clock=lambda: now[0]
        )
        server._started = True  # no threads: we drive dispatch by hand
        ticket = server.submit(request_for(sla="interactive"))
        now[0] = 0.013
        server._serve_one(pool.workers[0], server._queue.take(0.1))
        result = ticket.result(0.0)
        assert result.status == STATUS_COMPLETED
        assert result.total_ms == pytest.approx(13.0)
        stats = server.stats()
        for summary in (
            stats.queue_wait_ms["interactive"],
            stats.latency_ms["interactive"],
        ):
            assert summary["count"] == 1
            for key in ("p50", "p95", "p99", "max"):
                assert summary[key] == pytest.approx(13.0)
        # Admission happened inside one clock reading.
        assert stats.admission_ms["count"] == 1
        assert stats.admission_ms["max"] == 0.0


#: One fake-clock tick is one service time: each tick every pooled worker
#: takes and serves one ticket.
TICK_S = 1.0
SLA_CYCLE = ("interactive", "standard", "batch")


def drive(server, pool, now, arrivals):
    """Hand-driven dispatch on a fake clock: at each tick submit that
    tick's requests, then let every worker serve one queued ticket, then
    advance the clock.  Runs until the arrivals are spent and the queue
    is empty; returns the admitted tickets and the rejections."""
    tickets = []
    rejected = []
    tick = 0
    while tick < len(arrivals) or server._queue.depth():
        for sla in arrivals[tick] if tick < len(arrivals) else ():
            try:
                tickets.append(server.submit(request_for(sla=sla)))
            except ServeRejected as rejection:
                rejected.append(rejection)
        for worker in pool.workers:
            ticket = server._queue.take(0.0)
            if ticket is not None:
                server._serve_one(worker, ticket)
        now[0] += TICK_S
        tick += 1
    return tickets, rejected


class TestOverload:
    """Twice the load the pool can serve, on a fake clock: outcomes are
    decided by dispatch order and shedding, never by scheduler jitter."""

    def test_twice_the_load_keeps_interactive_inside_its_deadline(
        self, pool, reference
    ):
        """Twelve ticks of four arrivals against two workers.  Strict
        priority serves every interactive request in the tick it
        arrives, inside a two-tick deadline, while standard and batch
        queue behind it; nothing is shed and the ledger balances."""
        now = [0.0]
        interactive = SLAClass(
            "interactive", deadline_ms=2_000.0 * TICK_S, queue_limit=32,
            priority=2,
        )
        server = RetrievalServer(
            pool,
            classes=serve_classes(interactive=interactive),
            clock=lambda: now[0],
        )
        server._started = True  # no threads: we drive dispatch by hand
        cycle = iter(SLA_CYCLE * 16)
        arrivals = [
            [next(cycle) for __ in range(2 * pool.n_workers)]
            for __ in range(12)
        ]
        tickets, rejected = drive(server, pool, now, arrivals)
        stats = server.close()
        assert stats.conserved and not rejected
        results = [ticket.result(0.0) for ticket in tickets]
        assert {result.status for result in results} == {STATUS_COMPLETED}
        waits = {
            sla: max(r.total_ms for r in results if r.sla == sla)
            for sla in SLA_CYCLE
        }
        assert waits == {
            "interactive": 0.0, "standard": 6_000.0, "batch": 16_000.0,
        }
        assert all(
            list(result.topk) == list(reference) for result in results
        )

    def test_capacity_burst_sheds_only_batch(self, pool, reference):
        """Twelve batch then four interactive requests into a queue of
        four, before any worker runs: every shed request is batch and
        carries a retry hint, batch beyond what it can shed is
        rejected, and the ledger balances once the queue drains."""
        now = [0.0]
        server = RetrievalServer(
            pool, classes=serve_classes(), capacity=4, clock=lambda: now[0]
        )
        server._started = True  # no threads: we drive dispatch by hand
        tickets, rejected = drive(
            server, pool, now, [["batch"] * 12 + ["interactive"] * 4]
        )
        stats = server.close()
        assert stats.conserved
        results = [ticket.result(0.0) for ticket in tickets]
        shed = [r for r in results if r.status == STATUS_SHED]
        completed = [r for r in results if r.status == STATUS_COMPLETED]
        assert [r.sla for r in shed] == ["batch"] * 4
        assert all(
            r.retry_after_ms is not None and r.retry_after_ms >= 0.0
            for r in shed
        )
        assert [r.sla for r in completed] == ["interactive"] * 4
        assert [rejection.sla for rejection in rejected] == ["batch"] * 8
        assert all(
            list(result.topk) == list(reference) for result in completed
        )


class TestTicket:
    def test_first_resolution_wins(self):
        ticket = Ticket(request_for(), 1, 0.0)
        won = ServeResult(1, "standard", STATUS_COMPLETED)
        lost = ServeResult(1, "standard", STATUS_TIMED_OUT)
        assert ticket.resolve(won)
        assert not ticket.resolve(lost)
        assert ticket.result(0.0) is won

    def test_transient_status_rejected(self):
        ticket = Ticket(request_for(), 1, 0.0)
        with pytest.raises(ServeError):
            ticket.resolve(ServeResult(1, "standard", "running"))

    def test_shed_result_raises_serve_rejected(self):
        result = ServeResult(
            1, "batch", STATUS_SHED, retry_after_ms=42.0
        )
        with pytest.raises(ServeRejected) as caught:
            result.raise_for_status()
        assert caught.value.retry_after_ms == 42.0
        assert caught.value.reason == "shed"

    def test_racing_resolvers_exactly_one_winner(self):
        ticket = Ticket(request_for(), 1, 0.0)
        wins = []
        barrier = threading.Barrier(8)

        def racer(n):
            barrier.wait()
            if ticket.resolve(ServeResult(1, "standard", STATUS_COMPLETED)):
                wins.append(n)

        threads = [
            threading.Thread(target=racer, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(wins) == 1
