"""Seeded chaos over the serving fault sites (DESIGN.md §14).

The two properties that must survive any injected fault schedule:

* **Conservation** — every admitted request terminates in exactly one
  of ``completed`` / ``timed-out`` / ``shed``; the ledger balances.
* **No silent corruption** — a ``completed`` result is either the exact
  fault-free ranking or explicitly degraded (``partial`` + error);
  never a silently wrong or duplicated ranking.

``CHAOS_SEED`` (CI matrix) varies the injection schedule; every run
asserts the same properties.
"""

import os

import pytest

from repro.core import resilience
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.errors import InjectedFaultError, ServeRejected
from repro.htl import parse
from repro.serve import EnginePool, RetrievalServer
from repro.serve.request import (
    STATUS_COMPLETED,
    STATUS_SHED,
    STATUS_TIMED_OUT,
    TERMINAL_STATUSES,
)
from repro.shard import ShardedCorpus
from repro.testing.faults import FaultSpec, inject

from tests.serve.conftest import (
    FORMULA_TEXT,
    K,
    request_for,
    serve_classes,
)
from tests.shard.conftest import graded_corpus

SEED = int(os.environ.get("CHAOS_SEED", "1997"))


@pytest.fixture
def corpus():
    return graded_corpus(n_videos=6, n_segments=16)


@pytest.fixture
def reference(corpus):
    return top_k_across_videos(
        RetrievalEngine(), parse(FORMULA_TEXT), corpus, K, prune=False
    )


def assert_no_silent_corruption(result, reference):
    """A completed ranking is exact or *visibly* degraded — and never
    contains a duplicated segment."""
    assert result.status in TERMINAL_STATUSES
    if result.status != STATUS_COMPLETED:
        return
    keys = [(s.video, s.segment_id) for s in result.topk]
    assert len(keys) == len(set(keys)), "duplicated segment in ranking"
    if result.degraded:
        assert result.topk.partial or result.error is not None
    else:
        assert list(result.topk) == list(reference)


def run_storm(server, n_requests, slas=("interactive", "standard", "batch")):
    """Submit a burst, tolerate typed rejections, wait out every ticket."""
    tickets = []
    rejections = 0
    admit_faults = 0
    for position in range(n_requests):
        try:
            tickets.append(
                server.submit(request_for(sla=slas[position % len(slas)]))
            )
        except ServeRejected as rejection:
            assert rejection.reason
            assert rejection.retry_after_ms >= 0.0
            rejections += 1
        except InjectedFaultError:
            admit_faults += 1
    results = [ticket.result(60.0) for ticket in tickets]
    return tickets, results, rejections, admit_faults


class TestAdmitFaults:
    def test_admission_faults_never_lose_requests(self, corpus, reference):
        pool = EnginePool(ShardedCorpus.from_database(corpus), 2)
        server = RetrievalServer(pool, classes=serve_classes()).start(
            warm=False
        )
        spec = FaultSpec(
            site=resilience.SITE_SERVE_ADMIT, rate=0.5, max_faults=6
        )
        try:
            with inject(spec, seed=SEED) as chaos:
                __, results, rejections, admit_faults = run_storm(server, 12)
        finally:
            stats = server.close()
        assert admit_faults == chaos.faults_at(resilience.SITE_SERVE_ADMIT)
        # Submitted splits exactly into admitted + rejected + faulted.
        assert stats.submitted == (
            stats.admitted + rejections + admit_faults
        )
        assert stats.conserved
        for result in results:
            assert_no_silent_corruption(result, reference)


class TestWorkerFaults:
    def test_worker_faults_retry_or_degrade_never_corrupt(
        self, corpus, reference
    ):
        pool = EnginePool(ShardedCorpus.from_database(corpus), 2)
        server = RetrievalServer(
            pool, classes=serve_classes(), max_attempts=2
        ).start(warm=False)
        spec = FaultSpec(
            site=resilience.SITE_SERVE_WORKER, rate=0.5, max_faults=8
        )
        try:
            with inject(spec, seed=SEED) as chaos:
                __, results, *_ = run_storm(server, 12)
        finally:
            stats = server.close()
        assert len(results) == 12
        assert stats.conserved
        assert stats.completed + stats.timed_out + stats.shed == 12
        for result in results:
            assert_no_silent_corruption(result, reference)
        if chaos.faults_at(resilience.SITE_SERVE_WORKER) > 0:
            # Every injected fault surfaced as a retry or a visible
            # degradation, never silently.
            assert stats.requeued + stats.degraded > 0


class TestDrainFaults:
    def test_drain_fault_cannot_leak_tickets(self, corpus, reference):
        pool = EnginePool(ShardedCorpus.from_database(corpus), 2)
        server = RetrievalServer(pool, classes=serve_classes()).start(
            warm=False
        )
        tickets = [server.submit(request_for()) for __ in range(6)]
        spec = FaultSpec(site=resilience.SITE_SERVE_DRAIN, max_faults=1)
        with inject(spec, seed=SEED) as chaos:
            stats = server.close()
        assert chaos.faults_at(resilience.SITE_SERVE_DRAIN) == 1
        assert stats.drain_faults == 1
        assert stats.conserved
        for ticket in tickets:
            result = ticket.result(0.0)  # terminal by conservation
            assert_no_silent_corruption(result, reference)


class TestFullStorm:
    def test_all_sites_at_once_conserve_and_never_corrupt(
        self, corpus, reference
    ):
        pool = EnginePool(ShardedCorpus.from_database(corpus), 3)
        server = RetrievalServer(
            pool, classes=serve_classes(), max_attempts=2
        ).start(warm=False)
        specs = (
            FaultSpec(
                site=resilience.SITE_SERVE_ADMIT, rate=0.3, max_faults=4
            ),
            FaultSpec(
                site=resilience.SITE_SERVE_WORKER, rate=0.3, max_faults=6
            ),
            FaultSpec(site=resilience.SITE_SERVE_DRAIN, max_faults=1),
        )
        with inject(*specs, seed=SEED):
            try:
                tickets, results, rejections, admit_faults = run_storm(
                    server, 18
                )
            finally:
                stats = server.close()
        assert stats.submitted == 18
        assert stats.submitted == (
            stats.admitted + rejections + admit_faults
        )
        assert stats.conserved
        by_status = {
            STATUS_COMPLETED: 0,
            STATUS_TIMED_OUT: 0,
            STATUS_SHED: 0,
        }
        for result in results:
            by_status[result.status] += 1
            assert_no_silent_corruption(result, reference)
        assert by_status[STATUS_COMPLETED] == stats.completed
        assert by_status[STATUS_TIMED_OUT] == stats.timed_out
        assert by_status[STATUS_SHED] == stats.shed
