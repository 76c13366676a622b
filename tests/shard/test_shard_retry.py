"""The shard-load retry policy: backoff schedule, bounds, breaker.

All timing is injected (``rng``/``sleep`` on :class:`Shard`), so these
tests replay the exact backoff schedule without touching the clock.
"""

import pytest

from repro.core import resilience, trace
from repro.errors import InjectedFaultError, ShardError
from repro.model.database import VideoDatabase
from repro.shard import DEFAULT_RETRY, RetryPolicy, Shard
from repro.testing.faults import FaultSpec, inject


def flaky_loader(failures):
    """A loader that raises ``failures`` times, then succeeds."""
    state = {"left": failures, "loads": 0}

    def load():
        if state["left"] > 0:
            state["left"] -= 1
            raise OSError("flaky disk read")
        state["loads"] += 1
        return VideoDatabase()

    return state, load


def make_shard(loader, retry, sleeps=None, rng=lambda: 0.0):
    return Shard(
        "shard-000",
        ("v0",),
        loader,
        retry=retry,
        rng=rng,
        sleep=(sleeps.append if sleeps is not None else lambda s: None),
    )


class TestRetryPolicy:
    def test_backoff_grows_exponentially_to_the_cap(self):
        policy = RetryPolicy(
            attempts=6,
            base_delay_ms=10.0,
            max_delay_ms=50.0,
            multiplier=2.0,
            jitter=0.0,
        )
        delays = [policy.backoff_s(n) * 1000.0 for n in range(1, 6)]
        assert delays == [10.0, 20.0, 40.0, 50.0, 50.0]

    def test_jitter_spreads_below_the_raw_delay(self):
        policy = RetryPolicy(base_delay_ms=10.0, jitter=0.5)
        low = policy.backoff_s(1, rng=lambda: 0.0) * 1000.0
        high = policy.backoff_s(1, rng=lambda: 0.999) * 1000.0
        assert low == pytest.approx(5.0)
        assert 5.0 < high < 10.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay_ms": 0.0},
            {"max_delay_ms": -1.0},
            {"multiplier": 0.5},
            {"jitter": 1.5},
        ],
    )
    def test_rejects_nonsense_knobs(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_validation_edges(self):
        # A constant backoff is allowed; a zero cap is not.
        flat = RetryPolicy(multiplier=1.0, jitter=0.0)
        assert flat.backoff_s(3) == flat.backoff_s(1)
        with pytest.raises(ValueError):
            RetryPolicy(max_delay_ms=0.0)


class TestShardRetry:
    def test_transient_failure_recovers_within_budget(self):
        state, load = flaky_loader(failures=2)
        sleeps = []
        shard = make_shard(load, RetryPolicy(attempts=3), sleeps)
        before = trace.METRICS.counters().get(trace.SHARD_LOAD_RETRIED, 0)
        database = shard.database()
        assert isinstance(database, VideoDatabase)
        assert state["loads"] == 1
        assert len(sleeps) == 2  # one backoff per recovered failure
        assert sleeps[0] < sleeps[1]  # exponential growth, jitter pinned
        after = trace.METRICS.counters().get(trace.SHARD_LOAD_RETRIED, 0)
        assert after - before == 2
        assert shard.breaker.state == resilience.CLOSED

    def test_attempts_bound_is_hard(self):
        state, load = flaky_loader(failures=10)
        sleeps = []
        shard = make_shard(load, RetryPolicy(attempts=2), sleeps)
        with pytest.raises(OSError):
            shard.database()
        assert state["loads"] == 0
        assert len(sleeps) == 1  # attempts=2 → exactly one backoff

    def test_attempts_one_is_the_old_no_retry_behaviour(self):
        _, load = flaky_loader(failures=1)
        sleeps = []
        shard = make_shard(load, RetryPolicy(attempts=1), sleeps)
        with pytest.raises(OSError):
            shard.database()
        assert sleeps == []

    def test_open_breaker_fails_fast_without_retrying(self):
        state, load = flaky_loader(failures=100)
        shard = make_shard(load, RetryPolicy(attempts=2))
        # Two queries' worth of failures trip the threshold-3 breaker.
        for _ in range(2):
            with pytest.raises(OSError):
                shard.database()
        assert shard.breaker.state == resilience.OPEN
        calls_before = 100 - state["left"]
        with pytest.raises(ShardError) as caught:
            shard.database()
        assert "breaker" in str(caught.value)
        assert 100 - state["left"] == calls_before  # loader never touched

    def test_breaker_halfopen_probe_readmits_a_recovered_shard(self):
        state, load = flaky_loader(failures=3)
        shard = make_shard(load, RetryPolicy(attempts=2))
        for _ in range(2):
            with pytest.raises(OSError):
                shard.database()
        assert shard.breaker.state == resilience.OPEN
        # Burn the cooldown with fail-fast refusals, then the half-open
        # probe admits one trial, which succeeds and closes the breaker.
        for _ in range(shard.breaker.cooldown - 1):
            with pytest.raises(ShardError):
                shard.database()
        database = shard.database()
        assert isinstance(database, VideoDatabase)
        assert state["loads"] == 1
        assert shard.breaker.state == resilience.CLOSED

    def test_injected_faults_retry_like_real_ones(self):
        _, load = flaky_loader(failures=0)
        sleeps = []
        shard = make_shard(load, RetryPolicy(attempts=3), sleeps)
        spec = FaultSpec(site=resilience.SITE_SHARD_LOAD, max_faults=2)
        with inject(spec) as chaos:
            shard.database()
        assert chaos.faults_at(resilience.SITE_SHARD_LOAD) == 2
        assert len(sleeps) == 2

    def test_default_policy_is_bounded_and_jittered(self):
        assert DEFAULT_RETRY.attempts >= 2
        assert DEFAULT_RETRY.jitter > 0.0
        assert DEFAULT_RETRY.max_delay_ms <= 100.0
