"""Shard-load retry: backoff schedule and bounds.

The retry schedule is fixed (three tries, 5 ms doubling to an 80 ms
cap, jitter 0.5); after the third failed try the load fails with the
genuine error, and the next call tries again from the start.  All
timing is injected (``rng``/``sleep`` on :class:`Shard`), so these
tests replay the exact backoff schedule without touching the clock.
"""

import pytest

from repro.core import resilience, trace
from repro.model.database import VideoDatabase
from repro.shard import Shard
from repro.shard.corpus import _backoff_s
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


def make_shard(loader, sleeps=None, rng=lambda: 0.0):
    return Shard(
        "shard-000",
        ("v0",),
        loader,
        rng=rng,
        sleep=(sleeps.append if sleeps is not None else lambda s: None),
    )


class TestBackoff:
    def test_backoff_sleeps_the_two_retry_delays(self):
        # rng() == 1.0 is the unjittered delay; a load retries twice.
        delays = [_backoff_s(n, lambda: 1.0) * 1000.0 for n in range(1, 3)]
        assert delays == [5.0, 10.0]

    def test_jitter_spreads_below_the_raw_delay(self):
        low = _backoff_s(1, lambda: 0.0) * 1000.0
        high = _backoff_s(1, lambda: 0.999) * 1000.0
        assert low == pytest.approx(2.5)
        assert 2.5 < high < 5.0


class TestShardRetry:
    def test_transient_failure_recovers_within_budget(self):
        state, load = flaky_loader(failures=2)
        sleeps = []
        shard = make_shard(load, sleeps)
        before = trace.METRICS.counters().get(trace.SHARD_LOAD_RETRIED, 0)
        database = shard.database()
        assert isinstance(database, VideoDatabase)
        assert state["loads"] == 1
        assert len(sleeps) == 2  # one backoff per recovered failure
        assert sleeps[0] < sleeps[1]  # exponential growth, jitter pinned
        after = trace.METRICS.counters().get(trace.SHARD_LOAD_RETRIED, 0)
        assert after - before == 2

    def test_attempts_bound_is_hard(self):
        state, load = flaky_loader(failures=10)
        sleeps = []
        shard = make_shard(load, sleeps)
        with pytest.raises(OSError):
            shard.database()
        assert state["loads"] == 0
        assert state["left"] == 7  # three tries, no more
        assert len(sleeps) == 2  # three tries → exactly two backoffs

    def test_every_call_retries_then_fails_with_the_loaders_error(self):
        state, load = flaky_loader(failures=100)
        shard = make_shard(load)
        for calls in (3, 6):
            with pytest.raises(OSError) as caught:
                shard.database()
            assert 100 - state["left"] == calls  # three tries per call
            assert str(caught.value) == "flaky disk read"  # the loader's own
        assert state["loads"] == 0

    def test_injected_faults_retry_like_real_ones(self):
        _, load = flaky_loader(failures=0)
        sleeps = []
        shard = make_shard(load, sleeps)
        spec = FaultSpec(site=resilience.SITE_SHARD_LOAD, max_faults=2)
        with inject(spec) as chaos:
            shard.database()
        assert chaos.faults_at(resilience.SITE_SHARD_LOAD) == 2
        assert len(sleeps) == 2

    def test_schedule_is_bounded_and_jittered(self):
        schedules = []
        for draw in (0.0, 0.999):
            _, load = flaky_loader(failures=10)
            sleeps = []
            with pytest.raises(OSError):
                make_shard(load, sleeps, rng=lambda: draw).database()
            assert len(sleeps) >= 1
            assert sum(sleeps) <= 0.1
            schedules.append(sleeps)
        assert schedules[0] != schedules[1]
