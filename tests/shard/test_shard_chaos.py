"""Shard fault tolerance: dead shards, corrupt stores, recovery.

The headline property: in lenient mode a corrupt or dead shard yields a
ranking *identical to querying the surviving shards alone* — degraded
coverage, never a silently wrong order — while strict mode refuses with
a typed :class:`~repro.errors.ShardError` chaining the underlying
failure.  A shard whose load failed answers in full on the next clean
query.

The seeded chaos test's seeds are fixed; CI sweeps them via the
CHAOS_SEED environment variable.
"""

import os
import shutil

import pytest

from repro.core import resilience
from repro.core.engine import RetrievalEngine
from repro.core.topk import OUTCOME_FAILED, top_k_across_videos
from repro.errors import InjectedFaultError, ShardError
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.shard import ShardedCorpus
from repro.shard.corpus import _LOAD_ATTEMPTS
from repro.store import save_sharded
from repro.testing.faults import FaultSpec, inject

from tests.shard.conftest import graded_corpus

FORMULA_TEXT = "$P1 and eventually $P2"

#: Default chaos seeds; override one via CHAOS_SEED for CI sweeps.
SEEDS = [1, 7, 23]
if os.environ.get("CHAOS_SEED"):
    SEEDS = [int(os.environ["CHAOS_SEED"])]


def survivors_only(corpus, dead_names):
    """The unsharded ranking over every video not owned by the dead shard."""
    surviving = VideoDatabase()
    for name in corpus.names():
        if name in dead_names:
            continue
        surviving.add(corpus.get(name))
        for predicate in corpus.atomic_names():
            sim = corpus.atomic_list(predicate, name, 2)
            if sim is not None:
                surviving.register_atomic(predicate, name, sim)
    return top_k_across_videos(
        RetrievalEngine(), parse(FORMULA_TEXT), surviving, 8, prune=False
    )


class TestShardLoadFaults:
    def test_lenient_matches_surviving_shards_alone(self, corpus):
        sharded = ShardedCorpus.from_database(corpus, 3)
        dead = sharded.shards[0].videos
        # Persistent death: enough faults to exhaust shard-000's whole
        # retry budget (transient faults now heal, see below).
        spec = FaultSpec(
            site=resilience.SITE_SHARD_LOAD, max_faults=_LOAD_ATTEMPTS
        )
        with inject(spec) as chaos:
            result = sharded.top_k(
                RetrievalEngine(),
                parse(FORMULA_TEXT),
                8,
                lenient=True,
            )
        assert chaos.faults_at(resilience.SITE_SHARD_LOAD) == _LOAD_ATTEMPTS
        assert result.partial
        failed = [
            o.video for o in result.outcomes if o.status == OUTCOME_FAILED
        ]
        assert sorted(failed) == sorted(dead)
        for outcome in result.outcomes:
            if outcome.status == OUTCOME_FAILED:
                assert isinstance(outcome.error, ShardError)
                assert outcome.error.shard == "shard-000"
        # The ranking is exactly the surviving shards' ranking.
        assert list(result) == list(survivors_only(corpus, set(dead)))

    def test_strict_raises_with_cause(self, corpus):
        sharded = ShardedCorpus.from_database(corpus, 3)
        spec = FaultSpec(
            site=resilience.SITE_SHARD_LOAD, max_faults=_LOAD_ATTEMPTS
        )
        with inject(spec):
            with pytest.raises(ShardError) as caught:
                sharded.top_k(
                    RetrievalEngine(),
                    parse(FORMULA_TEXT),
                    8,
                    )
        assert caught.value.shard == "shard-000"
        assert isinstance(caught.value.__cause__, InjectedFaultError)

    def test_transient_fault_heals_inside_the_query(self, corpus):
        """A single flaky read no longer marks the shard failed: the
        retry policy absorbs it and the ranking is full and exact."""
        expected = top_k_across_videos(
            RetrievalEngine(), parse(FORMULA_TEXT), corpus, 8, prune=False
        )
        sharded = ShardedCorpus.from_database(corpus, 3)
        spec = FaultSpec(site=resilience.SITE_SHARD_LOAD, max_faults=1)
        with inject(spec) as chaos:
            healed = sharded.top_k(
                RetrievalEngine(),
                parse(FORMULA_TEXT),
                8,
                lenient=True,
            )
        assert chaos.faults_at(resilience.SITE_SHARD_LOAD) == 1
        assert not healed.partial
        assert healed == expected

    def test_recovers_once_the_fault_clears(self, corpus):
        expected = top_k_across_videos(
            RetrievalEngine(), parse(FORMULA_TEXT), corpus, 8, prune=False
        )
        sharded = ShardedCorpus.from_database(corpus, 3)
        spec = FaultSpec(
            site=resilience.SITE_SHARD_LOAD, max_faults=_LOAD_ATTEMPTS
        )
        with inject(spec):
            degraded = sharded.top_k(
                RetrievalEngine(),
                parse(FORMULA_TEXT),
                8,
                lenient=True,
            )
        assert degraded.partial
        # Load failures are not memoized: the same corpus answers in
        # full on the very next query.
        healthy = sharded.top_k(RetrievalEngine(), parse(FORMULA_TEXT), 8)
        assert healthy == expected
        assert not healthy.partial

    def test_every_shard_dead_yields_empty_partial(self, corpus):
        sharded = ShardedCorpus.from_database(corpus, 3)
        spec = FaultSpec(site=resilience.SITE_SHARD_LOAD)
        with inject(spec):
            result = sharded.top_k(
                RetrievalEngine(),
                parse(FORMULA_TEXT),
                8,
                lenient=True,
            )
        assert list(result) == []
        assert result.partial
        assert sorted(
            o.video for o in result.outcomes
        ) == sorted(corpus.names())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_replays_and_never_a_wrong_ranking(self, corpus, seed):
        """Shards load in one fixed order, so one seed run twice kills the
        same shards and gives the same ranking, ledger and site visits.
        The faults are armed to outlast a shard's three load tries, so
        a shard can die."""
        full = top_k_across_videos(
            RetrievalEngine(), parse(FORMULA_TEXT), corpus, 8, prune=False
        )
        spec = FaultSpec(
            site=resilience.SITE_SHARD_LOAD,
            rate=0.7,
            max_faults=2 * _LOAD_ATTEMPTS,
        )
        runs = []
        for __ in range(2):
            sharded = ShardedCorpus.from_database(corpus, 4)
            with inject(spec, seed=seed) as chaos:
                result = sharded.top_k(
                    RetrievalEngine(),
                    parse(FORMULA_TEXT),
                    8,
                    lenient=True,
                )
            runs.append(
                (result.to_payload(), dict(chaos.visits), chaos.injected)
            )
        assert runs[0] == runs[1]
        dead = {
            o.video for o in result.outcomes if o.status == OUTCOME_FAILED
        }
        if not dead:
            assert result == full
        else:
            assert result.partial
            assert chaos.faults_at(resilience.SITE_SHARD_LOAD) >= 1
            # Whatever survived ranks exactly as the survivors alone.
            assert list(result) == list(survivors_only(corpus, dead))


class TestOnDiskCorruption:
    def test_destroyed_shard_store_degrades_lenient(self, tmp_path):
        corpus = graded_corpus(n_videos=6)
        layout = save_sharded(corpus, tmp_path, 3)
        victim = layout.shards[1]
        shutil.rmtree(layout.store_path(victim))

        sharded = ShardedCorpus.from_directory(tmp_path)
        result = sharded.top_k(
            RetrievalEngine(), parse(FORMULA_TEXT), 8, lenient=True
        )
        assert result.partial
        failed = [
            o.video for o in result.outcomes if o.status == OUTCOME_FAILED
        ]
        assert sorted(failed) == sorted(victim.videos)
        assert list(result) == list(
            survivors_only(corpus, set(victim.videos))
        )

    def test_destroyed_shard_store_raises_strict(self, tmp_path):
        corpus = graded_corpus(n_videos=6)
        layout = save_sharded(corpus, tmp_path, 3)
        shutil.rmtree(layout.store_path(layout.shards[1]))

        sharded = ShardedCorpus.from_directory(tmp_path)
        with pytest.raises(ShardError) as caught:
            sharded.top_k(RetrievalEngine(), parse(FORMULA_TEXT), 8)
        assert caught.value.shard == "shard-001"

    def test_corrupt_snapshots_fall_through_store_recovery(self, tmp_path):
        """Damage that the shard's own store can absorb stays invisible."""
        corpus = graded_corpus(n_videos=6)
        expected = top_k_across_videos(
            RetrievalEngine(), parse(FORMULA_TEXT), corpus, 8, prune=False
        )
        layout = save_sharded(corpus, tmp_path, 2)
        # Two snapshots per shard; damage the newest of shard 0 so the
        # store falls back to the older intact one.
        save_sharded(corpus, tmp_path, 2)
        snapshots_dir = tmp_path / layout.shards[0].path / "snapshots"
        newest = sorted(p.name for p in snapshots_dir.iterdir())[-1]
        for artifact in (snapshots_dir / newest).iterdir():
            artifact.write_bytes(b"garbage")

        sharded = ShardedCorpus.from_directory(tmp_path)
        result = sharded.top_k(RetrievalEngine(), parse(FORMULA_TEXT), 8)
        assert result == expected
        assert not result.partial
