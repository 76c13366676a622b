"""Sharded top-k: identity, the shared budget, tracing, one heap.

Ranking identity over 1, 2 and 4 shards is one row set of the
differential matrix (``tests/test_differential.py``); the cases here are
the corners it does not draw.
"""

import pytest

from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine
from repro.core.topk import (
    OUTCOME_OK,
    OUTCOME_PRUNED,
    OUTCOME_TIMED_OUT,
    TopKResult,
    top_k_across_videos,
)
from repro.errors import BudgetExceededError
from repro.htl import parse
from repro.shard import ShardedCorpus
from repro.store import save_sharded, split_database

from tests.core.test_topk_paths import skewed_corpus
from tests.shard.conftest import graded_corpus

FORMULAS = ["$P1 and $P2", "$P1 until $P2", "$P1 and eventually $P2"]


def unsharded(corpus, text, k):
    return top_k_across_videos(
        RetrievalEngine(), parse(text), corpus, k, prune=False
    )


def naive_scatter_gather(engine, formula, corpus, n_shards, k):
    """Every shard pruning only against its own heap: the baseline the
    shared heap is measured against."""
    return TopKResult.merge(
        *(
            top_k_across_videos(engine, formula, part, k)
            for part in split_database(corpus, n_shards)
        ),
        k=k,
    )


class TestRankingIdentity:
    @pytest.mark.parametrize("text", FORMULAS)
    @pytest.mark.parametrize("n_shards", [9])
    def test_identical_to_serial_unsharded(self, corpus, text, n_shards):
        expected = unsharded(corpus, text, 10)
        sharded = ShardedCorpus.from_database(corpus, n_shards)
        got = sharded.top_k(RetrievalEngine(), parse(text), 10)
        assert got == expected

    def test_more_shards_than_videos(self):
        corpus = graded_corpus(n_videos=3)
        expected = unsharded(corpus, "$P1", 5)
        sharded = ShardedCorpus.from_database(corpus, 8)
        assert sharded.top_k(RetrievalEngine(), parse("$P1"), 5) == expected

    def test_k_zero(self, corpus):
        sharded = ShardedCorpus.from_database(corpus, 3)
        result = sharded.top_k(RetrievalEngine(), parse("$P1"), 0)
        assert result == []
        assert not result.outcomes


class TestSharedHeapPruning:
    def test_shared_heap_prunes_more_than_local_heaps(self, corpus):
        engine = RetrievalEngine()
        formula = parse("$P1 and $P2")
        naive = naive_scatter_gather(engine, formula, corpus, 4, 3)
        sharded = ShardedCorpus.from_database(corpus, 4)
        exchanged = sharded.top_k(engine, formula, 3)
        assert naive == exchanged

        def evaluated(result):
            return sum(
                1 for o in result.outcomes if o.status == OUTCOME_OK
            )

        assert evaluated(exchanged) < evaluated(naive)
        # Pruning is never a degradation.
        assert not exchanged.partial
        assert all(
            o.status in (OUTCOME_OK, OUTCOME_PRUNED)
            for o in exchanged.outcomes
        )

    def test_prune_false_disables_pruning(self, corpus):
        sharded = ShardedCorpus.from_database(corpus, 3)
        result = sharded.top_k(
            RetrievalEngine(), parse("$P1 and $P2"), 5, prune=False
        )
        assert all(o.status == OUTCOME_OK for o in result.outcomes)


class FakeClock:
    """A monotone clock that advances one second per read."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def charge_log(monkeypatch):
    """Every step charged to any budget, in order."""
    charges = []
    charge = resilience.QueryBudget.charge

    def logged(budget, n=1, site=""):
        charges.append(n)
        return charge(budget, n, site)

    monkeypatch.setattr(resilience.QueryBudget, "charge", logged)
    return charges


class TestSharedBudget:
    @pytest.mark.parametrize(
        "lenient", [False, True], ids=["strict", "lenient"]
    )
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_expired_budget_answers_alike_on_every_shard_count(
        self, corpus, n_shards, lenient
    ):
        """Regression: a spent budget raised out of a lenient query over
        two or more shards, where one shard gave a partial answer."""
        clock = FakeClock()
        budget = resilience.QueryBudget(deadline_ms=0.5, clock=clock)
        sharded = ShardedCorpus.from_database(corpus, n_shards)

        def run():
            return sharded.top_k(
                RetrievalEngine(),
                parse("$P1 and $P2"),
                5,
                budget=budget,
                lenient=lenient,
            )

        if not lenient:
            with pytest.raises(BudgetExceededError):
                run()
            return
        result = run()
        assert result.partial
        assert result == []
        assert [o.status for o in result.outcomes] == [
            OUTCOME_TIMED_OUT
        ] * len(corpus.names())

    def test_step_ceiling_below_the_shard_count_holds(
        self, corpus, monkeypatch
    ):
        """Regression: per-shard slices took at least one step each, so a
        2-step ceiling over 4 shards allowed 4 steps."""
        charges = charge_log(monkeypatch)
        result = ShardedCorpus.from_database(corpus, 4).top_k(
            RetrievalEngine(),
            parse("$P1 and $P2"),
            5,
            budget=resilience.QueryBudget(max_steps=2),
            lenient=True,
        )
        assert result.partial
        assert sum(charges) <= 2 + charges[-1]

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_callers_budget_counts_every_shards_steps(
        self, corpus, n_shards
    ):
        """Regression: slices were charged instead of the caller's
        budget, whose ``steps`` read 0 after a sharded query."""

        def steps(n):
            budget = resilience.QueryBudget(max_steps=10**9)
            ShardedCorpus.from_database(corpus, n).top_k(
                RetrievalEngine(),
                parse("$P1 and $P2"),
                5,
                prune=False,
                budget=budget,
            )
            return budget.steps

        assert steps(n_shards) == steps(1) > 0

    def test_injected_clock_expires_a_sharded_query(self, corpus):
        """Regression: slices were built on ``time.monotonic`` and dropped
        the caller's clock and ``check_interval``."""
        sharded = ShardedCorpus.from_database(corpus, 4)
        formula = parse("$P1 and $P2")

        def budget():
            return resilience.QueryBudget(
                deadline_ms=20_000, clock=FakeClock(), check_interval=1
            )

        with pytest.raises(BudgetExceededError):
            sharded.top_k(RetrievalEngine(), formula, 5, budget=budget())
        ledgers = [
            sharded.top_k(
                RetrievalEngine(), formula, 5, budget=budget(), lenient=True
            ).to_payload()
            for __ in range(2)
        ]
        assert ledgers[0] == ledgers[1]
        statuses = list(ledgers[0]["outcomes"].values())
        assert OUTCOME_OK in statuses
        assert OUTCOME_TIMED_OUT in statuses

    def test_strict_budget_overrun_propagates(self, corpus):
        sharded = ShardedCorpus.from_database(corpus, 3)
        with pytest.raises(BudgetExceededError):
            sharded.top_k(
                RetrievalEngine(),
                parse("$P1 and $P2"),
                5,
                budget=resilience.QueryBudget(max_steps=3),
            )

    def test_lenient_budget_overrun_degrades(self, corpus):
        sharded = ShardedCorpus.from_database(corpus, 3)
        result = sharded.top_k(
            RetrievalEngine(),
            parse("$P1 and $P2"),
            5,
            budget=resilience.QueryBudget(max_steps=3),
            lenient=True,
        )
        assert result.partial
        assert any(
            o.status == OUTCOME_TIMED_OUT for o in result.outcomes
        )

    def test_one_shard_runs_under_the_callers_budget(self, corpus):
        """One shard is ``top_k_across_videos`` over its database: the
        caller's budget object is charged, not a slice of it."""
        formula = parse("$P1 and $P2")
        direct = resilience.QueryBudget(max_steps=10**9)
        top_k_across_videos(
            RetrievalEngine(), formula, corpus, 5, budget=direct
        )
        whole = resilience.QueryBudget(max_steps=10**9)
        ShardedCorpus.from_database(corpus).top_k(
            RetrievalEngine(), formula, 5, budget=whole
        )
        assert whole.steps == direct.steps > 0

    def test_generous_budget_changes_nothing(self, corpus):
        expected = unsharded(corpus, "$P1 and $P2", 6)
        sharded = ShardedCorpus.from_database(corpus, 3)
        got = sharded.top_k(
            RetrievalEngine(),
            parse("$P1 and $P2"),
            6,
            budget=resilience.QueryBudget(
                deadline_ms=120_000, max_steps=1_000_000
            ),
        )
        assert got == expected


class TestObservability:
    def test_profile_has_query_shard_video_spans(self, corpus):
        sharded = ShardedCorpus.from_database(corpus, 3)
        result = sharded.top_k(
            RetrievalEngine(), parse("$P1"), 4, profile=True
        )
        root = result.profile
        assert root is not None
        assert root.kind == trace.KIND_QUERY
        shard_spans = [
            node for node in root.children
            if node.kind == trace.KIND_SHARD
        ]
        assert [node.name for node in shard_spans] == [
            shard.shard_id for shard in sharded.shards
        ]
        assert any(
            child.kind == trace.KIND_VIDEO
            for node in shard_spans
            for child in node.children
        )
        # No nested per-shard query spans — the query span is the root.
        assert not any(
            node.kind == trace.KIND_QUERY for node in list(root.walk())[1:]
        )

    def test_query_span_carries_the_plan_deltas(self):
        """Regression: the scatter handed the query wrapper no planner,
        so a sharded query span had no plan counters.  Fresh engines on
        the same corpus plan the same shapes either way."""
        database = skewed_corpus()
        # Only a join with an operand that may have no rows is planned.
        formula = parse(
            "exists x . (present(x) and (eventually type(x) = 'person'))"
        )
        direct = top_k_across_videos(
            RetrievalEngine(), formula, database, 5, prune=False, profile=True
        )
        sharded = ShardedCorpus.from_database(database, 2).top_k(
            RetrievalEngine(), formula, 5, prune=False, profile=True
        )
        keys = ("plans-built", "plan-reuses", "plan-skips")
        expected = {key: direct.profile.attrs[key] for key in keys}
        assert expected["plans-built"] >= 1
        got = {key: sharded.profile.attrs.get(key) for key in keys}
        assert got == expected

    def test_shard_spans_keep_parentage(self, corpus):
        sharded = ShardedCorpus.from_database(corpus, 4)
        result = sharded.top_k(
            RetrievalEngine(), parse("$P1"), 4, profile=True
        )
        shard_spans = [
            node for node in result.profile.children
            if node.kind == trace.KIND_SHARD
        ]
        assert len(shard_spans) == 4

    def test_shard_loaded_counter(self, corpus, tmp_path):
        """``shard-loaded`` counts store loads: once per store shard, and
        never for an in-memory shard, which holds its database."""
        save_sharded(corpus, tmp_path, 3)
        counts = []
        for sharded in (
            ShardedCorpus.from_database(corpus, 3),
            ShardedCorpus.from_directory(tmp_path),
        ):
            before = trace.METRICS.counters().get(trace.SHARD_LOADED, 0)
            sharded.top_k(RetrievalEngine(), parse("$P1"), 2)
            sharded.top_k(RetrievalEngine(), parse("$P1"), 2)
            after = trace.METRICS.counters().get(trace.SHARD_LOADED, 0)
            counts.append(after - before)
        assert counts == [0, 3]

    def test_database_load_is_memoized(self, corpus):
        sharded = ShardedCorpus.from_database(corpus, 2)
        shard = sharded.shards[0]
        assert shard.database() is shard.database()
