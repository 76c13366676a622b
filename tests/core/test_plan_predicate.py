"""Which formulas the engine plans, and the per-formula facts it keeps.

A plan saves work only where an inner join's operand may come back with
no rows (DESIGN.md §13); ``planner.can_short_circuit`` certifies the
rest, and the engine skips planning there.  Validation and the
non-temporal test are memoised on the formula's nodes, and an untraced
atom sweep renders no span name.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.e2e.streams import MIX_A_FIXED
from benchmarks.e2e.workloads import K, LEVEL, SMOKE, WORKLOADS, rows
from repro.core import planner as planning
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.planner import can_short_circuit
from repro.core.tables import INNER, OUTER
from repro.core.topk import OUTCOME_FAILED, top_k_across_videos
from repro.errors import UnsupportedFormulaError
from repro.htl import parse
from repro.htl.classify import is_non_temporal
from repro.pictures.signature import resolve_clips
from tests.integration.strategies import (
    conjunctive_formulas,
    deep_videos,
    extended_formulas,
    flat_videos,
    type1_formulas,
    type2_formulas,
)

#: The height template of the benchmark's fresh requests: a closed atom
#: ∧ ``next`` of a closed atom.
HEIGHT_QUERY = (
    "(exists x . present(x) and height(x) > 120) "
    "and next (exists y . type(y) = 'plane')"
)
#: Outside the extended conjunctive class only for its ∃ in temporal
#: scope off the prefix; only validation rejects it in a default engine.
FREE_POSITION_EXISTS = "eventually (exists x . eventually present(x))"
#: A join whose operands are open atoms: either may have no rows.
OPEN_JOIN_QUERY = "exists x . (present(x) and (eventually type(x) = 'person'))"


@pytest.fixture(scope="module")
def sparse(tmp_path_factory):
    """The end-to-end benchmark's ``sparse`` smoke inputs under seed 7."""
    workdir = str(tmp_path_factory.mktemp("sparse"))
    database, clips, __ = WORKLOADS["sparse"](7, SMOKE, workdir).inputs()
    return database, clips


def ranked(engine, formula, database):
    return rows(
        top_k_across_videos(
            engine, formula, database, K, level=LEVEL, prune=False
        )
    )


# ---------------------------------------------------------------------------
# the predicate
# ---------------------------------------------------------------------------
class TestCanShortCircuit:
    def test_mix_a_fixed_queries(self):
        """Of the fixed queries only the two with open-operand joins
        (2 and 3) can skip an operand."""
        assert [
            can_short_circuit(parse(text), INNER) for text in MIX_A_FIXED
        ] == [False, True, True, False, False, False, False, False]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("exists x . present(x)", False),
            ("$A and $B", False),
            ("$A until next $B", False),
            ("$A and eventually (exists x . present(x))", False),
            ("always $A and next next $B", False),
            (HEIGHT_QUERY, False),
            (OPEN_JOIN_QUERY, True),
            # A join of closed operands is not certified to keep a row.
            ("($A and $B) and $C", True),
            ("eventually ($A and ($B until $C))", True),
            # A level descent may come back with no rows.
            ("at_next_level($A) and $B", True),
            # The joins inside a level descent run under the same plan.
            (
                "at_next_level(exists x . present(x) and eventually present(x))",
                True,
            ),
        ],
    )
    def test_shapes(self, text, expected):
        assert can_short_circuit(parse(text), INNER) is expected

    def test_outer_join_never_short_circuits(self):
        assert not can_short_circuit(parse(OPEN_JOIN_QUERY), OUTER)


# ---------------------------------------------------------------------------
# planning follows the predicate
# ---------------------------------------------------------------------------
class TestPlannedOnlyWhereAJoinCanShortCircuit:
    @pytest.mark.parametrize(
        "text, config",
        [
            ("looks_like('probe', 0.9)", EngineConfig()),
            (HEIGHT_QUERY, EngineConfig()),
            (OPEN_JOIN_QUERY, EngineConfig(join_mode=OUTER)),
            (HEIGHT_QUERY, EngineConfig(join_mode=OUTER)),
        ],
    )
    def test_no_plan_no_probe_same_ranking(self, sparse, text, config):
        database, clips = sparse
        formula = resolve_clips(parse(text), clips)
        engine = RetrievalEngine(config)
        unplanned = RetrievalEngine(
            EngineConfig(join_mode=config.join_mode, plan=False)
        )
        assert ranked(engine, formula, database) == ranked(
            unplanned, formula, database
        )
        stats = engine.planner.stats
        assert (stats.plans_built, stats.support_probes) == (0, 0)
        assert stats.cache_hits + stats.cache_misses == 0

    def test_open_join_still_plans(self, sparse):
        database, __ = sparse
        formula = parse(OPEN_JOIN_QUERY)
        engine = RetrievalEngine()
        assert ranked(engine, formula, database) == ranked(
            RetrievalEngine(EngineConfig(plan=False)), formula, database
        )
        assert engine.planner.stats.plans_built > 0


# ---------------------------------------------------------------------------
# soundness: where the predicate is false, a forced plan skips nothing
# ---------------------------------------------------------------------------
PROPERTY = settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def check_forced_plan(formula, video, join_mode, level=2):
    """A plan forced onto the evaluation gives the unplanned list, and
    skips nothing wherever the predicate says no operand can be empty."""
    engine = RetrievalEngine(EngineConfig(join_mode=join_mode))
    with mock.patch.object(
        planning, "can_short_circuit", lambda formula, mode: True
    ):
        forced = engine.evaluate_video(formula, video, level=level)
    unplanned = RetrievalEngine(
        EngineConfig(join_mode=join_mode, plan=False)
    ).evaluate_video(formula, video, level=level)
    stats = engine.planner.stats
    assert stats.plans_built == 1
    assert forced == unplanned
    if not can_short_circuit(formula, join_mode):
        assert stats.skipped_subformulas == 0


JOIN_MODES = st.sampled_from([INNER, OUTER])


@given(type1_formulas(), flat_videos(), JOIN_MODES)
@PROPERTY
def test_forced_plan_type1(formula, video, join_mode):
    check_forced_plan(formula, video, join_mode)


@given(type2_formulas(), flat_videos(), JOIN_MODES)
@PROPERTY
def test_forced_plan_type2(formula, video, join_mode):
    check_forced_plan(formula, video, join_mode)


@given(conjunctive_formulas(), flat_videos(), JOIN_MODES)
@PROPERTY
def test_forced_plan_conjunctive(formula, video, join_mode):
    check_forced_plan(formula, video, join_mode)


@given(extended_formulas(), deep_videos(), JOIN_MODES)
@PROPERTY
def test_forced_plan_extended(formula, video, join_mode):
    check_forced_plan(formula, video, join_mode)


# ---------------------------------------------------------------------------
# per-node facts
# ---------------------------------------------------------------------------
class TestNodeFacts:
    def test_non_temporal_is_memoised_on_the_node(self):
        formula = parse(OPEN_JOIN_QUERY)
        assert not is_non_temporal(formula)
        assert vars(formula)["_non_temporal"] is False
        assert is_non_temporal(formula.sub.left)

    def test_validation_memo_is_keyed_by_config(self, sparse):
        """A formula an extended-language engine accepted is still
        rejected by a default engine."""
        database, __ = sparse
        video = next(iter(database.videos()))
        formula = parse(FREE_POSITION_EXISTS)
        extended = RetrievalEngine(EngineConfig(allow_extensions=True))
        extended.evaluate_video(formula, video, LEVEL, database)
        with pytest.raises(UnsupportedFormulaError):
            RetrievalEngine().evaluate_video(formula, video, LEVEL, database)

    def test_a_rejection_is_never_memoised(self, sparse):
        """A rejected formula fails on every video of a lenient query,
        then an engine that admits it evaluates it."""
        database, __ = sparse
        formula = parse(FREE_POSITION_EXISTS)
        result = top_k_across_videos(
            RetrievalEngine(), formula, database, K, LEVEL,
            prune=False, lenient=True,
        )
        assert result.partial and not len(result)
        assert [outcome.status for outcome in result.outcomes] == [
            OUTCOME_FAILED
        ] * len(list(database.videos()))
        assert all(
            isinstance(outcome.error, UnsupportedFormulaError)
            for outcome in result.outcomes
        )
        extended = RetrievalEngine(EngineConfig(allow_extensions=True))
        assert len(
            top_k_across_videos(extended, formula, database, K, LEVEL)
        )


# ---------------------------------------------------------------------------
# span names
# ---------------------------------------------------------------------------
class TestSpanNames:
    def test_untraced_query_renders_no_span_name(self, sparse, monkeypatch):
        database, clips = sparse
        formula = resolve_clips(parse(MIX_A_FIXED[-1]), clips)

        def refuse(formula):
            raise AssertionError("pretty() called on an untraced query")

        monkeypatch.setattr("repro.pictures.retrieval.pretty", refuse)
        assert ranked(RetrievalEngine(), formula, database)
        with pytest.raises(AssertionError, match="untraced"):
            top_k_across_videos(
                RetrievalEngine(), formula, database, K, LEVEL, profile=True
            )
