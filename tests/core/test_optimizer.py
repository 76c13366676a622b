"""Tests for the formula optimizer: golden rewrites + semantic preservation."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.optimizer import optimize
from repro.core.planner import structural_cost
from repro.htl import ast, parse, pretty

from tests.integration.strategies import (
    conjunctive_formulas,
    flat_videos,
    type1_formulas,
    type2_formulas,
)


class TestGoldenRewrites:
    def test_eventually_idempotent(self):
        formula = parse("eventually eventually atomic('P')")
        assert optimize(formula) == parse("eventually atomic('P')")

    def test_always_idempotent(self):
        formula = parse("always always atomic('P')")
        assert optimize(formula) == parse("always atomic('P')")

    def test_eventually_next_commutes(self):
        formula = parse("eventually next atomic('P')")
        assert optimize(formula) == parse("next eventually atomic('P')")

    def test_next_distributes_over_and(self):
        formula = parse("next atomic('P') and next atomic('Q')")
        assert optimize(formula) == parse("next (atomic('P') and atomic('Q'))")

    def test_exists_prefixes_merge(self):
        formula = parse("exists x . exists y . eventually near(x, y)")
        optimized = optimize(formula)
        assert isinstance(optimized, ast.Exists)
        assert optimized.vars == ("x", "y")
        assert not isinstance(optimized.sub, ast.Exists)

    def test_colliding_exists_not_merged(self):
        formula = ast.Exists(
            ("x",),
            ast.Exists(("x",), ast.Eventually(ast.Present(ast.ObjectVar("x")))),
        )
        optimized = optimize(formula)
        assert isinstance(optimized.sub, ast.Exists)

    def test_true_conjunct_not_eliminated(self):
        """∧ true changes the similarity value; boolean simplification is
        unsound under graded semantics."""
        formula = parse("true and atomic('P')")
        assert optimize(formula) == formula

    def test_rules_compose_to_fixed_point(self):
        formula = parse(
            "eventually eventually next (eventually eventually atomic('P'))"
        )
        optimized = optimize(formula)
        assert optimized == parse("next eventually atomic('P')")

    def test_conjunction_reordered_cheapest_first(self):
        formula = parse(
            "(exists x, y . eventually near(x, y)) "
            "and kind() = 'a' and (exists z . present(z))"
        )
        optimized = optimize(formula)
        rendered = pretty(optimized)
        # The variable-free atom leads, the two-variable temporal conjunct
        # trails.
        assert rendered.index("kind()") < rendered.index("present(z)")
        assert rendered.index("present(z)") < rendered.index("near(x, y)")

    def test_atoms_stay_intact(self):
        formula = parse(
            "eventually (present(x) and present(y) and near(x, y))"
        )
        closed = ast.Exists(("x", "y"), formula)
        optimized = optimize(closed)
        # The inner non-temporal conjunction is one atom; nothing to split.
        assert optimized == closed


class TestCostHeuristic:
    def test_orders_by_variables_then_size(self):
        cheap = parse("kind() = 'a'")
        medium = parse("exists x . present(x)")  # closed: 0 free vars
        pricey = parse("eventually near(x, y)")  # 2 free vars
        assert structural_cost(cheap) < structural_cost(pricey)
        assert structural_cost(medium) < structural_cost(pricey)


class TestSemanticPreservation:
    @given(type1_formulas(), flat_videos())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_type1_results_unchanged(self, formula, video):
        engine = RetrievalEngine()
        assert engine.evaluate_video(
            optimize(formula), video
        ) == engine.evaluate_video(formula, video)

    @given(type2_formulas(), flat_videos())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_type2_results_unchanged_both_modes(self, formula, video):
        for mode in ("inner", "outer"):
            engine = RetrievalEngine(EngineConfig(join_mode=mode))
            assert engine.evaluate_video(
                optimize(formula), video
            ) == engine.evaluate_video(formula, video)

    @given(conjunctive_formulas(), flat_videos())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_conjunctive_results_unchanged(self, formula, video):
        engine = RetrievalEngine(EngineConfig(join_mode="outer"))
        assert engine.evaluate_video(
            optimize(formula), video
        ) == engine.evaluate_video(formula, video)
