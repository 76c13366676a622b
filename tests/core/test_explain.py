"""Tests for the evaluation-plan renderer."""

import pytest

from repro.core.explain import explain
from repro.htl import parse


class TestExplain:
    def test_query1_plan(self):
        plan = explain(
            parse("atomic('Man-Woman') and eventually atomic('Moving-Train')")
        )
        assert "class: TYPE1" in plan
        assert "AND-merge" in plan
        assert "EVENTUALLY suffix-max scan" in plan
        assert "atomic 'Man-Woman'" in plan
        assert "atomic 'Moving-Train'" in plan

    def test_until_plan(self):
        plan = explain(parse("$P1 until $P2"))
        assert "UNTIL backward merge" in plan
        assert "threshold" in plan

    def test_exists_and_join_vars(self):
        plan = explain(
            parse(
                "exists x . (present(x) and type(x) = 'train') "
                "and eventually present(x)"
            )
        )
        assert "∃-projection over x" in plan
        assert "join on x" in plan
        assert "object vars x" in plan

    def test_freeze_plan(self):
        plan = explain(
            parse("exists z . [h := height(z)] eventually height(z) > h")
        )
        assert "FREEZE join [h := height(z)]" in plan
        assert "attr ranges h" in plan

    def test_level_descent(self):
        plan = explain(parse("at_frame_level(next true)"))
        assert "descend to 'frame' level" in plan
        plan = explain(parse("at_level(3, next true)"))
        assert "descend to level 3" in plan
        plan = explain(parse("at_next_level(next true)"))
        assert "descend one level" in plan

    def test_extension_operators_marked(self):
        plan = explain(parse("(eventually $P1) or always $P2"))
        assert "ALWAYS suffix-min scan (extension)" in plan
        assert "OR-merge (pointwise max; extension)" in plan

    def test_or_inside_atom_stays_in_picture_system(self):
        plan = explain(parse("always (kind() = 'a' or kind() = 'b')"))
        assert "OR-merge" not in plan
        assert "picture system" in plan

    def test_mixed_atomic_conjunction_split(self):
        plan = explain(parse("next (atomic('P') and kind() = 'a')"))
        assert "atomic 'P'" in plan
        assert "picture system" in plan

    def test_cross_join_noted(self):
        plan = explain(
            parse(
                "(exists x . eventually present(x)) "
                "and (exists y . eventually present(y))"
            )
        )
        assert "cross join" in plan

    def test_plan_indentation_reflects_nesting(self):
        plan = explain(parse("eventually next $P1"))
        lines = plan.splitlines()
        eventually_line = next(l for l in lines if "EVENTUALLY" in l)
        next_line = next(l for l in lines if "NEXT" in l)
        atom_line = next(l for l in lines if "atomic 'P1'" in l)
        def indent(line):
            return len(line) - len(line.lstrip())
        assert indent(eventually_line) < indent(next_line) < indent(atom_line)


def _walk_plan_tree(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk_plan_tree(child)


class TestCLIExplain:
    def test_cli_explain(self, capsys):
        from repro.cli import main

        assert main(["explain", "eventually $P1"]) == 0
        out = capsys.readouterr().out
        assert "plan for:" in out

    def test_cli_explain_plan(self, capsys):
        from repro.cli import main

        assert main(
            [
                "explain",
                "--plan",
                "exists x . (present(x) and (eventually type(x) = 'person'))",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "plan for" in out
        assert "visits" in out and "strategy" not in out
        assert "planner:" in out

    def test_cli_explain_plan_json(self, capsys):
        import json

        from repro.cli import main

        assert main(
            [
                "explain",
                "--plan",
                "--json",
                "--dataset",
                "casablanca",
                "exists x . (present(x) and (eventually type(x) = 'person'))",
            ]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "tree" in doc
        assert doc["estimated_cost"] > 0
        atoms = [
            node for node in _walk_plan_tree(doc["tree"]) if "visits" in node
        ]
        assert atoms
        for node in _walk_plan_tree(doc["tree"]):
            assert "strategy" not in node
        for node in atoms:
            per_binding = node["candidates"]
            if per_binding is not None:
                assert node["visits"] == node["bindings"] * per_binding
