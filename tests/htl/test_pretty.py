"""Pretty-printer tests: golden strings and the parse∘pretty round trip."""

import pytest
from hypothesis import given, settings

from repro.errors import HTLTypeError
from repro.htl import ast, parse, pretty, pretty_term
from repro.htl.pretty import clip

from tests.htl.strategies import formulas


class TestGolden:
    def test_atom(self):
        assert pretty(parse("present(x)")) == "present(x)"

    def test_comparison(self):
        assert pretty(parse("height(x) > 300")) == "height(x) > 300"

    def test_segment_attribute_keeps_parens(self):
        assert pretty(parse("type() = 'western'")) == "type() = 'western'"

    def test_string_escaping(self):
        formula = ast.Compare(
            "=", ast.AttrFunc("name", ()), ast.Const("it's")
        )
        assert pretty(formula) == "name() = 'it''s'"

    def test_and_or_precedence(self):
        assert (
            pretty(parse("$a and ($b or $c)"))
            == "atomic('a') and (atomic('b') or atomic('c'))"
        )

    def test_until_needs_parens_on_left_nesting(self):
        formula = ast.Until(
            ast.Until(ast.AtomicRef("a"), ast.AtomicRef("b")),
            ast.AtomicRef("c"),
        )
        text = pretty(formula)
        assert text.startswith("(")
        assert parse(text) == formula

    def test_exists_in_binary_context_parenthesised(self):
        formula = ast.And(
            ast.Exists(("x",), ast.Present(ast.ObjectVar("x"))),
            ast.Truth(),
        )
        text = pretty(formula)
        assert parse(text) == formula

    def test_freeze(self):
        formula = parse("[h := height(x)] eventually height(x) > h")
        assert parse(pretty(formula)) == formula

    def test_named_level(self):
        assert pretty(parse("at_frame_level(true)")) == "at_frame_level(true)"

    def test_keyword_identifier_rejected(self):
        formula = ast.Present(ast.ObjectVar("until"))
        with pytest.raises(HTLTypeError):
            pretty(formula)

    def test_named_level_next_rejected(self):
        with pytest.raises(HTLTypeError):
            pretty(ast.AtNamedLevel("next", ast.Truth()))

    def test_exponent_float_rejected(self):
        with pytest.raises(HTLTypeError):
            pretty(ast.Compare("=", ast.Const(1e-30), ast.Const(1)))

    def test_free_attr_var_uses_sigil(self):
        formula = ast.Compare(
            ">", ast.AttrFunc("height", ()), ast.AttrVar("h")
        )
        assert pretty(formula) == "height() > @h"

    def test_term_rendering(self):
        assert pretty_term(ast.AttrFunc("f", (ast.ObjectVar("x"),))) == "f(x)"


class TestClip:
    @pytest.mark.parametrize("limit", [48, 60, 72])
    def test_cuts_only_past_the_limit(self, limit):
        for length in (limit - 1, limit):
            text = "x" * length
            assert clip(text, limit) == text
        cut = clip("x" * (limit + 1), limit)
        assert cut == "x" * (limit - 3) + "..."
        assert len(cut) == limit


class TestRoundTrip:
    @given(formulas())
    @settings(max_examples=300, deadline=None)
    def test_parse_pretty_round_trip(self, formula):
        assert parse(pretty(formula)) == formula

    @given(formulas())
    @settings(max_examples=100, deadline=None)
    def test_pretty_is_stable(self, formula):
        once = pretty(formula)
        assert pretty(parse(once)) == once
