"""Pretty-printer (unparser) for HTL formulas.

:func:`pretty` emits concrete syntax that :func:`repro.htl.parser.parse`
maps back to the *same* AST (the round-trip property is tested with
hypothesis).  Parenthesisation is conservative: binder forms (``exists``,
freeze) whose scope extends maximally to the right are always wrapped when
they appear below the root of a larger formula.

Limitations (documented, asserted where cheap): identifiers that collide
with HTL keywords, attribute functions named like keywords, and an object
variable shadowed by an in-scope freeze-bound attribute variable of the
same name cannot be round-tripped.
"""

from __future__ import annotations

from typing import Set, Union

from repro.errors import HTLTypeError
from repro.htl import ast
from repro.htl.lexer import KEYWORDS

_PREC_BINDER = 0
_PREC_OR = 1
_PREC_AND = 2
_PREC_UNTIL = 3
_PREC_UNARY = 4
_PREC_ATOM = 5


def pretty(formula: ast.Formula) -> str:
    """Render a formula to parseable concrete syntax."""
    return _Printer().formula(formula, _PREC_BINDER)


def pretty_term(term: ast.Term) -> str:
    """Render a term to parseable concrete syntax."""
    return _Printer().term(term)


def clip(text: str, limit: int) -> str:
    """``text`` cut to at most ``limit`` characters, ending in ``...`` when
    cut — for span names and one-line plan descriptions."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _format_number(value: Union[int, float]) -> str:
    text = repr(value)
    if "e" in text or "E" in text or "inf" in text or "nan" in text:
        raise HTLTypeError(
            f"number {value!r} has no HTL literal form (no exponents/specials)"
        )
    return text


def _format_string(value: str) -> str:
    return "'" + value.replace("'", "''") + "'"


def _check_ident(name: str) -> str:
    if not name or name in KEYWORDS or not name.replace("_", "a").isalnum():
        raise HTLTypeError(f"{name!r} is not a printable HTL identifier")
    if name[0].isdigit():
        raise HTLTypeError(f"identifier {name!r} may not start with a digit")
    return name


class _Printer:
    def __init__(self) -> None:
        self._bound_attr_vars: Set[str] = set()

    # -- terms ----------------------------------------------------------
    def term(self, term: ast.Term) -> str:
        if isinstance(term, ast.Const):
            if isinstance(term.value, str):
                return _format_string(term.value)
            return _format_number(term.value)
        if isinstance(term, ast.ObjectVar):
            if term.name in self._bound_attr_vars:
                raise HTLTypeError(
                    f"object variable {term.name!r} shadowed by an attribute "
                    "variable in scope; rename to print"
                )
            return _check_ident(term.name)
        if isinstance(term, ast.AttrVar):
            if term.name in self._bound_attr_vars:
                return _check_ident(term.name)
            return "@" + _check_ident(term.name)
        if isinstance(term, ast.AttrFunc):
            args = ", ".join(self.term(arg) for arg in term.args)
            return f"{_check_ident(term.name)}({args})"
        raise HTLTypeError(f"unknown term {term!r}")

    # -- formulas -------------------------------------------------------
    def formula(self, node: ast.Formula, min_prec: int) -> str:
        text, prec = self._render(node)
        if prec < min_prec:
            return f"({text})"
        return text

    def _render(self, node: ast.Formula) -> "tuple[str, int]":
        if isinstance(node, ast.Truth):
            return "true", _PREC_ATOM
        if isinstance(node, ast.Present):
            return f"present({_check_ident(node.var.name)})", _PREC_ATOM
        if isinstance(node, ast.Compare):
            left = self.term(node.left)
            right = self.term(node.right)
            return f"{left} {node.op} {right}", _PREC_ATOM
        if isinstance(node, ast.Rel):
            args = ", ".join(self.term(arg) for arg in node.args)
            return f"{_check_ident(node.name)}({args})", _PREC_ATOM
        if isinstance(node, ast.AtomicRef):
            return f"atomic({_format_string(node.name)})", _PREC_ATOM
        if isinstance(node, ast.LooksLike):
            # Anonymous resolved clips print under a shape-derived
            # placeholder name: the text is parseable (documented
            # limitation: it reparses to an *unresolved* atom), which is
            # what span naming and plan rendering need.
            name = node.name or f"clip_{len(node.clip)}x{len(node.clip[0])}"
            theta_text = repr(node.theta)
            if "e" in theta_text or "E" in theta_text:
                # Tiny thresholds repr with exponents; θ ∈ [0, 1] always
                # has a positional decimal form.
                theta_text = f"{node.theta:.17f}".rstrip("0") or "0"
                if theta_text.endswith("."):
                    theta_text += "0"
            theta = theta_text
            return (
                f"looks_like({_format_string(name)}, {theta})",
                _PREC_ATOM,
            )
        if isinstance(node, ast.Weighted):
            body = self.formula(node.sub, _PREC_BINDER)
            return (
                f"weight({_format_number(node.weight)}, {body})",
                _PREC_ATOM,
            )
        if isinstance(node, ast.And):
            left = self.formula(node.left, _PREC_AND)
            right = self.formula(node.right, _PREC_AND + 1)
            return f"{left} and {right}", _PREC_AND
        if isinstance(node, ast.Or):
            left = self.formula(node.left, _PREC_OR)
            right = self.formula(node.right, _PREC_OR + 1)
            return f"{left} or {right}", _PREC_OR
        if isinstance(node, ast.Until):
            left = self.formula(node.left, _PREC_UNARY)
            right = self.formula(node.right, _PREC_UNTIL)
            return f"{left} until {right}", _PREC_UNTIL
        if isinstance(node, ast.Not):
            return f"not {self.formula(node.sub, _PREC_UNARY)}", _PREC_UNARY
        if isinstance(node, ast.Next):
            return f"next {self.formula(node.sub, _PREC_UNARY)}", _PREC_UNARY
        if isinstance(node, ast.Eventually):
            return (
                f"eventually {self.formula(node.sub, _PREC_UNARY)}",
                _PREC_UNARY,
            )
        if isinstance(node, ast.Always):
            return f"always {self.formula(node.sub, _PREC_UNARY)}", _PREC_UNARY
        if isinstance(node, ast.Exists):
            names = ", ".join(_check_ident(name) for name in node.vars)
            body = self.formula(node.sub, _PREC_BINDER)
            return f"exists {names} . {body}", _PREC_BINDER
        if isinstance(node, ast.Freeze):
            func = self.term(node.func)
            name = _check_ident(node.var)
            newly_bound = node.var not in self._bound_attr_vars
            if newly_bound:
                self._bound_attr_vars.add(node.var)
            try:
                body = self.formula(node.sub, _PREC_BINDER)
            finally:
                if newly_bound:
                    self._bound_attr_vars.discard(node.var)
            return f"[{name} := {func}] {body}", _PREC_BINDER
        if isinstance(node, ast.AtNextLevel):
            body = self.formula(node.sub, _PREC_BINDER)
            return f"at_next_level({body})", _PREC_ATOM
        if isinstance(node, ast.AtLevel):
            body = self.formula(node.sub, _PREC_BINDER)
            return f"at_level({node.level}, {body})", _PREC_ATOM
        if isinstance(node, ast.AtNamedLevel):
            name = _check_ident(node.level_name)
            if name == "next":
                raise HTLTypeError(
                    "named level 'next' collides with at_next_level"
                )
            body = self.formula(node.sub, _PREC_BINDER)
            return f"at_{name}_level({body})", _PREC_ATOM
        raise HTLTypeError(f"unknown formula node {node!r}")
