"""Human-readable evaluation plans for HTL queries.

:func:`explain` renders the tree of operations the retrieval engine will
perform for a formula — which subformulas become picture-system atoms,
which list algorithm combines each temporal operator, where tables join
and on which variables, and where the hierarchy recursion descends.  The
same structure the paper's Figure 1 describes, but per query.

:func:`describe_node` is the per-node half of that rendering; the tracing
layer (DESIGN.md §10) uses it to name each subformula span, so the CLI
``trace`` output is the profiled twin of ``explain``.
"""

from __future__ import annotations

from typing import List

from repro.htl import ast
from repro.htl.classify import (
    FormulaClass,
    is_non_temporal,
    skeleton_class,
)
from repro.htl.pretty import clip, pretty, pretty_term
from repro.htl.variables import free_attr_vars, free_object_vars


def explain(formula: ast.Formula) -> str:
    """The evaluation plan of a formula, as an indented tree."""
    lines: List[str] = [
        f"plan for: {clip(pretty(formula), 72)}",
        f"class: {skeleton_class(formula).name}",
    ]
    _describe(formula, lines, depth=0)
    return "\n".join(lines)


def _vars_note(formula: ast.Formula) -> str:
    object_vars = sorted(free_object_vars(formula))
    attr_vars = sorted(free_attr_vars(formula))
    notes = []
    if object_vars:
        notes.append(f"object vars {', '.join(object_vars)}")
    if attr_vars:
        notes.append(f"attr ranges {', '.join(attr_vars)}")
    if not notes:
        return "closed"
    return "; ".join(notes)


def _splits_mixed_conjunction(formula: ast.Formula) -> bool:
    """True for the non-temporal conjunctions the engine splits anyway
    because they mix registered atomics with metadata conditions."""
    return isinstance(formula, ast.And) and any(
        isinstance(node, ast.AtomicRef) for node in formula.walk()
    )


def describe_node(formula: ast.Formula) -> str:
    """One-line plan description of a single formula node."""
    if isinstance(formula, ast.AtomicRef):
        return f"atomic {formula.name!r}: registered similarity list"
    if is_non_temporal(formula):
        if _splits_mixed_conjunction(formula):
            return "AND-merge (sum on overlap)"
        return (
            f"atom → picture system [{_vars_note(formula)}]: "
            f"{clip(pretty(formula), 48)}"
        )
    if isinstance(formula, ast.And):
        shared = sorted(
            free_object_vars(formula.left) & free_object_vars(formula.right)
        )
        join = f"join on {', '.join(shared)}" if shared else "cross join"
        return f"AND-merge (sum on overlap; {join})"
    if isinstance(formula, ast.Or):
        return "OR-merge (pointwise max; extension)"
    if isinstance(formula, ast.Until):
        return (
            "UNTIL backward merge (threshold left list, coalesce runs, "
            "suffix-max witnesses)"
        )
    if isinstance(formula, ast.Next):
        return "NEXT shift (intervals left by one)"
    if isinstance(formula, ast.Eventually):
        return "EVENTUALLY suffix-max scan"
    if isinstance(formula, ast.Always):
        return "ALWAYS suffix-min scan (extension)"
    if isinstance(formula, ast.Exists):
        names = ", ".join(formula.vars)
        return f"∃-projection over {names} (m-way max merge of rows)"
    if isinstance(formula, ast.Freeze):
        return (
            f"FREEZE join [{formula.var} := {pretty_term(formula.func)[:32]}] "
            "(value table × range column)"
        )
    if isinstance(formula, ast.AtNextLevel):
        return "descend one level (value at first child)"
    if isinstance(formula, ast.AtLevel):
        return f"descend to level {formula.level} (value at first descendant)"
    if isinstance(formula, ast.AtNamedLevel):
        return (
            f"descend to {formula.level_name!r} level "
            "(value at first descendant)"
        )
    if isinstance(formula, ast.Not):
        return "NOT (unsupported over temporal subformulas)"
    return type(formula).__name__  # pragma: no cover


def _add(lines: List[str], depth: int, text: str) -> None:
    lines.append("  " * depth + "- " + text)


def _describe(formula: ast.Formula, lines: List[str], depth: int) -> None:
    _add(lines, depth, describe_node(formula))
    if isinstance(formula, ast.AtomicRef):
        return
    if is_non_temporal(formula):
        if _splits_mixed_conjunction(formula):
            _describe(formula.left, lines, depth + 1)
            _describe(formula.right, lines, depth + 1)
        return
    for child in formula.children():
        _describe(child, lines, depth + 1)
