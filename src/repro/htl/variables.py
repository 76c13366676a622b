"""Free/bound variable analysis for HTL formulas (paper §2.2).

A variable is *bound* when every occurrence lies in the scope of an
existential quantifier (object variables) or freeze quantifier (attribute
variables) over it; it is *free* otherwise.  An *evaluation* assigns values
to the free variables.
"""

from __future__ import annotations

from typing import FrozenSet, Set

from repro.htl.ast import (
    AttrFunc,
    AttrVar,
    Compare,
    Exists,
    Formula,
    Freeze,
    ObjectVar,
    Present,
    Rel,
    Term,
)


def term_object_vars(term: Term) -> Set[str]:
    """Names of object variables occurring in a term."""
    if isinstance(term, ObjectVar):
        return {term.name}
    if isinstance(term, AttrFunc):
        names: Set[str] = set()
        for arg in term.args:
            names |= term_object_vars(arg)
        return names
    return set()


def term_attr_vars(term: Term) -> Set[str]:
    """Names of attribute variables occurring in a term."""
    if isinstance(term, AttrVar):
        return {term.name}
    if isinstance(term, AttrFunc):
        names: Set[str] = set()
        for arg in term.args:
            names |= term_attr_vars(arg)
        return names
    return set()


def free_object_vars(formula: Formula) -> FrozenSet[str]:
    """Object variables free in ``formula``."""
    if isinstance(formula, Present):
        return frozenset({formula.var.name})
    if isinstance(formula, Compare):
        return frozenset(
            term_object_vars(formula.left) | term_object_vars(formula.right)
        )
    if isinstance(formula, Rel):
        names: Set[str] = set()
        for arg in formula.args:
            names |= term_object_vars(arg)
        return frozenset(names)
    if isinstance(formula, Exists):
        return free_object_vars(formula.sub) - frozenset(formula.vars)
    if isinstance(formula, Freeze):
        inner = free_object_vars(formula.sub)
        return frozenset(inner | term_object_vars(formula.func))
    result: Set[str] = set()
    for child in formula.children():
        result |= free_object_vars(child)
    return frozenset(result)


def free_attr_vars(formula: Formula) -> FrozenSet[str]:
    """Attribute variables free in ``formula``."""
    if isinstance(formula, Compare):
        return frozenset(
            term_attr_vars(formula.left) | term_attr_vars(formula.right)
        )
    if isinstance(formula, Rel):
        names: Set[str] = set()
        for arg in formula.args:
            names |= term_attr_vars(arg)
        return frozenset(names)
    if isinstance(formula, Freeze):
        inner = free_attr_vars(formula.sub) - {formula.var}
        return frozenset(inner | term_attr_vars(formula.func))
    result: Set[str] = set()
    for child in formula.children():
        result |= free_attr_vars(child)
    return frozenset(result)


def is_closed(formula: Formula) -> bool:
    """True when the formula has no free variables of either kind."""
    return not free_object_vars(formula) and not free_attr_vars(formula)
