"""Formula classification: type (1) ⊂ type (2) ⊂ conjunctive ⊂ extended
conjunctive ⊂ general HTL (paper §2.5 and §3).

Two views are provided:

* :func:`paper_class` — the literal definitions of the paper: conjunctive
  formulas have *no* negation (and HTL has no primitive disjunction), all
  variables bound, and every existential quantifier either appears at the
  beginning of the formula (or, for extended conjunctive formulas, at the
  beginning of a level-operator body — the reading under which the paper's
  own western-movie example is extended conjunctive; see DESIGN.md) or has
  no temporal operator in its scope.

* :func:`skeleton_class` — the classification the retrieval systems
  actually dispatch on (§4: both systems take "the similarity tables
  associated with the atomic subformulas" as input, where atomic
  subformulas are the *maximal subformulas without temporal operators*).
  Under this view the contents of an atomic subformula are opaque, so
  negation/disjunction *inside* atoms is permitted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.errors import HTLTypeError
from repro.htl.ast import (
    Always,
    And,
    AtLevel,
    AtNamedLevel,
    AtNextLevel,
    AtomicRef,
    Compare,
    Eventually,
    Exists,
    Formula,
    Freeze,
    LEVEL_OPERATORS,
    Next,
    Not,
    Or,
    Present,
    Rel,
    TEMPORAL_OPERATORS,
    Truth,
    Until,
    Weighted,
    node_fact,
)
from repro.htl.variables import is_closed


class FormulaClass(enum.IntEnum):
    """The paper's formula classes, ordered by inclusion."""

    TYPE1 = 1
    TYPE2 = 2
    CONJUNCTIVE = 3
    EXTENDED_CONJUNCTIVE = 4
    GENERAL = 5

    def includes(self, other: "FormulaClass") -> bool:
        """Class containment: every TYPE1 formula is also TYPE2, etc."""
        return other <= self


def has_temporal_operator(formula: Formula) -> bool:
    """True when the formula contains next/until/eventually/always."""
    return any(isinstance(node, TEMPORAL_OPERATORS) for node in formula.walk())


def has_level_operator(formula: Formula) -> bool:
    """True when the formula contains a level modal operator."""
    return any(isinstance(node, LEVEL_OPERATORS) for node in formula.walk())


#: Node slot memoising :func:`is_non_temporal` (see ``ast.node_fact``).
_NON_TEMPORAL_SLOT = "_non_temporal"


def is_non_temporal(formula: Formula) -> bool:
    """Paper §2.2: no temporal operators *and* no level modal operators.

    Memoised on the node, so the engine's per-node dispatch asks each
    subformula once per formula object, not once per video."""
    return node_fact(formula, _NON_TEMPORAL_SLOT, _non_temporal)


def _non_temporal(formula: Formula) -> bool:
    return not isinstance(
        formula, TEMPORAL_OPERATORS + LEVEL_OPERATORS
    ) and all(is_non_temporal(child) for child in formula.children())


def atomic_subformulas(formula: Formula) -> List[Formula]:
    """The maximal non-temporal subformulas, left to right (paper §4).

    These are the units handed to the picture-retrieval system.  A formula
    that is itself non-temporal is its own single atomic subformula.
    """
    atoms: List[Formula] = []
    _collect_atoms(formula, atoms)
    return atoms


def _collect_atoms(formula: Formula, atoms: List[Formula]) -> None:
    if is_non_temporal(formula):
        atoms.append(formula)
        return
    for child in formula.children():
        _collect_atoms(child, atoms)


@dataclass
class _ScanState:
    """Features gathered while scanning a formula's temporal skeleton."""

    atoms_opaque: bool
    has_freeze: bool = False
    has_level: bool = False
    has_temporal_scoped_exists: bool = False
    general: bool = False
    reasons: List[str] = field(default_factory=list)

    def reject(self, reason: str) -> None:
        self.general = True
        self.reasons.append(reason)


def _strip_prefix_exists(formula: Formula) -> Tuple[Tuple[str, ...], Formula]:
    """Split ``∃x1...∃xk g`` into the prefix variables and the matrix."""
    names: List[str] = []
    body = formula
    while isinstance(body, Exists):
        names.extend(body.vars)
        body = body.sub
    return tuple(names), body


def _atom_ok(formula: Formula, state: _ScanState) -> bool:
    """Is a non-temporal subformula an acceptable atom for this view?"""
    if state.atoms_opaque:
        return True
    # The paper's literal conjunctive definition: no negation anywhere and
    # no disjunction (HTL has no primitive ∨).
    return not any(isinstance(node, (Not, Or)) for node in formula.walk())


def _scan(formula: Formula, state: _ScanState, prefix_ok: bool) -> None:
    """Walk the temporal skeleton, recording features.

    ``prefix_ok`` is True while we are still at the head of the current
    (sub)formula where existential quantifiers count as "at the beginning".
    """
    if state.general:
        return
    if is_non_temporal(formula):
        if not _atom_ok(formula, state):
            state.reject("negation/disjunction outside atomic subformulas")
        return
    if isinstance(formula, And):
        _scan(formula.left, state, prefix_ok=False)
        _scan(formula.right, state, prefix_ok=False)
    elif isinstance(formula, Until):
        _scan(formula.left, state, prefix_ok=False)
        _scan(formula.right, state, prefix_ok=False)
    elif isinstance(formula, (Next, Eventually)):
        _scan(formula.sub, state, prefix_ok=False)
    elif isinstance(formula, Always):
        if not state.atoms_opaque:
            state.reject("'always' is an extension outside the paper's HTL")
        _scan(formula.sub, state, prefix_ok=False)
    elif isinstance(formula, Freeze):
        state.has_freeze = True
        _scan(formula.sub, state, prefix_ok=False)
    elif isinstance(formula, Exists):
        # Reaching an Exists here means its scope contains temporal or
        # level operators (otherwise the whole node would be non-temporal).
        if prefix_ok:
            state.has_temporal_scoped_exists = True
            _scan(formula.sub, state, prefix_ok=True)
        else:
            state.reject(
                "existential quantifier with temporal scope not at the "
                "beginning of the formula"
            )
    elif isinstance(formula, (AtNextLevel, AtLevel, AtNamedLevel)):
        state.has_level = True
        __, body = _strip_prefix_exists(formula.sub)
        if body is not formula.sub:
            state.has_temporal_scoped_exists = True
        _scan(body, state, prefix_ok=True)
    elif isinstance(formula, Weighted):
        state.reject("weight annotation wrapping a temporal subformula")
    elif isinstance(formula, (Not, Or)):
        state.reject("negation/disjunction over a temporal subformula")
    else:  # pragma: no cover - future node kinds
        state.reject(f"unsupported node {type(formula).__name__}")


def _classify(formula: Formula, atoms_opaque: bool) -> FormulaClass:
    if not is_closed(formula):
        return FormulaClass.GENERAL
    state = _ScanState(atoms_opaque=atoms_opaque)
    prefix_vars, body = _strip_prefix_exists(formula)
    if prefix_vars and not is_non_temporal(body):
        state.has_temporal_scoped_exists = True
    _scan(body, state, prefix_ok=True)
    if state.general:
        return FormulaClass.GENERAL
    if state.has_level:
        return FormulaClass.EXTENDED_CONJUNCTIVE
    if state.has_freeze:
        return FormulaClass.CONJUNCTIVE
    if state.has_temporal_scoped_exists:
        return FormulaClass.TYPE2
    return FormulaClass.TYPE1


def paper_class(formula: Formula) -> FormulaClass:
    """Smallest paper class containing the formula (literal definitions)."""
    return _classify(formula, atoms_opaque=False)


def skeleton_class(formula: Formula) -> FormulaClass:
    """Smallest class of the formula's temporal skeleton (atoms opaque)."""
    return _classify(formula, atoms_opaque=True)


def require_class(
    formula: Formula,
    at_most: FormulaClass,
    view: str = "skeleton",
) -> FormulaClass:
    """Raise :class:`HTLTypeError` unless the formula's class ≤ ``at_most``."""
    actual = (
        skeleton_class(formula) if view == "skeleton" else paper_class(formula)
    )
    if actual > at_most:
        raise HTLTypeError(
            f"formula is {actual.name}, but this algorithm supports at most "
            f"{at_most.name}"
        )
    return actual
