"""Similarity scoring of non-temporal formulas on a single segment.

This is the reproduction's stand-in for the picture-retrieval scoring of
the paper's references [27, 25, 2]: a non-temporal formula is a weighted
set of conditions; the maximum similarity is the total weight (a function
of the formula alone) and the actual similarity is the weight of the
satisfied conditions, each scaled by the confidence of the meta-data facts
it matched.  Confidences below 1 are how fractional similarity values such
as the paper's 9.787 arise.

The same scorer backs both the picture-retrieval table builder and the
naive reference-semantics oracle, so atom-level agreement is by
construction; the list/table algebra is what the oracle then cross-checks.

Semantics of the pieces (``w`` is the condition weight, default 1):

* ``present(x)`` — ``w * confidence(object)`` when the bound object id
  appears in the segment, else 0.
* comparisons — ``w * conf(left) * conf(right)`` when both terms are
  defined and the comparison holds, else 0.  Cross-type ordered
  comparisons are unsatisfied; ``=``/``!=`` compare across types.
* relationships — ``w * confidence(tuple)`` when a relationship with that
  name and exactly those argument values exists in the segment.
* ``g ∧ h`` — sum of the parts; ``g ∨ h`` — best part; ``¬g`` — the
  unsatisfied weight ``m(g) - a(g)``.
* ``∃x g`` — maximum over the object universe.
* ``true`` — ``(1, 1)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Optional, Sequence, Tuple, Union

from repro.errors import UnsupportedFormulaError
from repro.htl import ast
from repro.model.metadata import SegmentMetadata
from repro.pictures.signature import looks_like_score

#: A binding of variable names (object and attribute alike) to values.
Binding = Dict[str, Union[str, int, float]]

#: Sentinel id standing for "any object not appearing in the video".  The
#: paper's evaluations range over a *universal* set of object ids, so ∃
#: must also consider objects absent from every segment (they score zero on
#: presence/attribute/relationship conditions but may still maximise a
#: formula through its variable-free or negated conditions).  One fresh id
#: represents that whole class; see the module docstring for the known
#: approximation (two distinct unknown objects are not distinguishable).
FRESH_OBJECT_ID = "__no_such_object__"


def exists_pool(universe: Sequence[str]) -> "list[str]":
    """The pool an existential quantifier ranges over."""
    pool = [oid for oid in universe if oid != FRESH_OBJECT_ID]
    pool.append(FRESH_OBJECT_ID)
    return pool


def max_similarity(formula: ast.Formula) -> float:
    """The maximum similarity ``m`` of a non-temporal formula.

    Depends only on the formula (paper §2.5: "the maximum m is only a
    function of f").
    """
    if isinstance(
        formula,
        (ast.Truth, ast.Present, ast.Compare, ast.Rel, ast.LooksLike),
    ):
        return 1.0
    if isinstance(formula, ast.Weighted):
        return formula.weight * max_similarity(formula.sub)
    if isinstance(formula, ast.And):
        return max_similarity(formula.left) + max_similarity(formula.right)
    if isinstance(formula, ast.Or):
        return max(max_similarity(formula.left), max_similarity(formula.right))
    if isinstance(formula, ast.Not):
        return max_similarity(formula.sub)
    if isinstance(formula, ast.Exists):
        return max_similarity(formula.sub)
    if isinstance(formula, ast.Freeze):
        # A freeze with no temporal operator in scope binds within the
        # current segment only; it is a non-temporal formula (paper §2.2).
        return max_similarity(formula.sub)
    if isinstance(formula, ast.AtomicRef):
        raise UnsupportedFormulaError(
            f"atomic reference {formula.name!r} has no intrinsic maximum; "
            "its registered similarity list carries one"
        )
    raise UnsupportedFormulaError(
        f"{type(formula).__name__} is not a non-temporal formula"
    )


def eval_term(
    term: ast.Term, segment: SegmentMetadata, binding: Binding
) -> Optional[Tuple[Union[str, int, float], float]]:
    """Evaluate a term to ``(value, confidence)``; None when undefined."""
    if isinstance(term, ast.Const):
        return term.value, 1.0
    if isinstance(term, (ast.ObjectVar, ast.AttrVar)):
        if term.name not in binding:
            return None
        return binding[term.name], 1.0
    if isinstance(term, ast.AttrFunc):
        if not term.args:
            fact = segment.segment_attribute(term.name)
            return None if fact is None else (fact.value, fact.confidence)
        holder = eval_term(term.args[0], segment, binding)
        if holder is None:
            return None
        object_id, holder_confidence = holder
        if not isinstance(object_id, str):
            return None
        fact = segment.object_attribute(object_id, term.name)
        if fact is None:
            return None
        return fact.value, fact.confidence * holder_confidence
    raise UnsupportedFormulaError(f"cannot evaluate term {term!r}")


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_values(op: str, left: object, right: object) -> bool:
    """Apply a comparison operator with cross-type care.

    ``=``/``!=`` work across types (unequal types are simply unequal);
    ordered comparisons require both numbers or both strings.
    """
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    comparable = (_is_number(left) and _is_number(right)) or (
        isinstance(left, str) and isinstance(right, str)
    )
    if not comparable:
        return False
    if op == "<":
        return left < right  # type: ignore[operator]
    if op == "<=":
        return left <= right  # type: ignore[operator]
    if op == ">":
        return left > right  # type: ignore[operator]
    return left >= right  # '>='


def score(
    formula: ast.Formula,
    segment: SegmentMetadata,
    binding: Binding,
    universe: Sequence[str] = (),
    narrow: bool = False,
) -> float:
    """Actual similarity ``a`` of a non-temporal formula at one segment.

    ``universe`` is the pool of object ids an inner ``∃`` quantifies over;
    pass the video's object universe for definitional fidelity (it defaults
    to the segment's own objects inside :func:`score_with_segment_universe`).

    ``narrow=True`` lets each ``∃`` iterate only the pool members that can
    be distinguished from the fresh-object representative on this segment
    (see :func:`_narrowed_pool`); the result is provably identical and the
    indexed retrieval path enables it by default.  The reference semantics
    keep the definitional full-pool iteration.
    """
    if isinstance(formula, ast.Truth):
        return 1.0
    if isinstance(formula, ast.Present):
        object_id = binding.get(formula.var.name)
        if not isinstance(object_id, str):
            return 0.0
        instance = segment.object(object_id)
        return instance.confidence if instance is not None else 0.0
    if isinstance(formula, ast.Compare):
        left = eval_term(formula.left, segment, binding)
        right = eval_term(formula.right, segment, binding)
        if left is None or right is None:
            return 0.0
        if compare_values(formula.op, left[0], right[0]):
            return left[1] * right[1]
        return 0.0
    if isinstance(formula, ast.Rel):
        values = []
        confidence = 1.0
        for arg in formula.args:
            evaluated = eval_term(arg, segment, binding)
            if evaluated is None:
                return 0.0
            values.append(evaluated[0])
            confidence *= evaluated[1]
        match = segment.find_relationship(formula.name, tuple(values))
        if match is None:
            return 0.0
        return confidence * match.confidence
    if isinstance(formula, ast.Weighted):
        return formula.weight * score(
            formula.sub, segment, binding, universe, narrow
        )
    if isinstance(formula, ast.And):
        return score(formula.left, segment, binding, universe, narrow) + score(
            formula.right, segment, binding, universe, narrow
        )
    if isinstance(formula, ast.Or):
        return max(
            score(formula.left, segment, binding, universe, narrow),
            score(formula.right, segment, binding, universe, narrow),
        )
    if isinstance(formula, ast.Not):
        return max_similarity(formula.sub) - score(
            formula.sub, segment, binding, universe, narrow
        )
    if isinstance(formula, ast.Exists):
        base = list(universe) if universe else list(segment.object_ids())
        return _score_exists(
            formula, segment, binding, exists_pool(base), narrow
        )
    if isinstance(formula, ast.Freeze):
        captured = eval_term(formula.func, segment, binding)
        if captured is None:
            # Capturing an undefined attribute fails the whole freeze
            # (DESIGN.md §2 convention, matching the reference semantics).
            return 0.0
        extended = dict(binding)
        extended[formula.var] = captured[0]
        return score(formula.sub, segment, extended, universe, narrow)
    if isinstance(formula, ast.LooksLike):
        return looks_like_score(formula, segment.signature)
    raise UnsupportedFormulaError(
        f"{type(formula).__name__} is not scorable on a single segment"
    )


def _score_exists(
    formula: ast.Exists,
    segment: SegmentMetadata,
    binding: Binding,
    pool: Sequence[str],
    narrow: bool = False,
) -> float:
    """Max over assignments of the quantified variables from ``pool``."""
    best = 0.0
    names = formula.vars
    iterate = _narrowed_pool(formula, segment, pool) if narrow else pool

    def assign(position: int, current: Binding) -> None:
        nonlocal best
        if position == len(names):
            # The *full* pool stays the universe of nested quantifiers;
            # only this node's iteration is narrowed.
            best = max(
                best, score(formula.sub, segment, current, pool, narrow)
            )
            return
        for object_id in iterate:
            extended = dict(current)
            extended[names[position]] = object_id
            assign(position + 1, extended)

    assign(0, dict(binding))
    return best


# ---------------------------------------------------------------------------
# ∃-pool narrowing
# ---------------------------------------------------------------------------
def _narrowed_pool(
    formula: ast.Exists, segment: SegmentMetadata, pool: Sequence[str]
) -> Sequence[str]:
    """Exact pool narrowing for one ``∃`` at one segment.

    When every occurrence of the quantified variables is *indiscernible* —
    ``present(v)``, an attribute-access holder ``attr(v)``, or a bare
    relationship argument — then any pool member that is neither present
    in the segment nor (when relationship arguments occur) named by one of
    its relationship tuples scores exactly like :data:`FRESH_OBJECT_ID`:
    presence 0, attribute accesses undefined, relationship tuples
    unmatched.  The fresh id is always iterated, so dropping those members
    cannot change the max.  Occurrences that can tell absent ids apart
    (a bare variable in a comparison, an unanalyzable construct) disable
    narrowing, as does the freak case of the fresh id itself being named
    by the segment's meta-data.
    """
    analysis = _exists_narrowing(formula)
    if analysis is None:
        return pool
    relevant = set(segment.object_ids())
    if analysis:  # variables occur as relationship arguments
        for relationship in segment.relationships:
            for arg in relationship.args:
                if isinstance(arg, str):
                    relevant.add(arg)
    if FRESH_OBJECT_ID in relevant:
        # The fresh id cannot faithfully represent dropped members here.
        return pool
    narrowed = [object_id for object_id in pool if object_id in relevant]
    narrowed.append(FRESH_OBJECT_ID)
    return narrowed


@lru_cache(maxsize=None)
def _exists_narrowing(formula: ast.Exists) -> Optional[bool]:
    """``None`` if narrowing is unsafe, else whether rel args matter."""
    safe, needs_rel = _narrowing_of(formula.sub, frozenset(formula.vars))
    return needs_rel if safe else None


def _narrowing_of(
    node: ast.Formula, targets: FrozenSet[str]
) -> Tuple[bool, bool]:
    """(safe, needs_rel) of the occurrences of ``targets`` under ``node``."""
    if not targets:
        return True, False
    if isinstance(node, (ast.Truth, ast.Present, ast.LooksLike)):
        # looks_like is variable-free: it scores the segment signature
        # only, so it cannot distinguish absent object ids.
        return True, False
    if isinstance(node, ast.Compare):
        left_safe, left_rel = _term_occurrences(node.left, targets)
        right_safe, right_rel = _term_occurrences(node.right, targets)
        return left_safe and right_safe, left_rel or right_rel
    if isinstance(node, ast.Rel):
        needs_rel = False
        for arg in node.args:
            if isinstance(arg, ast.ObjectVar) and arg.name in targets:
                needs_rel = True
                continue
            arg_safe, arg_rel = _term_occurrences(arg, targets)
            if not arg_safe:
                return False, False
            needs_rel = needs_rel or arg_rel
        return True, needs_rel
    if isinstance(node, (ast.Weighted, ast.Not)):
        return _narrowing_of(node.sub, targets)
    if isinstance(node, (ast.And, ast.Or)):
        left_safe, left_rel = _narrowing_of(node.left, targets)
        right_safe, right_rel = _narrowing_of(node.right, targets)
        return left_safe and right_safe, left_rel or right_rel
    if isinstance(node, ast.Exists):
        return _narrowing_of(node.sub, targets - frozenset(node.vars))
    if isinstance(node, ast.Freeze):
        func_safe, func_rel = _term_occurrences(node.func, targets)
        sub_safe, sub_rel = _narrowing_of(node.sub, targets - {node.var})
        return func_safe and sub_safe, func_rel or sub_rel
    # AtomicRef or an unknown construct: be conservative.
    return False, False


def _term_occurrences(
    term: ast.Term, targets: FrozenSet[str]
) -> Tuple[bool, bool]:
    """(safe, needs_rel) of target-variable occurrences inside a term.

    A target is safe inside a term only as an attribute-access holder;
    bare (its *value* feeds a comparison or confidence product) it could
    distinguish two absent ids, so narrowing must be disabled.
    """
    if isinstance(term, (ast.ObjectVar, ast.AttrVar)):
        return term.name not in targets, False
    if isinstance(term, ast.Const):
        return True, False
    if isinstance(term, ast.AttrFunc):
        if not term.args:
            return True, False
        holder = term.args[0]
        if isinstance(holder, (ast.ObjectVar, ast.AttrVar)):
            return True, False
        return _term_occurrences(holder, targets)
    return False, False
