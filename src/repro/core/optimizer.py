"""Formula rewriting for faster retrieval (query optimisation).

The paper's complexity analysis makes the cost of the direct method a
function of the formula's length and the lengths of the intermediate
similarity lists; rewriting the formula before evaluation shrinks both.
All rules preserve the similarity semantics exactly — each is backed by an
algebraic law property-tested in ``tests/core/test_ops_laws.py`` or by the
engine-vs-oracle equivalence suite:

* ``eventually (eventually f)  →  eventually f``        (idempotence)
* ``next f ∧ next g            →  next (f ∧ g)``         (distribution)
* ``eventually (next f)        →  next (eventually f)``  (commutation; the
  right side shifts one shorter intermediate list)
* ``true ∧ f`` stays put — ∧ with ``true`` *changes* the similarity value
  (it adds 1 to both components), so it is **not** eliminated; a reminder
  that boolean simplifications are generally unsound under graded
  semantics.
* adjacent ``∃`` prefixes merge: ``∃x.∃y.f → ∃x,y.f``.
* conjunction reassociation orders conjuncts by the structural cost
  heuristic (number of free object variables, then temporal-operator
  count, then size), so joins start from the most selective tables — the
  classic join-ordering heuristic.

These are *static* rewrites: no video in sight, so only the formula's
structure can inform the ordering.  The statistics-driven ordering lives
in :mod:`repro.core.planner` (DESIGN.md §13), which the engine applies
per evaluation; this module's ordering is that planner's statistics-free
fallback (:func:`repro.core.planner.structural_cost`).

Use :func:`optimize` before :meth:`RetrievalEngine.evaluate_video` when
queries are machine-generated or deeply nested; hand-written queries are
usually already in good shape.
"""

from __future__ import annotations

from typing import List

from repro.core.planner import order_conjuncts
from repro.htl import ast
from repro.htl.classify import is_non_temporal


def optimize(formula: ast.Formula) -> ast.Formula:
    """Apply the rewrite rules bottom-up until a fixed point."""
    current = formula
    for __ in range(_MAX_PASSES):
        rewritten = _rewrite(current)
        if rewritten == current:
            return rewritten
        current = rewritten
    return current


_MAX_PASSES = 8


def _rewrite(formula: ast.Formula) -> ast.Formula:
    formula = _rewrite_children(formula)

    # eventually (eventually f) -> eventually f
    if isinstance(formula, ast.Eventually) and isinstance(
        formula.sub, ast.Eventually
    ):
        return formula.sub

    # always (always f) -> always f
    if isinstance(formula, ast.Always) and isinstance(formula.sub, ast.Always):
        return formula.sub

    # eventually (next f) -> next (eventually f)
    if isinstance(formula, ast.Eventually) and isinstance(
        formula.sub, ast.Next
    ):
        return ast.Next(ast.Eventually(formula.sub.sub))

    # next f ∧ next g -> next (f ∧ g)
    if (
        isinstance(formula, ast.And)
        and isinstance(formula.left, ast.Next)
        and isinstance(formula.right, ast.Next)
    ):
        return ast.Next(ast.And(formula.left.sub, formula.right.sub))

    # ∃x . ∃y . f -> ∃x,y . f (when names do not collide)
    if isinstance(formula, ast.Exists) and isinstance(formula.sub, ast.Exists):
        inner = formula.sub
        if not set(formula.vars) & set(inner.vars):
            return ast.Exists(formula.vars + inner.vars, inner.sub)

    # Reassociate conjunction chains cheapest-first.
    if isinstance(formula, ast.And):
        reordered = _reorder_conjunction(formula)
        if reordered is not None:
            return reordered

    return formula


def _rewrite_children(formula: ast.Formula) -> ast.Formula:
    if isinstance(formula, ast.And):
        return ast.And(_rewrite(formula.left), _rewrite(formula.right))
    if isinstance(formula, ast.Or):
        return ast.Or(_rewrite(formula.left), _rewrite(formula.right))
    if isinstance(formula, ast.Until):
        return ast.Until(_rewrite(formula.left), _rewrite(formula.right))
    if isinstance(formula, ast.Not):
        return ast.Not(_rewrite(formula.sub))
    if isinstance(formula, ast.Next):
        return ast.Next(_rewrite(formula.sub))
    if isinstance(formula, ast.Eventually):
        return ast.Eventually(_rewrite(formula.sub))
    if isinstance(formula, ast.Always):
        return ast.Always(_rewrite(formula.sub))
    if isinstance(formula, ast.Exists):
        return ast.Exists(formula.vars, _rewrite(formula.sub))
    if isinstance(formula, ast.Freeze):
        return ast.Freeze(formula.var, formula.func, _rewrite(formula.sub))
    if isinstance(formula, ast.Weighted):
        return ast.Weighted(formula.weight, _rewrite(formula.sub))
    if isinstance(formula, ast.AtNextLevel):
        return ast.AtNextLevel(_rewrite(formula.sub))
    if isinstance(formula, ast.AtLevel):
        return ast.AtLevel(formula.level, _rewrite(formula.sub))
    if isinstance(formula, ast.AtNamedLevel):
        return ast.AtNamedLevel(formula.level_name, _rewrite(formula.sub))
    return formula


def _conjunction_chain(formula: ast.Formula) -> List[ast.Formula]:
    """Flatten a left-leaning ∧ chain into its conjuncts.

    Only the temporal skeleton is flattened; non-temporal subformulas are
    atoms and stay intact (their internal ∧ is the picture system's job).
    """
    if isinstance(formula, ast.And) and not is_non_temporal(formula):
        return _conjunction_chain(formula.left) + _conjunction_chain(
            formula.right
        )
    return [formula]


def _reorder_conjunction(formula: ast.And):
    """Rebuild an ∧ chain cheapest-first (stable; None when unchanged).

    Conjunction of similarity values is commutative and associative
    (sums), so any ordering is sound.  The ranking is the planner's
    structural (statistics-free) cost — at rewrite time there is no
    index to consult; the engine's runtime plan refines the evaluation
    order further with real posting-list statistics.
    """
    conjuncts = _conjunction_chain(formula)
    if len(conjuncts) < 3:
        return None
    new_order = order_conjuncts(conjuncts)
    if new_order == conjuncts:
        return None
    rebuilt = new_order[0]
    for conjunct in new_order[1:]:
        rebuilt = ast.And(rebuilt, conjunct)
    return rebuilt
