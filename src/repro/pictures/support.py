"""Support-set analysis for index-driven atom evaluation.

The naive picture-retrieval path scores every (binding × segment) pair by
a full recursive formula walk.  But for a fixed binding, a non-temporal
formula's similarity at a segment can differ from its **baseline score**
— the score on a segment with no meta-data at all — only where some fact
the formula can probe is actually defined.  Those segments are exactly
what the :class:`~repro.pictures.index.MetadataIndex` posting lists
enumerate, so per atom and binding we compute a **candidate set**: the
union of the posting lists of every fact the formula may probe under the
binding (``None`` means "every segment" — the analysis found a construct
it cannot bound).  Off the candidate set the score provably equals the
baseline, which is nonzero under ``¬`` and ``∨`` — the baseline is
emitted as interval runs over the complement, never expanded per
segment.  That is all the analysis produces: which candidate segments
share a score is the sweep's business, and it decides by the index's
whole-segment content profile alone (:mod:`repro.pictures.retrieval`).

Correctness argument (DESIGN.md §7): the candidate set of every
construct *over-approximates* the segments where any referenced fact is
defined, by structural induction — leaves take the posting list of the
fact they probe, connectives take unions, ``¬`` keeps its operand's set
(its baseline is ``m - baseline(sub)``), ``∃`` analyses its body with
the quantified variables marked (``present(x)`` widens to the union of
the pool ids' posting lists — every object an assignment can pick),
and the freeze operator needs only its captured function's set (an
undefined capture scores 0, the freeze baseline).  Off the set every
probe resolves to "undefined/absent" exactly as on the empty segment,
so the recursive score follows the identical code path and returns the
identical float.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core import resilience
from repro.htl import ast
from repro.pictures.index import MetadataIndex
from repro.pictures.scoring import FRESH_OBJECT_ID

#: A binding of variable names to values (mirrors repro.pictures.scoring).
Binding = Dict[str, Union[str, int, float]]

#: Sentinel: a term that is statically known to be undefined everywhere.
_UNDEFINED = object()

#: Static term resolution: (known, value).  ``known=True`` with
#: ``value=_UNDEFINED`` means "defined nowhere"; ``known=False`` means the
#: value varies by segment or by a quantified-variable extension.
_Static = Tuple[bool, object]

_NOT_STATIC: _Static = (False, None)


def _union(
    left: Optional[Set[int]], right: Optional[Set[int]]
) -> Optional[Set[int]]:
    if left is None or right is None:
        return None
    return left | right


class SupportAnalyzer:
    """Per-sequence analyzer resolving probes against a MetadataIndex."""

    def __init__(self, index: MetadataIndex):
        self._index = index
        self._pool_postings_cache: Dict[Tuple[str, ...], Set[int]] = {}

    # ------------------------------------------------------------------
    def atom_support(
        self,
        atom: ast.Formula,
        binding: Binding,
        pool: Sequence[str] = (),
        charge: bool = True,
    ) -> Optional[Set[int]]:
        """Candidate set for one (atom, binding), unordered (None = all).

        The exact over-approximation and nothing else: whether a large
        set is worth walking is the caller's policy.  ``pool`` is the
        object universe quantified (``∃``) variables range over; a
        quantified variable's postings are the union over it.  The
        fresh-object sentinel carries no meta-data and is dropped.

        ``charge=False`` skips the budget step charge: planner probes
        estimate evaluation cost without performing evaluation work, so
        they must not perturb a query's step accounting.
        """
        budget = resilience.current_budget()
        if charge and budget is not None:
            budget.charge(1, site="atom-scoring")
        pool_ids = tuple(
            object_id
            for object_id in pool
            if isinstance(object_id, str) and object_id != FRESH_OBJECT_ID
        )
        return self._formula(atom, binding, frozenset(), pool_ids)

    def _pool_postings(self, pool: Tuple[str, ...]) -> Set[int]:
        """Union of the pool ids' presence posting lists (do not mutate)."""
        cached = self._pool_postings_cache.get(pool)
        if cached is None:
            cached = set()
            for object_id in pool:
                cached.update(self._index.segments_with_object(object_id))
            self._pool_postings_cache[pool] = cached
        return cached

    def term_candidates(
        self, term: ast.Term, binding: Binding
    ) -> Optional[Tuple[int, ...]]:
        """Segments where the term may be defined (None = all).

        Outside the returned set the term evaluates to ``None``
        (undefined) — used to restrict the attribute-variable boundary
        scan to segments that can contribute a value.
        """
        support, (known, value) = self._term(term, binding, frozenset(), ())
        if known:
            if value is _UNDEFINED:
                return ()
            # Constant across segments: one representative suffices.
            return (1,) if self._index.n_segments else ()
        return None if support is None else tuple(sorted(support))

    # ------------------------------------------------------------------
    # terms
    # ------------------------------------------------------------------
    def _term(
        self,
        term: ast.Term,
        binding: Binding,
        exists_vars: FrozenSet[str],
        pool: Tuple[str, ...],
    ) -> Tuple[Optional[Set[int]], _Static]:
        """(support, static value) of a term."""
        if isinstance(term, ast.Const):
            return set(), (True, term.value)
        if isinstance(term, (ast.ObjectVar, ast.AttrVar)):
            name = term.name
            if name in exists_vars:
                # Quantified object variable: per pool assignment its
                # value is the (segment-independent) pool id itself.
                return set(), _NOT_STATIC
            if name in binding:
                return set(), (True, binding[name])
            # Unbound and unquantified: eval_term is None everywhere.
            return set(), (True, _UNDEFINED)
        if isinstance(term, ast.AttrFunc):
            if not term.args:
                return (
                    set(self._index.segments_with_attribute_name(term.name)),
                    _NOT_STATIC,
                )
            holder = term.args[0]
            if (
                isinstance(holder, (ast.ObjectVar, ast.AttrVar))
                and holder.name in exists_vars
            ):
                # Quantified holder: per assignment the access reads one
                # pool id's attribute, and it is defined only where that
                # pool object is present.
                return set(self._pool_postings(pool)), _NOT_STATIC
            holder_support, (known, value) = self._term(
                holder, binding, exists_vars, pool
            )
            if known:
                if isinstance(value, str):
                    return (
                        set(self._index.segments_with_object(value)),
                        _NOT_STATIC,
                    )
                # Non-string holder (including _UNDEFINED): the attribute
                # access is undefined on every segment.
                return set(), (True, _UNDEFINED)
            # Holder varies by segment (a nested attribute access): the
            # access can only be defined where the segment holds some
            # object.
            support = _union(
                set(self._index.segments_with_any_object()), holder_support
            )
            return support, _NOT_STATIC
        # Unknown term kind: no bound derivable; scoring will raise the
        # same error the naive path raises.
        return None, _NOT_STATIC

    # ------------------------------------------------------------------
    # formulas
    # ------------------------------------------------------------------
    def _formula(
        self,
        formula: ast.Formula,
        binding: Binding,
        exists_vars: FrozenSet[str],
        pool: Tuple[str, ...],
    ) -> Optional[Set[int]]:
        """Support of a formula: candidate segment ids, or None for all."""
        if isinstance(formula, ast.Truth):
            return set()
        if isinstance(formula, ast.Present):
            name = formula.var.name
            if name in exists_vars:
                # Some assignment scores nonzero exactly where a pool
                # object is present.
                return set(self._pool_postings(pool))
            value = binding.get(name)
            if isinstance(value, str):
                return set(self._index.segments_with_object(value))
            # Non-string or missing binding: scores 0 on every segment.
            return set()
        if isinstance(formula, ast.Compare):
            return _union(
                self._term(formula.left, binding, exists_vars, pool)[0],
                self._term(formula.right, binding, exists_vars, pool)[0],
            )
        if isinstance(formula, ast.Rel):
            statics = [
                self._term(arg, binding, exists_vars, pool)[1]
                for arg in formula.args
            ]
            if all(known for known, __ in statics) and any(
                value is _UNDEFINED for __, value in statics
            ):
                # An undefined argument zeroes the predicate
                # everywhere — constant, no candidates.
                return set()
            return set(self._index.segments_with_relationship(formula.name))
        if isinstance(formula, (ast.Weighted, ast.Not)):
            return self._formula(formula.sub, binding, exists_vars, pool)
        if isinstance(formula, (ast.And, ast.Or)):
            return _union(
                self._formula(formula.left, binding, exists_vars, pool),
                self._formula(formula.right, binding, exists_vars, pool),
            )
        if isinstance(formula, ast.LooksLike):
            # The score reads the segment's content signature and nothing
            # else.  A segment without one scores the atom's baseline
            # (0, exactly the representative empty segment's score), so
            # the signature-bearing segments are a sound candidate set.
            return set(self._index.segments_with_signature())
        if isinstance(formula, ast.Exists):
            # Quantified variables shadow outer bindings.  The body's
            # support with the variables marked quantified contains the
            # support under every pool assignment.
            return self._formula(
                formula.sub,
                binding,
                exists_vars | frozenset(formula.vars),
                pool,
            )
        if isinstance(formula, ast.Freeze):
            # Off the capture's support the capture is undefined and the
            # whole freeze scores 0 — its baseline — so the body's
            # support is not needed.
            return self._term(formula.func, binding, exists_vars, pool)[0]
        # AtomicRef or any non-temporal construct the scorer does not
        # handle: no bound derivable; scoring raises exactly as the
        # naive path would.
        return None
