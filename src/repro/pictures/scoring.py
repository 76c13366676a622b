"""Similarity scoring of non-temporal formulas on a single segment.

This is the reproduction's stand-in for the picture-retrieval scoring of
the paper's references [27, 25, 2]: a non-temporal formula is a weighted
set of conditions; the maximum similarity is the total weight (a function
of the formula alone) and the actual similarity is the weight of the
satisfied conditions, each scaled by the confidence of the meta-data facts
it matched.  Confidences below 1 are how fractional similarity values such
as the paper's 9.787 arise.

Two implementations of one function: :func:`score` interprets the
formula per call and is the reference — the §2.5 oracle
(:mod:`repro.core.semantics`) and the property tests call it;
:func:`compile_atom` decides everything that depends on the formula alone
once and returns the kernel the table builder sweeps with.  The two agree
bit for bit (``tests/pictures/test_compiled.py``), so the list/table
algebra is what the oracle then cross-checks.

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

import operator
from itertools import product
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import UnsupportedFormulaError
from repro.htl import ast
from repro.model.metadata import ObjectInstance, SegmentMetadata
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
    safe, needs_rel = _narrowing_of(formula.sub, frozenset(formula.vars))
    return _narrow(segment, pool, needs_rel) if safe else pool


def _narrow(
    segment: SegmentMetadata, pool: Sequence[str], needs_rel: bool
) -> Sequence[str]:
    """``pool`` cut to the members one segment can tell from the fresh id.

    ``needs_rel``: the quantified variables occur as relationship
    arguments, so ids named by the segment's relationship tuples count.
    """
    relevant = set(segment.object_ids())
    if needs_rel:
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


# ---------------------------------------------------------------------------
# compiled kernel
# ---------------------------------------------------------------------------
#: ``kernel(segment, binding, pool) -> actual similarity``.
Kernel = Callable[[SegmentMetadata, Binding, Collection[str]], float]

#: A term's ``(value, confidence)``, or None when it is undefined.
_TermValue = Optional[Tuple[Union[str, int, float], float]]

_TermKernel = Callable[[SegmentMetadata, Binding], _TermValue]

#: An object-local ``∃`` body as a function of the object its variable
#: names: the segment's instance, or None for an id the segment lacks.
_InstanceKernel = Callable[[Optional[ObjectInstance]], float]

#: "The variable had no value" in a kernel's save/restore of a binding.
_UNBOUND = object()

_ORDERED = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def compile_atom(formula: ast.Formula, narrow: bool = False) -> Kernel:
    """:func:`score` with everything that depends on the formula alone
    decided once: ``compile_atom(f, narrow)(segment, binding, pool)``
    equals ``score(f, segment, binding, universe, narrow)`` bit for bit.

    One walk of the atom picks, per node, the closure for its kind, the
    shape of each term (constant / variable / segment attribute /
    ``attr(var)`` / nested), the maximum of each ``¬`` operand, the
    comparison operator and — with ``narrow`` — the ∃-narrowing analysis;
    the returned kernel only does the per-segment work.  :func:`score`
    stays the reference the property tests compare against
    (``tests/pictures/test_compiled.py``).  The contract:

    * ``pool`` holds ``exists_pool(universe)`` for a non-empty universe
      and is empty otherwise — the caller builds it once per table
      build, not the kernel once per ``∃``.  With ``narrow`` the kernel
      asks ``object_id in pool`` once per segment object, so hand it a
      collection with O(1) membership that iterates in pool order:
      ``dict.fromkeys(exists_pool(universe))``.  An empty pool makes
      every outermost ``∃`` range over the segment's own objects (plus
      the fresh id), segment by segment, as an empty ``universe`` does
      in :func:`score`.
    * ``narrow`` narrows each ``∃``'s own iteration to the segment's
      objects that are in the pool (plus its relationships' id
      arguments when the body needs them), then the fresh id — the set
      :func:`_narrow` keeps, visited in segment order rather than pool
      order; ``∃`` is a maximum, so the order changes no value.  Nested
      quantifiers still receive the full pool.  A one-variable ``∃``
      whose body reads its variable only through ``present(x)`` and
      ``attr(x)`` — no relationship, segment attribute, other variable,
      nested ``∃``/freeze or ``looks_like`` — is *object-local*: its body
      compiles to a function of the object instance, so the ``∃`` is the
      best of that function over the segment's objects in the pool and
      its value on no object (the fresh id), with no binding written
      (:func:`_instance_kernel`).
    * Attribute reads take the instance's fact, or for ``type`` its type
      slot when no ``type`` fact exists — what
      :meth:`~repro.model.metadata.ObjectInstance.attribute` decides,
      without building a :class:`~repro.model.metadata.Fact` per read.
    * ``∃`` and ``[y ← q]`` rebind their variables in ``binding`` in
      place and restore them — value or absence — before returning, so a
      shadowed outer variable is intact afterwards and ``binding`` reads
      the same after the call as before.  Hand the kernel a dict no other
      thread uses during the call; after an exception the dict may hold
      a half-done rebinding.  The kernel itself keeps no state: one
      kernel may run on several threads over separate bindings.
    * Compilation never raises and never reads a segment.  An unresolved
      ``looks_like`` raises :class:`~repro.errors.SignatureError` and an
      unscorable node :class:`~repro.errors.UnsupportedFormulaError` when
      a *call* reaches it, exactly where :func:`score` would (the kernel
      hands such nodes to :func:`score` / :func:`eval_term`), so building
      a table over zero segments raises nothing.  When one narrowed
      ``∃`` can reach two different errors, the one surfacing first
      follows the kernel's visiting order.
    * ``looks_like`` goes through
      :func:`~repro.pictures.signature.looks_like_score` and with it the
      atom's clip scorer.

    Nothing is cached: callers compile per table build and drop the
    kernel (DESIGN.md §7 has the measurement behind that).
    """
    if isinstance(formula, ast.Truth):
        return lambda segment, binding, pool: 1.0
    if isinstance(formula, ast.Present):
        return _present_kernel(formula.var.name)
    if isinstance(formula, ast.Compare):
        return _compare_kernel(formula)
    if isinstance(formula, ast.Rel):
        return _rel_kernel(formula)
    if isinstance(formula, ast.Weighted):
        weight = formula.weight
        weighted = compile_atom(formula.sub, narrow)
        return lambda segment, binding, pool: weight * weighted(
            segment, binding, pool
        )
    if isinstance(formula, (ast.And, ast.Or)):
        left = compile_atom(formula.left, narrow)
        right = compile_atom(formula.right, narrow)
        if isinstance(formula, ast.And):
            return lambda segment, binding, pool: left(
                segment, binding, pool
            ) + right(segment, binding, pool)
        return lambda segment, binding, pool: max(
            left(segment, binding, pool), right(segment, binding, pool)
        )
    if isinstance(formula, ast.Not):
        try:
            maximum = max_similarity(formula.sub)
        except UnsupportedFormulaError:
            return _reference_kernel(formula, narrow)
        negated = compile_atom(formula.sub, narrow)
        return lambda segment, binding, pool: maximum - negated(
            segment, binding, pool
        )
    if isinstance(formula, ast.Exists):
        return _exists_kernel(formula, narrow)
    if isinstance(formula, ast.Freeze):
        return _freeze_kernel(formula, narrow)
    if isinstance(formula, ast.LooksLike):
        return lambda segment, binding, pool: looks_like_score(
            formula, segment.signature
        )
    return _reference_kernel(formula, narrow)


def _reference_kernel(formula: ast.Formula, narrow: bool) -> Kernel:
    """A node only :func:`score` can answer — with its typed error."""
    return lambda segment, binding, pool: score(
        formula, segment, binding, pool, narrow
    )


def _present_kernel(name: str) -> Kernel:
    def present(
        segment: SegmentMetadata, binding: Binding, pool: Collection[str]
    ) -> float:
        object_id = binding.get(name)
        if not isinstance(object_id, str):
            return 0.0
        instance = segment.object(object_id)
        return instance.confidence if instance is not None else 0.0

    return present


def _compare_kernel(formula: ast.Compare) -> Kernel:
    left_of = _term_kernel(formula.left)
    right_of = _term_kernel(formula.right)
    holds = _comparator(formula.op)

    def compare(
        segment: SegmentMetadata, binding: Binding, pool: Collection[str]
    ) -> float:
        left = left_of(segment, binding)
        right = right_of(segment, binding)
        if left is None or right is None:
            return 0.0
        if holds(left[0], right[0]):
            return left[1] * right[1]
        return 0.0

    return compare


def _comparator(op: str) -> Callable[[object, object], bool]:
    """:func:`compare_values` with the operator already chosen."""
    if op == "=":
        return operator.eq
    if op == "!=":
        return operator.ne
    ordered = _ORDERED[op]

    def holds(left: object, right: object) -> bool:
        if (_is_number(left) and _is_number(right)) or (
            isinstance(left, str) and isinstance(right, str)
        ):
            return ordered(left, right)
        return False

    return holds


def _rel_kernel(formula: ast.Rel) -> Kernel:
    name = formula.name
    args = tuple(_term_kernel(arg) for arg in formula.args)

    def rel(
        segment: SegmentMetadata, binding: Binding, pool: Collection[str]
    ) -> float:
        values = []
        confidence = 1.0
        for arg_of in args:
            evaluated = arg_of(segment, binding)
            if evaluated is None:
                return 0.0
            values.append(evaluated[0])
            confidence *= evaluated[1]
        match = segment.find_relationship(name, tuple(values))
        if match is None:
            return 0.0
        return confidence * match.confidence

    return rel


def _exists_kernel(formula: ast.Exists, narrow: bool) -> Kernel:
    names = formula.vars
    sub = compile_atom(formula.sub, narrow)
    # None: iterate the whole pool; else what _narrowed needs to know.
    needs_rel: Optional[bool] = None
    if narrow:
        safe, rel = _narrowing_of(formula.sub, frozenset(names))
        if safe:
            needs_rel = rel

    if len(names) == 1:
        exists_one = _exists_one_kernel(names[0], sub, needs_rel)
        local = _instance_kernel(formula.sub, names[0]) if narrow else None
        if local is None:
            return exists_one
        return _exists_local_kernel(local, exists_one)

    def exists(
        segment: SegmentMetadata, binding: Binding, pool: Collection[str]
    ) -> float:
        if not pool:
            pool = _segment_pool(segment)
        iterate = (
            pool if needs_rel is None else _narrowed(segment, pool, needs_rel)
        )
        saved = [binding.get(name, _UNBOUND) for name in names]
        best = 0.0
        for values in product(iterate, repeat=len(names)):
            for name, object_id in zip(names, values):
                binding[name] = object_id
            actual = sub(segment, binding, pool)
            if actual > best:
                best = actual
        for name, value in zip(names, saved):
            if value is _UNBOUND:
                del binding[name]
            else:
                binding[name] = value
        return best

    return exists


def _exists_one_kernel(
    name: str, sub: Kernel, needs_rel: Optional[bool]
) -> Kernel:
    """The one-variable ``∃`` without the tuple-per-assignment machinery
    of the general case."""

    def exists_one(
        segment: SegmentMetadata, binding: Binding, pool: Collection[str]
    ) -> float:
        if not pool:
            pool = _segment_pool(segment)
        iterate = (
            pool if needs_rel is None else _narrowed(segment, pool, needs_rel)
        )
        saved = binding.get(name, _UNBOUND)
        best = 0.0
        for object_id in iterate:
            binding[name] = object_id
            actual = sub(segment, binding, pool)
            if actual > best:
                best = actual
        if saved is _UNBOUND:
            del binding[name]
        else:
            binding[name] = saved
        return best

    return exists_one


def _exists_local_kernel(local: _InstanceKernel, generic: Kernel) -> Kernel:
    """A narrowed one-variable ``∃`` over an object-local body — the
    sweep's inner loop: ``max(0, f(None), f(instance) for each segment
    object in the pool)``, which is what the narrowed binding loop
    computes, since an id the segment lacks binds ``f(None)`` exactly
    as the fresh id does."""
    # f(None) is a constant of the formula; the max starts from it.
    absent = local(None)
    floor = absent if absent > 0.0 else 0.0

    def exists_local(
        segment: SegmentMetadata, binding: Binding, pool: Collection[str]
    ) -> float:
        objects = segment.object_map()
        if FRESH_OBJECT_ID in objects:
            # The fresh id names a real object: bind and score instead.
            return generic(segment, binding, pool)
        best = floor
        for object_id, instance in objects.items():
            # An empty pool is the segment's own objects.
            if not pool or object_id in pool:
                actual = local(instance)
                if actual > best:
                    best = actual
        return best

    return exists_local


def _segment_pool(segment: SegmentMetadata) -> Dict[str, None]:
    """The pool of an ``∃`` handed an empty one: the segment's own
    objects and the fresh id."""
    return dict.fromkeys(exists_pool(list(segment.object_ids())))


def _narrowed(
    segment: SegmentMetadata, pool: Collection[str], needs_rel: bool
) -> Collection[str]:
    """What :func:`_narrow` keeps of ``pool``, found from the segment's
    side: its objects (and with ``needs_rel`` its relationships' id
    arguments) that are in the pool, in segment order, then the fresh
    id — O(segment) with a pool of O(1) membership."""
    relevant: Collection[str] = segment.object_map()
    if needs_rel:
        with_args = dict.fromkeys(relevant)
        for relationship in segment.relationships:
            for arg in relationship.args:
                if isinstance(arg, str):
                    with_args[arg] = None
        relevant = with_args
    if FRESH_OBJECT_ID in relevant:
        # The fresh id cannot faithfully represent dropped members here.
        return pool
    narrowed = [object_id for object_id in relevant if object_id in pool]
    narrowed.append(FRESH_OBJECT_ID)
    return narrowed


def _freeze_kernel(formula: ast.Freeze, narrow: bool) -> Kernel:
    var = formula.var
    captured_of = _term_kernel(formula.func)
    sub = compile_atom(formula.sub, narrow)

    def freeze(
        segment: SegmentMetadata, binding: Binding, pool: Collection[str]
    ) -> float:
        captured = captured_of(segment, binding)
        if captured is None:
            return 0.0
        saved = binding.get(var, _UNBOUND)
        binding[var] = captured[0]
        actual = sub(segment, binding, pool)
        if saved is _UNBOUND:
            del binding[var]
        else:
            binding[var] = saved
        return actual

    return freeze


def _term_kernel(term: ast.Term) -> _TermKernel:
    """:func:`eval_term` with the term's shape already decided."""
    if isinstance(term, ast.Const):
        constant = (term.value, 1.0)
        return lambda segment, binding: constant
    if isinstance(term, (ast.ObjectVar, ast.AttrVar)):
        name = term.name
        return lambda segment, binding: (
            (binding[name], 1.0) if name in binding else None
        )
    if not isinstance(term, ast.AttrFunc):
        return lambda segment, binding: eval_term(term, segment, binding)
    attribute = term.name
    if not term.args:

        def segment_attribute(segment: SegmentMetadata, binding: Binding):
            fact = segment.segment_attribute(attribute)
            return None if fact is None else (fact.value, fact.confidence)

        return segment_attribute
    read = _attribute_reader(attribute)
    holder = term.args[0]
    if isinstance(holder, (ast.ObjectVar, ast.AttrVar)):
        holder_name = holder.name

        def attribute_of_variable(segment: SegmentMetadata, binding: Binding):
            # An unbound holder reads None, which is not a str either.
            object_id = binding.get(holder_name)
            if not isinstance(object_id, str):
                return None
            # × the variable's own confidence 1.0, as eval_term does.
            return read(segment.object(object_id))

        return attribute_of_variable
    holder_of = _term_kernel(holder)

    def attribute_of_term(segment: SegmentMetadata, binding: Binding):
        held = holder_of(segment, binding)
        if held is None:
            return None
        object_id, holder_confidence = held
        if not isinstance(object_id, str):
            return None
        return read(segment.object(object_id), holder_confidence)

    return attribute_of_term


def _attribute_reader(attribute: str) -> Callable[..., _TermValue]:
    """``read(instance, holder_confidence=1.0)``: the instance's
    ``attribute`` as ``(value, confidence × holder_confidence)``, or None
    when the instance is None or lacks it — what
    :meth:`~repro.model.metadata.ObjectInstance.attribute` answers, read
    in place: an explicit ``type`` fact wins over the type slot."""
    if attribute == "type":

        def read_type(
            instance: Optional[ObjectInstance], holder_confidence: float = 1.0
        ) -> _TermValue:
            if instance is None:
                return None
            fact = instance.attributes.get("type")
            if fact is None:
                return instance.type, instance.confidence * holder_confidence
            return fact.value, fact.confidence * holder_confidence

        return read_type

    def read(
        instance: Optional[ObjectInstance], holder_confidence: float = 1.0
    ) -> _TermValue:
        if instance is None:
            return None
        fact = instance.attributes.get(attribute)
        if fact is None:
            return None
        return fact.value, fact.confidence * holder_confidence

    return read


# ---------------------------------------------------------------------------
# object-local ∃ bodies
# ---------------------------------------------------------------------------
def _instance_kernel(node: ast.Formula, name: str) -> Optional[_InstanceKernel]:
    """``node`` as a function of the instance the variable ``name``
    names, or None when ``node`` is not object-local.

    Object-local: ``name`` is read only through ``present(name)`` and
    attribute accesses ``attr(name)``, combined with constants, ``true``,
    ``∧``, ``∨``, ``¬`` and weights.  Such a node reads nothing of the
    segment but the instance (a relationship, a segment attribute,
    another variable, a nested ``∃`` or freeze and ``looks_like`` all
    make it None), and on an id the segment lacks it reads what it
    reads on ``None``.  The closures repeat the binding kernels'
    arithmetic operand for operand, so the floats are theirs.
    """
    if isinstance(node, ast.Truth):
        return lambda instance: 1.0
    if isinstance(node, ast.Present):
        if node.var.name != name:
            return None
        return lambda instance: (
            instance.confidence if instance is not None else 0.0
        )
    if isinstance(node, ast.Compare):
        left_of = _instance_term(node.left, name)
        right_of = _instance_term(node.right, name)
        if left_of is None or right_of is None:
            return None
        holds = _comparator(node.op)

        def compare(instance: Optional[ObjectInstance]) -> float:
            left = left_of(instance)
            right = right_of(instance)
            if left is None or right is None:
                return 0.0
            if holds(left[0], right[0]):
                return left[1] * right[1]
            return 0.0

        return compare
    if isinstance(node, (ast.Weighted, ast.Not)):
        sub = _instance_kernel(node.sub, name)
        if sub is None:
            return None
        if isinstance(node, ast.Weighted):
            weight = node.weight
            return lambda instance: weight * sub(instance)
        maximum = max_similarity(node.sub)
        return lambda instance: maximum - sub(instance)
    if isinstance(node, (ast.And, ast.Or)):
        left = _instance_kernel(node.left, name)
        right = _instance_kernel(node.right, name)
        if left is None or right is None:
            return None
        if isinstance(node, ast.And):
            return lambda instance: left(instance) + right(instance)
        return lambda instance: max(left(instance), right(instance))
    return None


def _instance_term(
    term: ast.Term, name: str
) -> Optional[Callable[[Optional[ObjectInstance]], _TermValue]]:
    """A comparison operand of an object-local node as a function of the
    instance — a constant or ``attr(name)`` — or None."""
    if isinstance(term, ast.Const):
        constant = (term.value, 1.0)
        return lambda instance: constant
    if (
        isinstance(term, ast.AttrFunc)
        and term.args
        and isinstance(term.args[0], (ast.ObjectVar, ast.AttrVar))
        and term.args[0].name == name
    ):
        return _attribute_reader(term.name)
    return None
