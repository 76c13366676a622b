"""Naive reference semantics — the definitional evaluator of paper §2.5.

This module computes similarity values exactly as the paper *defines*
them: per segment, by structural recursion, with ``∃`` enumerated over the
object universe and ``until`` scanning the future of the sequence.  It is
deliberately simple and slow — its purpose is to be an *oracle* against
which the interval-list algorithms of :mod:`repro.core.ops` and the table
machinery of :mod:`repro.core.engine` are cross-checked.

Conventions pinned down where the paper is silent (mirrored by the
engine, see DESIGN.md):

* ``until`` uses the threshold on the *fractional* similarity of the left
  operand, applied at every segment from the current one up to (not
  including) the witness.
* capturing an undefined attribute with the freeze operator yields actual
  similarity 0 for the whole freeze formula at that segment.
* a level operator applied at a node with no descendants at the target
  level yields actual similarity 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.ops import DEFAULT_UNTIL_THRESHOLD
from repro.core.simlist import SIM_EPS, SimilarityList, SimilarityValue
from repro.errors import UnsupportedFormulaError
from repro.htl import ast
from repro.htl.classify import is_non_temporal
from repro.model.hierarchy import Video, VideoNode
from repro.pictures.scoring import (
    Binding,
    eval_term,
    exists_pool,
    max_similarity,
    score,
)

#: Resolver mapping an atomic-predicate name to its similarity list for the
#: sequence at a given level (None when unregistered).
AtomicResolver = Callable[[str, int], Optional[SimilarityList]]


@dataclass
class ReferenceContext:
    """Everything the definitional evaluator needs about one sequence."""

    nodes: Sequence[VideoNode]
    video: Optional[Video] = None
    level: int = 2
    universe: Sequence[str] = ()
    threshold: float = DEFAULT_UNTIL_THRESHOLD
    atomics: Optional[AtomicResolver] = None

    def segment(self, position: int):
        return self.nodes[position - 1].metadata

    def __len__(self) -> int:
        return len(self.nodes)


def reference_list(
    formula: ast.Formula, context: ReferenceContext, binding: Optional[Binding] = None
) -> SimilarityList:
    """Similarity list of a formula over the whole sequence, naively."""
    binding = binding or {}
    values: Dict[int, float] = {}
    maximum = maximum_similarity(formula, context)
    for position in range(1, len(context) + 1):
        actual, __ = reference_value(formula, context, position, binding)
        if actual > SIM_EPS:
            values[position] = actual
    return SimilarityList.from_segment_values(values, maximum)


def maximum_similarity(
    formula: ast.Formula, context: ReferenceContext
) -> float:
    """The maximum similarity ``m(f)`` — a function of the formula alone
    (plus the registered maxima of externally supplied atomics)."""
    if isinstance(formula, ast.AtomicRef):
        resolved = context.atomics(formula.name, context.level) if context.atomics else None
        if resolved is None:
            raise UnsupportedFormulaError(
                f"atomic predicate {formula.name!r} has no registered list"
            )
        return resolved.maximum
    if is_non_temporal(formula) and not any(
        isinstance(node, ast.AtomicRef) for node in formula.walk()
    ):
        return max_similarity(formula)
    if isinstance(formula, ast.And):
        return maximum_similarity(formula.left, context) + maximum_similarity(
            formula.right, context
        )
    if isinstance(formula, ast.Or):
        return max(
            maximum_similarity(formula.left, context),
            maximum_similarity(formula.right, context),
        )
    if isinstance(formula, ast.Until):
        return maximum_similarity(formula.right, context)
    if isinstance(formula, (ast.Next, ast.Eventually, ast.Always)):
        return maximum_similarity(formula.sub, context)
    if isinstance(formula, (ast.Exists, ast.Freeze)):
        return maximum_similarity(formula.sub, context)
    if isinstance(formula, (ast.AtNextLevel, ast.AtLevel, ast.AtNamedLevel)):
        return maximum_similarity(formula.sub, _descend_probe(formula, context))
    raise UnsupportedFormulaError(
        f"no similarity semantics for {type(formula).__name__} over "
        "temporal subformulas"
    )


def reference_value(
    formula: ast.Formula,
    context: ReferenceContext,
    position: int,
    binding: Binding,
) -> Tuple[float, float]:
    """Similarity value ``(a, m)`` of ``formula`` at one segment."""
    if isinstance(formula, ast.AtomicRef):
        resolved = context.atomics(formula.name, context.level) if context.atomics else None
        if resolved is None:
            raise UnsupportedFormulaError(
                f"atomic predicate {formula.name!r} has no registered list"
            )
        return resolved.actual_at(position), resolved.maximum
    if is_non_temporal(formula):
        if any(isinstance(node, ast.AtomicRef) for node in formula.walk()):
            return _value_with_embedded_atomics(
                formula, context, position, binding
            )
        actual = score(
            formula, context.segment(position), binding, context.universe
        )
        return actual, max_similarity(formula)
    if isinstance(formula, ast.And):
        left_a, left_m = reference_value(formula.left, context, position, binding)
        right_a, right_m = reference_value(
            formula.right, context, position, binding
        )
        return left_a + right_a, left_m + right_m
    if isinstance(formula, ast.Or):
        left_a, left_m = reference_value(formula.left, context, position, binding)
        right_a, right_m = reference_value(
            formula.right, context, position, binding
        )
        return max(left_a, right_a), max(left_m, right_m)
    if isinstance(formula, ast.Next):
        maximum = maximum_similarity(formula.sub, context)
        if position >= len(context):
            return 0.0, maximum
        actual, __ = reference_value(
            formula.sub, context, position + 1, binding
        )
        return actual, maximum
    if isinstance(formula, ast.Until):
        return _until_value(formula, context, position, binding)
    if isinstance(formula, ast.Eventually):
        maximum = maximum_similarity(formula.sub, context)
        best = 0.0
        for later in range(position, len(context) + 1):
            actual, __ = reference_value(formula.sub, context, later, binding)
            best = max(best, actual)
        return best, maximum
    if isinstance(formula, ast.Always):
        maximum = maximum_similarity(formula.sub, context)
        worst = maximum
        for later in range(position, len(context) + 1):
            actual, __ = reference_value(formula.sub, context, later, binding)
            worst = min(worst, actual)
        return worst, maximum
    if isinstance(formula, ast.Exists):
        return _exists_value(formula, context, position, binding)
    if isinstance(formula, ast.Freeze):
        maximum = maximum_similarity(formula.sub, context)
        captured = eval_term(
            formula.func, context.segment(position), binding
        )
        if captured is None:
            return 0.0, maximum
        extended = dict(binding)
        extended[formula.var] = captured[0]
        actual, __ = reference_value(formula.sub, context, position, extended)
        return actual, maximum
    if isinstance(formula, (ast.AtNextLevel, ast.AtLevel, ast.AtNamedLevel)):
        return _level_value(formula, context, position, binding)
    raise UnsupportedFormulaError(
        f"no similarity semantics for {type(formula).__name__} over "
        "temporal subformulas"
    )


# ---------------------------------------------------------------------------
# pieces
# ---------------------------------------------------------------------------
def _until_value(
    formula: ast.Until,
    context: ReferenceContext,
    position: int,
    binding: Binding,
) -> Tuple[float, float]:
    left_maximum = maximum_similarity(formula.left, context)
    maximum = maximum_similarity(formula.right, context)
    best = 0.0
    for witness in range(position, len(context) + 1):
        right_a, __ = reference_value(formula.right, context, witness, binding)
        best = max(best, right_a)
        # To extend the witness past this segment, the left operand must
        # clear the threshold here.
        left_a, __ = reference_value(formula.left, context, witness, binding)
        if left_a / left_maximum + SIM_EPS < context.threshold:
            break
    return best, maximum


def _exists_value(
    formula: ast.Exists,
    context: ReferenceContext,
    position: int,
    binding: Binding,
) -> Tuple[float, float]:
    maximum = maximum_similarity(formula.sub, context)
    pool = exists_pool(context.universe)
    best = 0.0
    for values in itertools.product(pool, repeat=len(formula.vars)):
        extended = dict(binding)
        extended.update(zip(formula.vars, values))
        actual, __ = reference_value(formula.sub, context, position, extended)
        best = max(best, actual)
    return best, maximum


def _level_value(
    formula: Union[ast.AtNextLevel, ast.AtLevel, ast.AtNamedLevel],
    context: ReferenceContext,
    position: int,
    binding: Binding,
) -> Tuple[float, float]:
    node = context.nodes[position - 1]
    target = _target_level(formula, context, node)
    descendants = node.descendants_at_level(target)
    child_context = ReferenceContext(
        nodes=descendants,
        video=context.video,
        level=target,
        universe=context.universe,
        threshold=context.threshold,
        atomics=context.atomics,
    )
    maximum = maximum_similarity(formula.sub, child_context)
    if not descendants:
        return 0.0, maximum
    actual, __ = reference_value(formula.sub, child_context, 1, binding)
    return actual, maximum


def _target_level(
    formula: Union[ast.AtNextLevel, ast.AtLevel, ast.AtNamedLevel],
    context: ReferenceContext,
    node: VideoNode,
) -> int:
    if isinstance(formula, ast.AtNextLevel):
        return node.level + 1
    if isinstance(formula, ast.AtLevel):
        return formula.level
    if context.video is None:
        raise UnsupportedFormulaError(
            f"named level {formula.level_name!r} needs a video for resolution"
        )
    return context.video.level_of(formula.level_name)


def _descend_probe(
    formula: Union[ast.AtNextLevel, ast.AtLevel, ast.AtNamedLevel],
    context: ReferenceContext,
) -> ReferenceContext:
    """A context at the operator's target level, for maxima computation.

    Maxima do not depend on the actual segments, only on the level (for
    nested atomic resolvers), so an empty node list suffices.
    """
    if isinstance(formula, ast.AtNextLevel):
        target = context.level + 1
    elif isinstance(formula, ast.AtLevel):
        target = formula.level
    else:
        if context.video is None:
            raise UnsupportedFormulaError(
                f"named level {formula.level_name!r} needs a video"
            )
        target = context.video.level_of(formula.level_name)
    return ReferenceContext(
        nodes=(),
        video=context.video,
        level=target,
        universe=context.universe,
        threshold=context.threshold,
        atomics=context.atomics,
    )


def _value_with_embedded_atomics(
    formula: ast.Formula,
    context: ReferenceContext,
    position: int,
    binding: Binding,
) -> Tuple[float, float]:
    """Non-temporal conjunctions mixing AtomicRef with metadata predicates."""
    if isinstance(formula, ast.And):
        left_a, left_m = _value_with_embedded_atomics(
            formula.left, context, position, binding
        )
        right_a, right_m = _value_with_embedded_atomics(
            formula.right, context, position, binding
        )
        return left_a + right_a, left_m + right_m
    if not isinstance(formula, ast.AtomicRef) and any(
        isinstance(node, ast.AtomicRef) for node in formula.walk()
    ):
        raise UnsupportedFormulaError(
            "atomic references may only be combined with other conditions "
            f"through conjunction, found one under {type(formula).__name__}"
        )
    return reference_value(formula, context, position, binding)


def value_at(
    formula: ast.Formula,
    context: ReferenceContext,
    position: int,
) -> SimilarityValue:
    """Similarity value of a closed formula at one segment."""
    actual, maximum = reference_value(formula, context, position, {})
    return SimilarityValue(actual, maximum)
