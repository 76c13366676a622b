"""Abstract syntax of HTL — Hierarchical Temporal Logic (paper §2.2).

Terms
-----
* :class:`ObjectVar` — object variables, ranging over object ids;
* :class:`AttrVar` — attribute variables, bound by the freeze operator;
* :class:`Const` — string / integer / float constants;
* :class:`AttrFunc` — attribute access: ``height(x)`` on an object, or a
  0-argument segment attribute such as ``type`` ("the video is a western").

Formulas
--------
Atomic: :class:`Present`, :class:`Compare`, :class:`Rel` (k-ary predicate
symbols over the meta-data), :class:`AtomicRef` (a named atomic predicate
whose similarity table is produced externally, the form the paper's
experiments feed in), :class:`Truth`, and :class:`Weighted` (per-condition
weight annotation used by the picture-retrieval scoring).

Connectives and operators: ``∧``/``∨``/``¬``; temporal ``next``, ``until``,
``eventually`` (plus ``always`` as the documented extension); the freeze
quantifier ``[y ← q]``; first-order ``∃``; and the level modal operators
``at-next-level``, ``at-level-i`` and the named-level forms.

All nodes are frozen dataclasses, so formulas are hashable values with
structural equality — convenient both for memoising sub-results and for the
round-trip property tests on the parser.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple, Union

from repro.errors import HTLTypeError

# ---------------------------------------------------------------------------
# terms
# ---------------------------------------------------------------------------


class Term:
    """Base class of HTL terms (expressions)."""

    __slots__ = ()


@dataclass(frozen=True)
class ObjectVar(Term):
    """An object variable, ranging over object ids."""

    name: str


@dataclass(frozen=True)
class AttrVar(Term):
    """An attribute variable, bound by the freeze operator ``[y ← q]``."""

    name: str


@dataclass(frozen=True)
class Const(Term):
    """A literal constant: string, int or float."""

    value: Union[str, int, float]


@dataclass(frozen=True)
class AttrFunc(Term):
    """Attribute access ``q(args)``.

    ``AttrFunc('height', (ObjectVar('x'),))`` is the height of object ``x``
    in the current segment; ``AttrFunc('type', ())`` is the segment-level
    attribute ``type``.
    """

    name: str
    args: Tuple[Term, ...] = ()

    def __post_init__(self) -> None:
        for arg in self.args:
            if not isinstance(arg, Term):
                raise HTLTypeError(
                    f"attribute-function argument must be a Term, got {arg!r}"
                )


COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


class Formula:
    """Base class of HTL formulas."""

    __slots__ = ()

    def children(self) -> Iterator["Formula"]:
        """Immediate subformulas (none for atomic formulas)."""
        return iter(())

    def walk(self) -> Iterator["Formula"]:
        """This formula and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


# -- atomic -----------------------------------------------------------------


@dataclass(frozen=True)
class Truth(Formula):
    """The formula ``true`` (always exactly satisfied)."""


@dataclass(frozen=True)
class Present(Formula):
    """``present(x)``: object ``x`` appears in the video segment."""

    var: ObjectVar

    def __post_init__(self) -> None:
        if not isinstance(self.var, ObjectVar):
            raise HTLTypeError(
                f"present() takes an object variable, got {self.var!r}"
            )


@dataclass(frozen=True)
class Compare(Formula):
    """A comparison predicate ``left OP right`` over terms."""

    op: str
    left: Term
    right: Term

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise HTLTypeError(f"unknown comparison operator {self.op!r}")
        if not isinstance(self.left, Term) or not isinstance(self.right, Term):
            raise HTLTypeError("comparison operands must be Terms")


@dataclass(frozen=True)
class Rel(Formula):
    """A k-ary relationship predicate, e.g. ``fires_at(x, y)``."""

    name: str
    args: Tuple[Term, ...]

    def __post_init__(self) -> None:
        if not self.args:
            raise HTLTypeError(
                f"relationship {self.name!r} needs at least one argument; "
                "use a segment attribute comparison for 0-ary properties"
            )
        for arg in self.args:
            if not isinstance(arg, Term):
                raise HTLTypeError(
                    f"relationship argument must be a Term, got {arg!r}"
                )


@dataclass(frozen=True)
class AtomicRef(Formula):
    """Reference to an externally supplied atomic predicate.

    The paper's experiments pose atomic predicates ("Moving-Train",
    "Man-Woman") to the picture-retrieval system and feed the resulting
    similarity tables into the video-retrieval system; an :class:`AtomicRef`
    is the hook for exactly that flow.
    """

    name: str


@dataclass(frozen=True)
class LooksLike(Formula):
    """Content-signature predicate ``looks_like('clip', θ)`` (DESIGN.md §16).

    The segment *looks like* a query clip: its content signature (the
    shot-averaged colour histogram attached by the analyzer) matches one
    of the clip's signature windows with similarity ≥ ``theta``.  The
    score is the best per-window similarity when it clears the threshold
    and 0 otherwise, so the atom drops into the similarity-list algebra
    like any other closed atomic formula.

    ``clip`` holds the query's signature windows inline — resolved
    formulas are self-contained values, hashable and structurally
    memoizable like every other node.  The surface syntax references a
    clip by name only; parsing yields an *unresolved* atom (empty
    ``clip``) that :func:`repro.pictures.signature.resolve_clips` must
    rewrite before evaluation.
    """

    theta: float
    clip: Tuple[Tuple[float, ...], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.theta, (int, float)) or isinstance(
            self.theta, bool
        ):
            raise HTLTypeError(
                f"looks_like threshold must be a number, got {self.theta!r}"
            )
        if not 0.0 <= self.theta <= 1.0:
            raise HTLTypeError(
                f"looks_like threshold must be in [0, 1], got {self.theta}"
            )
        if not self.clip and not self.name:
            raise HTLTypeError(
                "looks_like needs a clip: signature windows or a clip name"
            )
        for window in self.clip:
            if not isinstance(window, tuple) or not window:
                raise HTLTypeError(
                    f"clip windows must be non-empty tuples, got {window!r}"
                )

    @property
    def resolved(self) -> bool:
        """Does the atom carry its clip windows inline?"""
        return bool(self.clip)


@dataclass(frozen=True)
class Weighted(Formula):
    """Weight annotation on a non-temporal condition (picture scoring)."""

    weight: float
    sub: Formula

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise HTLTypeError(f"weight must be positive, got {self.weight}")

    def children(self) -> Iterator[Formula]:
        yield self.sub


# -- propositional ------------------------------------------------------------


@dataclass(frozen=True)
class And(Formula):
    """Conjunction ``left ∧ right``."""

    left: Formula
    right: Formula

    def children(self) -> Iterator[Formula]:
        yield self.left
        yield self.right


@dataclass(frozen=True)
class Or(Formula):
    """Disjunction ``left ∨ right`` (supported inside atomic subformulas)."""

    left: Formula
    right: Formula

    def children(self) -> Iterator[Formula]:
        yield self.left
        yield self.right


@dataclass(frozen=True)
class Not(Formula):
    """Negation ``¬ sub`` (supported inside atomic subformulas)."""

    sub: Formula

    def children(self) -> Iterator[Formula]:
        yield self.sub


# -- temporal -----------------------------------------------------------------


@dataclass(frozen=True)
class Next(Formula):
    """``next sub``: sub holds at the immediately following segment."""

    sub: Formula

    def children(self) -> Iterator[Formula]:
        yield self.sub


@dataclass(frozen=True)
class Until(Formula):
    """``left until right`` with the classical (reflexive) semantics."""

    left: Formula
    right: Formula

    def children(self) -> Iterator[Formula]:
        yield self.left
        yield self.right


@dataclass(frozen=True)
class Eventually(Formula):
    """``eventually sub`` ≡ ``true until sub``."""

    sub: Formula

    def children(self) -> Iterator[Formula]:
        yield self.sub


@dataclass(frozen=True)
class Always(Formula):
    """``always sub`` — extension beyond the paper (DESIGN.md §2)."""

    sub: Formula

    def children(self) -> Iterator[Formula]:
        yield self.sub


# -- binders ------------------------------------------------------------------


@dataclass(frozen=True)
class Exists(Formula):
    """``∃ vars . sub`` over object variables."""

    vars: Tuple[str, ...]
    sub: Formula

    def __post_init__(self) -> None:
        if not self.vars:
            raise HTLTypeError("exists needs at least one variable")
        if len(set(self.vars)) != len(self.vars):
            raise HTLTypeError(f"duplicate variables in exists: {self.vars}")

    def children(self) -> Iterator[Formula]:
        yield self.sub


@dataclass(frozen=True)
class Freeze(Formula):
    """The assignment (freeze) operator ``[var ← func] sub``.

    Captures the value of attribute function ``func`` at the current segment
    into attribute variable ``var`` for use in later segments.
    """

    var: str
    func: AttrFunc
    sub: Formula

    def __post_init__(self) -> None:
        if not isinstance(self.func, AttrFunc):
            raise HTLTypeError(
                f"freeze captures an attribute function, got {self.func!r}"
            )

    def children(self) -> Iterator[Formula]:
        yield self.sub


# -- level modal --------------------------------------------------------------


@dataclass(frozen=True)
class AtNextLevel(Formula):
    """``at-next-level(sub)``: sub holds at the first child segment."""

    sub: Formula

    def children(self) -> Iterator[Formula]:
        yield self.sub


@dataclass(frozen=True)
class AtLevel(Formula):
    """``at-level-i(sub)``: sub holds at the first level-``i`` descendant."""

    level: int
    sub: Formula

    def __post_init__(self) -> None:
        if self.level < 1:
            raise HTLTypeError(f"levels are 1-based, got {self.level}")

    def children(self) -> Iterator[Formula]:
        yield self.sub


@dataclass(frozen=True)
class AtNamedLevel(Formula):
    """``at-scene-level`` / ``at-shot-level`` / ``at-frame-level`` etc.

    The name is resolved against the video hierarchy's level names at
    evaluation time.
    """

    level_name: str
    sub: Formula

    def children(self) -> Iterator[Formula]:
        yield self.sub


LEVEL_OPERATORS = (AtNextLevel, AtLevel, AtNamedLevel)
TEMPORAL_OPERATORS = (Next, Until, Eventually, Always)


# ---------------------------------------------------------------------------
# structural cache keys
# ---------------------------------------------------------------------------
#: Instance-dict slot memoising a node's structural key.  Like the clip
#: scorer's slot (:mod:`repro.pictures.signature`) it is outside the
#: dataclass fields, so ``==``, ``hash`` and ``dataclasses.replace`` never
#: see it, and it lives exactly as long as its node.
_KEY_SLOT = "_structural_key"


def _key_parts(value: object, out: List[str]) -> None:
    if isinstance(value, (Term, Formula)):
        out.append(structural_key(value))
    elif isinstance(value, tuple):
        out.append("[")
        for item in value:
            _key_parts(item, out)
            out.append(",")
        out.append("]")
    else:
        out.append(repr(value))


def structural_key(node: Union[Formula, Term]) -> str:
    """A stable structural cache key for a formula or term.

    Two nodes have equal keys iff they are structurally equal, and the key
    is a deterministic string (unlike ``hash``, which is salted per process
    for the string fields), so it can serve as a memoization key that
    survives serialization.  Each node memoises its own key, built from
    its children's, so repeated keying of a subformula is O(1) and no
    module-level table keeps a request's formula alive.
    """
    slots = vars(node)
    key = slots.get(_KEY_SLOT)
    if key is None:
        parts = [type(node).__name__, "("]
        for spec in dataclasses.fields(node):
            _key_parts(getattr(node, spec.name), parts)
            parts.append(",")
        parts.append(")")
        # setdefault is atomic: racing threads end up sharing one key.
        key = slots.setdefault(_KEY_SLOT, "".join(parts))
    return key


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------
def conj(*formulas: Formula) -> Formula:
    """Left-associated conjunction of one or more formulas."""
    if not formulas:
        raise HTLTypeError("conj needs at least one formula")
    result = formulas[0]
    for formula in formulas[1:]:
        result = And(result, formula)
    return result


def obj(name: str) -> ObjectVar:
    """Shorthand object-variable constructor."""
    return ObjectVar(name)


def attr(name: str, *args: Term) -> AttrFunc:
    """Shorthand attribute-function constructor."""
    return AttrFunc(name, tuple(args))


def eq(left: Term, right: Term) -> Compare:
    """Shorthand equality comparison."""
    return Compare("=", left, right)
