"""Cost-based query planning over metadata-index statistics.

The engine's structural recursion evaluates conjunctions and joins in the
order the query was written.  That leaves cheap wins on the table once
the :class:`~repro.pictures.index.MetadataIndex` exists: posting-list
lengths and ∃-pool sizes predict which subformula is cheap and which is
selective *before* anything is scored — the paper's own §4 direction (its
SQL baseline gets a real optimizer) and the algorithmic program of
Sistla's follow-up on sequence databases.

The planner compiles an (engine-)formula into a :class:`QueryPlan`:

* **join order** — for every ∧ / until node the plan records which side to
  evaluate first, minimising ``cost(first) + sel(first) × cost(second)``.
  Under the paper's inner join a row-free operand annihilates the join, so
  the engine can skip the second operand outright (substituting a zero-row
  *schema table* with the same columns and maximum — provably the same
  output, see DESIGN.md §13); evaluating the most selective side first
  maximises how often that happens.  The plan never rewrites the formula:
  conjunct *grouping* is semantically significant under the inner join, so
  ordering decisions are per-node evaluation orders, not tree rebuilds.
* **per-atom visits** — the (binding, segment) pairs the atom's table
  build will touch: ``bindings × candidates`` when the representative
  binding's support probe is bounded, ``bindings × segments`` when the
  picture layer's density rule routes it to the naive scan.  The plan
  does not choose the path; the picture layer routes each binding.
* **plan caching** — plans are cached in a
  :class:`~repro.core.cache.PlanCache` keyed by the formula's structural
  key, the level, the engine config and the index's *statistics
  signature*.  Two videos (or shards) whose indices summarise identically
  share one plan, so multi-video top-k plans once per distinct index
  shape; a video's database stamp retires its plans on mutation.

A plan is a pure function of that key: costs are counted work (formula
shape, posting-list lengths, pool sizes — the paper's own §3/§4 pricing),
never wall-clock, so plan choice and every counter downstream of it
repeat exactly under a seed (DESIGN.md §13, *Why there is no feedback
loop*).

The module is engine-agnostic: it imports the picture layer and the cache
but never :mod:`repro.core.engine` (the engine imports *it*).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core import trace
from repro.core.cache import PlanCache
from repro.core.simlist import SIM_EPS
from repro.core.tables import INNER
from repro.htl import ast
from repro.htl.classify import is_non_temporal
from repro.htl.pretty import clip, pretty
from repro.htl.variables import free_attr_vars, free_object_vars, is_closed
from repro.model.metadata import SegmentMetadata
from repro.pictures.scoring import FRESH_OBJECT_ID, exists_pool, score

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pictures.retrieval import PictureRetrievalSystem

#: Span counter names.  ``trace.bump`` attaches them to the calling
#: thread's innermost span only (read them with ``Span.total_counters()``
#: on a profiled query); unlike ``METRICS.count`` they never reach
#: ``trace.METRICS.counters()``, and with tracing off they cost nothing.
PLAN_BUILT = "plan-built"
PLAN_CACHE_HIT = "plan-cache-hit"
PLAN_CACHE_MISS = "plan-cache-miss"
PLAN_FAILED = "plan-failed"
PLAN_SKIPPED_SUBFORMULA = "plan-subformula-skipped"

#: Plan costs are counted in *visits*: one (binding, segment) pair an atom
#: table build scores or reads from its memo.  The other prices are fixed
#: in the same unit.  One list or table merge step, per segment:
MERGE_VISITS = 0.05
#: Resolving one registered atomic list:
REF_VISITS = 1.0
#: Elementary ranges assumed per free attribute variable:
ATTR_BOXES = 4

#: The representative empty segment baselines are probed on.
_EMPTY_SEGMENT = SegmentMetadata()


def has_picture_atoms(formula: ast.Formula) -> bool:
    """Does evaluating the formula build any picture-system atom table?

    Pure :class:`~repro.htl.ast.AtomicRef` formulas (registered similarity
    lists) have nothing for the planner to estimate or reorder by
    statistics — building an index signature for them would be pure
    overhead — so the engine skips planning entirely for those.
    """
    if isinstance(formula, ast.AtomicRef):
        return False
    if is_non_temporal(formula):
        if not _refers(formula):
            return True
        if isinstance(formula, ast.And):
            return has_picture_atoms(formula.left) or has_picture_atoms(
                formula.right
            )
        return False
    return any(has_picture_atoms(child) for child in formula.children())


#: Node slot memoising :func:`_has_open_join` (see ``ast.node_fact``).
_OPEN_JOIN_SLOT = "_open_join"


def can_short_circuit(formula: ast.Formula, join_mode: str) -> bool:
    """Can a plan change how the engine evaluates this formula?

    A plan decides two things (DESIGN.md §13): which operand of each
    ∧ / until the engine evaluates first, and — under the inner join —
    skipping the second when the first has no rows.  Order alone never
    changes a result, so a plan saves work only where a joined operand
    may come back with no rows.  True only under the inner join when
    some ∧ / until the engine joins has such an operand; anything
    :func:`_keeps_rows` cannot certify counts as "may".  The structural
    part is memoised on the node.
    """
    return join_mode == INNER and ast.node_fact(
        formula, _OPEN_JOIN_SLOT, _has_open_join
    )


def _has_open_join(formula: ast.Formula) -> bool:
    """Does some ∧ / until the engine's ``_join_operands`` evaluates have
    an operand that may come back with no rows?"""
    if is_non_temporal(formula):
        # A picture atom is one table build: no join inside.  Registered
        # lists are joined only through ∧, which the engine evaluates.
        if not isinstance(formula, ast.And) or not _refers(formula):
            return False
    if isinstance(formula, (ast.And, ast.Until)) and not (
        _keeps_rows(formula.left) and _keeps_rows(formula.right)
    ):
        return True
    return any(_has_open_join(child) for child in formula.children())


def _keeps_rows(formula: ast.Formula) -> bool:
    """Does the formula's table always hold at least one row?

    True for a registered list (``SimilarityTable.closed``), a closed
    picture atom (the table build keeps its one row even at similarity
    zero) and ``next`` / ``eventually`` / ``always`` over either
    (``map_lists`` keeps every row).
    """
    while isinstance(formula, (ast.Next, ast.Eventually, ast.Always)):
        formula = formula.sub
    if isinstance(formula, ast.AtomicRef):
        return True
    return (
        is_non_temporal(formula) and is_closed(formula) and not _refers(formula)
    )


def _refers(formula: ast.Formula) -> bool:
    """Does the formula contain a registered-list reference?"""
    return any(isinstance(node, ast.AtomicRef) for node in formula.walk())


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Statistics:
    """The index numbers one plan is built from, with a hashable signature.

    The signature summarises the index *shape* (segment/profile counts,
    pool size, per-family posting-list length distribution), not its
    contents: two videos that summarise identically share plan-cache
    entries.  A collision costs nothing but estimate accuracy — plans
    never change results.
    """

    n_segments: int
    signature: Tuple[Any, ...]

    @classmethod
    def from_pictures(cls, pictures: "PictureRetrievalSystem") -> "Statistics":
        raw = pictures.index.stats()
        families = tuple(
            (
                name,
                entry["keys"],
                entry["entries"],
                entry["lengths"]["p50"],
                entry["lengths"]["max"],
            )
            for name, entry in sorted(raw["postings"].items())
        )
        pools = raw["pools"]
        signature = (
            "stats",
            raw["n_segments"],
            raw["n_profiles"],
            pools["universe"],
            pools["any_object_segments"],
            pools.get("signature_segments", 0),
            families,
        )
        return cls(n_segments=raw["n_segments"], signature=signature)


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class NodeEstimate:
    """Estimated evaluation cost (visits) and row selectivity of a node.

    ``selectivity`` estimates the probability the node's table has any
    row at all — the quantity inner-join short-circuits care about — so
    unary temporal operators preserve it and ∧ multiplies it.
    """

    cost: float
    selectivity: float


@dataclass(frozen=True)
class AtomChoice:
    """The counted work of one picture atom.

    ``visits`` is ``bindings × candidates`` for a bounded probe and
    ``bindings × segments`` for a routed one — for a closed atom exactly
    the table build's ``candidate_segments + segments ×
    unbounded_bindings``.
    """

    description: str
    bindings: int
    #: ``None`` when the probe was routed to the naive scan.
    candidates: Optional[int]
    visits: int
    selectivity: float


@dataclass(frozen=True, eq=False)
class QueryPlan:
    """A compiled evaluation plan for one (formula, index-shape, config).

    An immutable value: worker threads share one cached plan with no
    lock.  Plans compare by identity (``eq=False``) — the cache key, not
    the plan, is what equality of plans means.
    """

    key: Hashable
    formula: ast.Formula
    signature: Tuple[Any, ...]
    level: int
    swapped: FrozenSet[str]
    nodes: Mapping[str, NodeEstimate]
    atoms: Mapping[str, AtomChoice]
    estimated_cost: float

    # -- engine hooks ---------------------------------------------------
    def atom_use_index(self, key: str) -> Optional[bool]:
        """Always ``None``: a plan makes no indexed-vs-naive decision.

        The picture layer's density rule routes each binding
        (DESIGN.md §7).  Kept so callers written against the old
        per-atom choice read "no decision" and keep the default path.
        """
        return None

    def right_first(self, formula: ast.Formula) -> bool:
        """Should the engine evaluate this join's right operand first?"""
        return ast.structural_key(formula) in self.swapped

    # -- rendering ------------------------------------------------------
    def describe(self) -> str:
        """Human-readable plan: tree with order/visits/cost annotations."""
        lines: List[str] = []
        self._describe(self.formula, 0, lines)
        lines.append(f"estimated cost: {self.estimated_cost:.1f} visits")
        return "\n".join(lines)

    def _describe(
        self, formula: ast.Formula, depth: int, lines: List[str]
    ) -> None:
        from repro.core.explain import describe_node

        key = ast.structural_key(formula)
        notes: List[str] = []
        estimate = self.nodes.get(key)
        if estimate is not None:
            notes.append(
                f"cost {estimate.cost:.1f}, sel {estimate.selectivity:.2f}"
            )
        choice = self.atoms.get(key)
        if choice is not None:
            per_binding = (
                "routed to the naive scan"
                if choice.candidates is None
                else f"candidates {choice.candidates}"
            )
            notes.append(
                f"visits {choice.visits}: bindings {choice.bindings}, "
                + per_binding
            )
        if isinstance(formula, (ast.And, ast.Until)):
            notes.append(
                "evaluate right first"
                if key in self.swapped
                else "evaluate left first"
            )
        suffix = f"  [{'; '.join(notes)}]" if notes else ""
        lines.append("  " * depth + describe_node(formula) + suffix)
        if choice is None:
            for child in formula.children():
                self._describe(child, depth + 1, lines)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe document of the plan (the CLI's ``--json`` form)."""
        return {
            "estimated_cost": self.estimated_cost,
            "level": self.level,
            "signature": repr(self.signature),
            "tree": self._node_doc(self.formula),
        }

    def _node_doc(self, formula: ast.Formula) -> Dict[str, Any]:
        from repro.core.explain import describe_node

        key = ast.structural_key(formula)
        doc: Dict[str, Any] = {"node": describe_node(formula)}
        estimate = self.nodes.get(key)
        if estimate is not None:
            doc["cost"] = estimate.cost
            doc["selectivity"] = estimate.selectivity
        choice = self.atoms.get(key)
        if choice is not None:
            doc["visits"] = choice.visits
            doc["bindings"] = choice.bindings
            doc["candidates"] = choice.candidates
        if isinstance(formula, (ast.And, ast.Until)):
            doc["order"] = (
                "right-first" if key in self.swapped else "left-first"
            )
        if choice is None:
            children = [self._node_doc(child) for child in formula.children()]
            if children:
                doc["children"] = children
        return doc


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PlannerStats:
    """A snapshot of the planner's work counters."""

    plans_built: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    support_probes: int = 0
    skipped_subformulas: int = 0


class Planner:
    """Builds and caches query plans.

    Thread-safe: one planner may serve engines on several threads.
    """

    def __init__(self, cache: Optional[PlanCache] = None):
        self.cache = cache if cache is not None else PlanCache()
        self._lock = threading.Lock()
        self._plans_built = 0
        self._cache_hits = 0
        self._cache_misses = 0
        self._support_probes = 0
        self._skipped = 0

    # -- introspection --------------------------------------------------
    @property
    def stats(self) -> PlannerStats:
        with self._lock:
            return PlannerStats(
                plans_built=self._plans_built,
                cache_hits=self._cache_hits,
                cache_misses=self._cache_misses,
                support_probes=self._support_probes,
                skipped_subformulas=self._skipped,
            )

    def record_skip(self) -> None:
        """The engine short-circuited one join operand under this planner."""
        with self._lock:
            self._skipped += 1
        trace.bump(PLAN_SKIPPED_SUBFORMULA)

    # -- planning -------------------------------------------------------
    def plan_for(
        self,
        formula: ast.Formula,
        pictures: "PictureRetrievalSystem",
        level: int,
        config: Hashable,
        generation: Optional[int] = None,
        video: Optional[str] = None,
    ) -> QueryPlan:
        """The cached plan for one (formula, index, level, config).

        ``generation`` is a mutation counter that keeps the plan cache
        coherent across index rebuilds.  With ``video`` it is the owning
        video's per-video stamp and only that video's tagged plans retire
        on a change (:meth:`PlanCache.sync_video`); without it, any change
        drops every plan.
        """
        if generation is not None:
            if video is not None:
                self.cache.sync_video(video, generation)
            else:
                self.cache.sync(generation)
        stats = Statistics.from_pictures(pictures)
        key = ("plan", ast.structural_key(formula), level, config, stats.signature)
        cached = self.cache.get(key)
        if cached is not None:
            with self._lock:
                self._cache_hits += 1
            trace.bump(PLAN_CACHE_HIT)
            return cached
        with self._lock:
            self._cache_misses += 1
        trace.bump(PLAN_CACHE_MISS)
        plan = self._build(formula, pictures, stats, level, config, key)
        self.cache.put(key, plan, video=video)
        return plan

    def _build(
        self,
        formula: ast.Formula,
        pictures: "PictureRetrievalSystem",
        stats: Statistics,
        level: int,
        config: Hashable,
        key: Hashable,
    ) -> QueryPlan:
        builder = _PlanBuilder(pictures, stats, config)
        total = builder.estimate(formula)
        with self._lock:
            self._plans_built += 1
            self._support_probes += builder.probes
        trace.bump(PLAN_BUILT)
        return QueryPlan(
            key=key,
            formula=formula,
            signature=stats.signature,
            level=level,
            swapped=frozenset(builder.swapped),
            nodes=builder.nodes,
            atoms=builder.atoms,
            estimated_cost=total.cost,
        )


# ---------------------------------------------------------------------------
# plan construction
# ---------------------------------------------------------------------------
class _PlanBuilder:
    """One plan construction: walks the formula mirroring engine dispatch."""

    def __init__(
        self,
        pictures: "PictureRetrievalSystem",
        stats: Statistics,
        config: Any,
    ):
        self.pictures = pictures
        self.stats = stats
        self.config = config
        self.pool: List[str] = exists_pool(pictures.universe)
        self.swapped: Set[str] = set()
        self.nodes: Dict[str, NodeEstimate] = {}
        self.atoms: Dict[str, AtomChoice] = {}
        self.probes = 0
        self._inner = getattr(config, "join_mode", INNER) == INNER
        #: One merge step over the sequence.
        self._merge = MERGE_VISITS * max(1, stats.n_segments)

    def estimate(self, formula: ast.Formula) -> NodeEstimate:
        key = ast.structural_key(formula)
        cached = self.nodes.get(key)
        if cached is not None:
            return cached
        result = self._estimate(formula)
        self.nodes[key] = result
        return result

    def _estimate(self, formula: ast.Formula) -> NodeEstimate:
        if isinstance(formula, ast.AtomicRef):
            # Registered list lookup; row-free only when unregistered
            # (which raises anyway), so selectivity 1.
            return NodeEstimate(REF_VISITS, 1.0)
        if is_non_temporal(formula):
            if _refers(formula):
                if isinstance(formula, ast.And):
                    return self._join(formula)
                # The engine rejects refs under anything but ∧; cost moot.
                return NodeEstimate(REF_VISITS, 1.0)
            return self._atom(formula)
        if isinstance(formula, (ast.And, ast.Until)):
            return self._join(formula)
        if isinstance(formula, ast.Or):
            left = self.estimate(formula.left)
            right = self.estimate(formula.right)
            sel = min(
                1.0,
                left.selectivity
                + right.selectivity
                - left.selectivity * right.selectivity,
            )
            return NodeEstimate(left.cost + right.cost + self._merge, sel)
        if isinstance(
            formula,
            (ast.Next, ast.Eventually, ast.Always, ast.Exists, ast.Freeze),
        ):
            # Unary operators transform rows in place: a row-free input
            # stays row-free and vice versa, so selectivity is preserved.
            sub = self.estimate(formula.sub)
            return NodeEstimate(sub.cost + self._merge, sub.selectivity)
        if isinstance(formula, ast.LEVEL_OPERATORS):
            # One descent per outer node; statistics describe the outer
            # level, so this is a deliberately crude upper-ish bound.
            sub = self.estimate(formula.sub)
            return NodeEstimate(
                sub.cost * max(1, self.stats.n_segments), sub.selectivity
            )
        return NodeEstimate(self._merge, 1.0)

    def _join(self, formula: ast.Formula) -> NodeEstimate:
        left = self.estimate(formula.left)
        right = self.estimate(formula.right)
        if self._inner:
            # Expected cost of each evaluation order: the second operand
            # runs only when the first produced rows (otherwise the
            # inner join is decided and the engine skips it).
            left_first = left.cost + left.selectivity * right.cost
            right_first = right.cost + right.selectivity * left.cost
            if right_first < left_first:
                self.swapped.add(ast.structural_key(formula))
            cost = min(left_first, right_first) + self._merge
        else:
            # Outer joins always evaluate both sides; order is moot.
            cost = left.cost + right.cost + self._merge
        return NodeEstimate(cost, left.selectivity * right.selectivity)

    # -- atoms ----------------------------------------------------------
    def _atom(self, atom: ast.Formula) -> NodeEstimate:
        object_vars = sorted(free_object_vars(atom))
        typed_pool = self._typed_candidates(atom, object_vars)
        bindings = ATTR_BOXES ** len(free_attr_vars(atom))
        for name in object_vars:
            bindings *= len(typed_pool[name])
        representative = self._representative_binding(object_vars, typed_pool)
        candidates = self._probe_candidates(atom, representative)
        # A swept binding visits its candidates; a routed one (unbounded
        # or dense) is scanned over every segment.
        per_binding = self.stats.n_segments if candidates is None else candidates
        visits = bindings * per_binding
        selectivity = self._atom_selectivity(
            atom, representative, object_vars, candidates
        )
        self.atoms[ast.structural_key(atom)] = AtomChoice(
            description=clip(pretty(atom), 60),
            bindings=bindings,
            candidates=candidates,
            visits=visits,
            selectivity=selectivity,
        )
        return NodeEstimate(visits, selectivity)

    def _typed_candidates(
        self, atom: ast.Formula, object_vars: Sequence[str]
    ) -> Dict[str, List[str]]:
        """Per-variable pool narrowing from *required* type constraints.

        The conjunctive skeleton of the atom is walked (∧ / weight /
        freeze only — a ``type(x) = 'T'`` under ¬ or ∨ does not bound
        ``x``) and each equality against a type constant intersects that
        variable's pool with :meth:`MetadataIndex.object_ids_of_type`.
        This is an *estimate* input only: the runtime pool is never
        narrowed here, so an over-eager cut can at worst misorder a
        join, never change a result.
        """
        candidates = {name: list(self.pool) for name in object_vars}
        if not object_vars:
            return candidates
        index = self.pictures.index
        stack = [atom]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.And):
                stack.append(node.left)
                stack.append(node.right)
            elif isinstance(node, (ast.Weighted, ast.Freeze)):
                stack.append(node.sub)
            elif (
                isinstance(node, ast.Compare)
                and node.op == "="
                and isinstance(node.left, ast.AttrFunc)
                and node.left.name == "type"
                and len(node.left.args) == 1
                and isinstance(node.left.args[0], ast.ObjectVar)
                and isinstance(node.right, ast.Const)
                and isinstance(node.right.value, str)
            ):
                name = node.left.args[0].name
                if name in candidates:
                    typed = set(index.object_ids_of_type(node.right.value))
                    candidates[name] = [
                        object_id
                        for object_id in candidates[name]
                        if object_id in typed
                    ]
        return candidates

    def _representative_binding(
        self,
        object_vars: Sequence[str],
        typed_pool: Dict[str, List[str]],
    ) -> Dict[str, Any]:
        """Bind every free variable to its most widely-present pool id.

        The widest presence posting over-covers most other assignments,
        making the probed candidate count a representative (slightly
        pessimistic) per-binding estimate.  Variables are drawn from
        their type-narrowed pools so a rare-typed variable probes a
        rare object, not the corpus-wide most common one.
        """
        if not object_vars:
            return {}
        index = self.pictures.index
        binding: Dict[str, Any] = {}
        for name in object_vars:
            best: Optional[Tuple[str, int]] = None
            for object_id in typed_pool.get(name, self.pool):
                if object_id == FRESH_OBJECT_ID:
                    continue
                length = len(index.segments_with_object(object_id))
                if best is None or length > best[1]:
                    best = (object_id, length)
            binding[name] = best[0] if best is not None else FRESH_OBJECT_ID
        return binding

    def _probe_candidates(
        self, atom: ast.Formula, binding: Dict[str, Any]
    ) -> Optional[int]:
        """Candidate-set size under the representative binding (None:
        the indexed path would route it to the naive scan)."""
        self.probes += 1
        try:
            candidates = self.pictures.atom_support(
                atom, binding, self.pool, charge=False
            )
        except Exception:
            return None
        return None if candidates is None else len(candidates)

    def _atom_selectivity(
        self,
        atom: ast.Formula,
        binding: Dict[str, Any],
        object_vars: Sequence[str],
        candidates: Optional[int],
    ) -> float:
        if not object_vars:
            # Closed atoms keep their single row even at similarity zero.
            return 1.0
        if candidates is None:
            return 1.0
        try:
            baseline = score(
                atom, _EMPTY_SEGMENT, binding, self.pool, narrow=True
            )
        except Exception:
            return 1.0
        if baseline > SIM_EPS:
            # A nonzero baseline (¬ / ∨ atoms) makes every binding's list
            # nonempty: the table always has rows.
            return 1.0
        if not self.stats.n_segments:
            return 0.0
        return min(1.0, candidates / self.stats.n_segments)
