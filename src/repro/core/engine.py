"""The video retrieval engine — the paper's "similarity list generator".

Given an HTL query (an extended conjunctive formula), a video and the level
at which the query is asserted, the engine computes the query's similarity
list by structural recursion, combining the similarity tables of the
atomic subformulas with the list algorithms of :mod:`repro.core.ops`, the
table joins of :mod:`repro.core.tables`, the freeze joins of
:mod:`repro.core.value_tables`, and recursive descent for the level modal
operators (paper §3, extended to >2-level hierarchies as sketched there).

Two evaluation modes (DESIGN.md §2):

* ``join_mode="inner"`` (default) — the paper's §3.2 algorithm verbatim.
* ``join_mode="outer"`` — definitional-semantics mode, matching
  :mod:`repro.core.semantics` exactly on supported formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.core import extensions, ops, planner as planning, resilience, trace
from repro.core.cache import ClipMemo, ListKey, ListMemo
from repro.core.explain import describe_node
from repro.core.simlist import SimilarityList, SimilarityValue
from repro.core.tables import INNER, OUTER, SimilarityTable, TableRow
from repro.core.value_tables import build_value_table, freeze_join
from repro.errors import (
    BudgetExceededError,
    HTLTypeError,
    UnsupportedFormulaError,
)
from repro.htl import ast
from repro.htl.classify import (
    FormulaClass,
    is_non_temporal,
    skeleton_class,
)
from repro.htl.variables import free_attr_vars, free_object_vars, is_closed
from repro.model.database import VideoDatabase
from repro.model.hierarchy import Video, VideoNode

# The engine mirrors the picture system's attribute-variable validation
# when it substitutes a schema table for a skipped join operand, so a
# malformed atom raises the same error whether or not it was skipped.
from repro.pictures.retrieval import (
    PictureRetrievalSystem,
    _check_attr_var_usage,
)
from repro.pictures.scoring import exists_pool, max_similarity
from repro.pictures.signature import bind_clip_scorers


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of the retrieval engine.

    ``until_threshold`` is the minimum fractional similarity the left
    operand of ``until`` must keep (paper §2.5).  ``join_mode`` selects the
    paper's inner join or the definitional outer join.
    ``naive_atoms`` forces the picture system's naive full-scan path for
    every atom table (the index-driven path is the default; the flag is
    the escape hatch and the oracle's configuration, see DESIGN.md §7).
    ``plan`` enables the cost-based query planner (DESIGN.md §13):
    statistics-driven join evaluation order with inner-join operand
    short-circuits, and plan caching.  Plans never change results —
    ``plan=False`` restores the structural evaluation order exactly.
    """

    until_threshold: float = ops.DEFAULT_UNTIL_THRESHOLD
    join_mode: str = INNER
    allow_extensions: bool = False
    naive_atoms: bool = False
    plan: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.until_threshold <= 1.0:
            raise HTLTypeError(
                f"until threshold must be in (0, 1], got {self.until_threshold}"
            )
        if self.join_mode not in (INNER, OUTER):
            raise HTLTypeError(f"unknown join mode {self.join_mode!r}")


@dataclass
class _SequenceContext:
    """One proper sequence under evaluation.

    ``owner`` is the hierarchy node whose level-``level`` descendants form
    ``nodes``; when set, the picture-retrieval system is fetched from the
    node's per-level cache instead of being rebuilt per call.
    """

    video: Video
    level: int
    nodes: Sequence[VideoNode]
    atomics: Callable[[str, int], Optional[SimilarityList]]
    pictures: Optional[PictureRetrievalSystem] = None
    universe: Tuple[str, ...] = ()
    owner: Optional[VideoNode] = None
    #: The compiled query plan steering this evaluation (None: structural
    #: order).  Shared down level-operator descents.
    plan: Optional[planning.QueryPlan] = None

    def ensure_pictures(self) -> PictureRetrievalSystem:
        if self.pictures is None:
            if self.owner is not None:
                self.pictures = self.owner.pictures_at_level(self.level)
            else:
                segments = [node.metadata for node in self.nodes]
                self.pictures = PictureRetrievalSystem(segments)
        return self.pictures


class RetrievalEngine:
    """Computes similarity lists for extended conjunctive HTL formulas.

    Every engine keeps a :class:`~repro.core.cache.ListMemo` of the final
    per-video lists it computed, keyed by the formula, the level and the
    video's stamp in its database (DESIGN.md §6): a repeated query over
    an unchanged video is a lookup.  Calls without a database, or with
    ad-hoc ``atomic_lists``, bypass the memo.  Its
    :class:`~repro.core.cache.ClipMemo` keeps every ``looks_like`` clip's
    best similarity per stored signature, whatever the θ (DESIGN.md §16).
    """

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        planner: Optional[planning.Planner] = None,
    ):
        self.config = config or EngineConfig()
        self.memo = ListMemo()
        self.clip_memo = ClipMemo()
        if planner is None and self.config.plan:
            planner = planning.Planner()
        self.planner = planner

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def evaluate_video(
        self,
        formula: ast.Formula,
        video: Video,
        level: int = 2,
        database: Optional[VideoDatabase] = None,
        atomic_lists: Optional[Dict[str, SimilarityList]] = None,
    ) -> SimilarityList:
        """Similarity list of a closed formula over the segments at a level.

        ``level=2`` (children of the root) is where §3 asserts conjunctive
        formulas; pass ``level=1`` to assert at the root, the convention for
        full hierarchical queries with level modal operators.

        ``atomic_lists`` resolves :class:`~repro.htl.ast.AtomicRef` by name
        for this call; ``database`` resolves the rest via its registry.
        """
        recorder = trace.current()
        if recorder is None:
            return self._evaluate_video(
                formula, video, level, database, atomic_lists
            )
        with recorder.span(
            trace.KIND_EVALUATE,
            f"evaluate {video.name}",
            video=video.name,
            level=level,
        ):
            return self._evaluate_video(
                formula, video, level, database, atomic_lists
            )

    def _evaluate_video(
        self,
        formula: ast.Formula,
        video: Video,
        level: int,
        database: Optional[VideoDatabase],
        atomic_lists: Optional[Dict[str, SimilarityList]],
    ) -> SimilarityList:
        key = self._memo_key(formula, video, level, database, atomic_lists)
        if key is not None:
            hit = self.memo.get(key)
            if hit is not None:
                # A hit costs what one subformula table does, so a
                # deadline still expires on a query that only hits.
                _charge_table_step()
                trace.bump("cache-list-hit")
                return hit
            trace.bump("cache-list-miss")
        self._validate(formula)
        bind_clip_scorers(formula, self.clip_memo.table)
        context = self._context(formula, video, level, database, atomic_lists)
        context.plan = self._plan_for(formula, context, database)
        result = self._table(formula, context).closed_list()
        if key is not None:
            # The ranking loop's trust-boundary scan, run before storing:
            # a list corrupted anywhere in this evaluation raises here
            # and never becomes a lasting hit.
            self.memo.put(key, result.validate())
        return result

    @staticmethod
    def _memo_key(
        formula: ast.Formula,
        video: Video,
        level: int,
        database: Optional[VideoDatabase],
        atomic_lists: Optional[Dict[str, SimilarityList]],
    ) -> Optional[ListKey]:
        """The memo key of one evaluation, or None when it is not a pure
        function of the database's state of ``video``."""
        if database is None or atomic_lists is not None:
            return None
        stamp = database.stamp(video)
        if stamp is None:
            return None
        return (
            ast.structural_key(formula),
            level,
            video.name,
            stamp,
            video.root.edits,
        )

    def _plan_for(
        self,
        formula: ast.Formula,
        context: _SequenceContext,
        database: Optional[VideoDatabase],
    ) -> Optional[planning.QueryPlan]:
        """The query plan for this evaluation, or None for structural order.

        Planning is skipped when disabled (``plan=False``), when the
        naive-oracle configuration is forced (``naive_atoms``), and for
        formulas with no picture atoms (pure registered-list queries have
        no index statistics to plan from).  A failing plan build is a
        perf event, never an error: the evaluation falls back to
        structural order (budget exhaustion still propagates — planning
        runs inside the query's deadline like everything else).
        """
        planner = self.planner
        if (
            planner is None
            or not self.config.plan
            or self.config.naive_atoms
            or not planning.has_picture_atoms(formula)
        ):
            return None
        try:
            pictures = context.ensure_pictures()
            return planner.plan_for(
                formula,
                pictures,
                context.level,
                self.config,
                generation=(
                    database.stamp(context.video)
                    if database is not None
                    else None
                ),
                video=context.video.name,
            )
        except BudgetExceededError:
            raise
        except Exception:
            trace.bump(planning.PLAN_FAILED)
            return None

    def evaluate_at_root(
        self,
        formula: ast.Formula,
        video: Video,
        database: Optional[VideoDatabase] = None,
        atomic_lists: Optional[Dict[str, SimilarityList]] = None,
    ) -> SimilarityValue:
        """Similarity value of the whole video (paper §2.3: satisfaction at
        the root in the one-element sequence)."""
        sim = self.evaluate_video(
            formula, video, level=1, database=database, atomic_lists=atomic_lists
        )
        return sim.value_at(1)

    def combine_lists(
        self, formula: ast.Formula, lists: Dict[str, SimilarityList]
    ) -> SimilarityList:
        """Evaluate a type (1) formula directly over named atomic lists.

        This is the experiment harness entry point: the paper's §4 setup
        feeds precomputed similarity tables for the atomic predicates (as
        ``AtomicRef`` names) straight into the list algorithms, with no
        video metadata involved.
        """
        self._validate(formula)
        context = _SequenceContext(
            video=_DUMMY_VIDEO,
            level=2,
            nodes=(),
            atomics=lambda name, __level: lists.get(name),
        )
        return self._table(formula, context).closed_list()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _validate(self, formula: ast.Formula) -> None:
        if not is_closed(formula):
            raise HTLTypeError(
                "queries must be closed formulas (bind every variable with "
                "exists or the freeze operator)"
            )
        actual = skeleton_class(formula)
        if actual > FormulaClass.EXTENDED_CONJUNCTIVE:
            if self.config.allow_extensions:
                self._validate_extended_language(formula)
                return
            raise UnsupportedFormulaError(
                "the retrieval algorithms support extended conjunctive "
                f"formulas; this one is {actual.name} "
                "(EngineConfig(allow_extensions=True) admits disjunction, "
                "'always' and free-position quantifiers)"
            )

    def _validate_extended_language(self, formula: ast.Formula) -> None:
        """Full-language mode: everything except ¬ over temporal scope."""
        if is_non_temporal(formula):
            return
        if isinstance(formula, ast.Not):
            raise UnsupportedFormulaError(
                "negation over temporal subformulas has no similarity "
                "semantics (paper §2.5 defines none); restructure the query"
            )
        for child in formula.children():
            self._validate_extended_language(child)

    def _context(
        self,
        formula: ast.Formula,
        video: Video,
        level: int,
        database: Optional[VideoDatabase],
        atomic_lists: Optional[Dict[str, SimilarityList]],
    ) -> _SequenceContext:
        def resolve(name: str, at_level: int) -> Optional[SimilarityList]:
            if atomic_lists is not None and name in atomic_lists:
                return atomic_lists[name]
            if database is not None:
                return database.atomic_list(name, video.name, at_level)
            return None

        nodes = video.nodes_at_level(level)
        return _SequenceContext(
            video=video,
            level=level,
            nodes=nodes,
            atomics=resolve,
            universe=tuple(exists_pool(video.object_universe())),
            owner=video.root,
        )

    def _table(
        self, formula: ast.Formula, context: _SequenceContext
    ) -> SimilarityTable:
        """Similarity table of a subformula."""
        _charge_table_step()
        recorder = trace.current()
        if recorder is None:
            return self._compute_table(formula, context)
        with recorder.span(trace.KIND_SUBFORMULA, describe_node(formula)):
            return self._compute_table(formula, context)

    def _compute_table(
        self, formula: ast.Formula, context: _SequenceContext
    ) -> SimilarityTable:
        if isinstance(formula, ast.AtomicRef):
            return self._atomic_table(formula, context)
        if is_non_temporal(formula):
            return self._atom_table(formula, context)
        if isinstance(formula, ast.And):
            left, right = self._join_operands(formula, context)
            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "and-merge"
            ):
                return left.combine(
                    right,
                    ops.and_lists,
                    mode=self.config.join_mode,
                    universe=context.universe,
                )
        if isinstance(formula, ast.Until):
            left, right = self._join_operands(formula, context)
            threshold = self.config.until_threshold

            def until_op(
                left_list: SimilarityList, right_list: SimilarityList
            ) -> SimilarityList:
                return ops.until_lists(left_list, right_list, threshold)

            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "until-merge"
            ):
                return left.combine(
                    right,
                    until_op,
                    mode=self.config.join_mode,
                    universe=context.universe,
                )
        if isinstance(formula, ast.Or):
            if not self.config.allow_extensions:
                raise UnsupportedFormulaError(
                    "disjunction over temporal subformulas needs "
                    "EngineConfig(allow_extensions=True)"
                )
            left = self._table(formula.left, context)
            right = self._table(formula.right, context)
            # ∨ takes the best disjunct, so an evaluation missing on one
            # side keeps the other side's value: always an outer join.
            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "or-merge"
            ):
                return left.combine(
                    right,
                    extensions.or_lists,
                    mode=OUTER,
                    universe=context.universe,
                )
        if isinstance(formula, ast.Next):
            table = self._table(formula.sub, context)
            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "next-shift"
            ):
                return table.map_lists(ops.next_list)
        if isinstance(formula, ast.Eventually):
            table = self._table(formula.sub, context)
            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "eventually-scan"
            ):
                return table.map_lists(ops.eventually_list)
        if isinstance(formula, ast.Always):
            axis_end = len(context.nodes)
            table = self._table(formula.sub, context)
            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "always-scan"
            ):
                return table.map_lists(
                    lambda sim: ops.always_list(sim, axis_end)
                )
        if isinstance(formula, ast.Exists):
            table = self._table(formula.sub, context)
            bound = [name for name in formula.vars if name in table.object_vars]
            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "exists-projection"
            ):
                return table.project_exists(bound)
        if isinstance(formula, ast.Freeze):
            body = self._table(formula.sub, context)
            segments = [node.metadata for node in context.nodes]
            value_table = build_value_table(formula.func, segments)
            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "freeze-join"
            ):
                return freeze_join(body, formula.var, value_table)
        if isinstance(formula, (ast.AtNextLevel, ast.AtLevel, ast.AtNamedLevel)):
            return self._level_table(formula, context)
        raise UnsupportedFormulaError(
            f"cannot evaluate {type(formula).__name__} here"
        )

    # -- planned join evaluation ------------------------------------------
    def _join_operands(
        self,
        formula: Union[ast.And, ast.Until],
        context: _SequenceContext,
    ) -> Tuple[SimilarityTable, SimilarityTable]:
        """Both operand tables of an ∧ / until node, in (left, right) order.

        With a plan active the *evaluation* order follows the plan's
        per-node decision (cheapest-and-most-selective-first), and under
        the paper's inner join a row-free first operand short-circuits
        the second: a zero-row table annihilates the inner join whatever
        the partner holds, so the partner is replaced by an equivalent
        zero-row schema table instead of being evaluated (DESIGN.md §13).
        The formula tree itself is never reordered — conjunct grouping is
        semantically significant under the inner join — so the returned
        pair is always (left table, right table).
        """
        plan = context.plan
        if plan is not None and plan.right_first(formula):
            first = self._table(formula.right, context)
            second = self._operand(formula.left, first, context)
            return second, first
        first = self._table(formula.left, context)
        second = self._operand(formula.right, first, context)
        return first, second

    def _operand(
        self,
        formula: ast.Formula,
        partner: SimilarityTable,
        context: _SequenceContext,
    ) -> SimilarityTable:
        """One join operand; short-circuited when the partner decided it."""
        if (
            context.plan is not None
            and self.config.join_mode == INNER
            and not partner.rows
        ):
            schema = self._schema_table(formula, context)
            if schema is not None:
                self.planner.record_skip()
                return schema
        return self._table(formula, context)

    def _schema_table(
        self, formula: ast.Formula, context: _SequenceContext
    ) -> Optional[SimilarityTable]:
        """A zero-row table with exactly the columns and maximum that real
        evaluation of ``formula`` would produce — or None when that cannot
        be derived without evaluating.

        Substituting it for a skipped inner-join operand is exact:
        ``combine`` computes output columns and maximum from both
        operands' columns and maxima alone, and with zero rows on the
        partner side the row loop emits nothing either way.  Malformed
        atoms still raise — attribute-variable misuse is validated here
        exactly as the picture system would — and anything this method
        cannot certify (unregistered refs, freeze joins, level descents)
        returns None, routing the operand to real evaluation.
        """
        if isinstance(formula, ast.AtomicRef):
            resolved = context.atomics(formula.name, context.level)
            if resolved is None:
                return None
            return SimilarityTable((), (), [], resolved.maximum)
        if is_non_temporal(formula):
            if any(
                isinstance(node, ast.AtomicRef) for node in formula.walk()
            ):
                if isinstance(formula, ast.And):
                    return self._schema_join(formula, ops.and_lists, context)
                return None
            _check_attr_var_usage(formula)
            try:
                maximum = max_similarity(formula)
            except Exception:
                return None
            return SimilarityTable(
                sorted(free_object_vars(formula)),
                sorted(free_attr_vars(formula)),
                [],
                maximum,
            )
        if isinstance(formula, ast.And):
            return self._schema_join(formula, ops.and_lists, context)
        if isinstance(formula, ast.Until):
            threshold = self.config.until_threshold
            return self._schema_join(
                formula,
                lambda left, right: ops.until_lists(left, right, threshold),
                context,
            )
        if isinstance(formula, ast.Or):
            left = self._schema_table(formula.left, context)
            right = self._schema_table(formula.right, context)
            if left is None or right is None:
                return None
            return left.combine(
                right, extensions.or_lists, mode=OUTER, universe=context.universe
            )
        if isinstance(formula, ast.Next):
            sub = self._schema_table(formula.sub, context)
            return None if sub is None else sub.map_lists(ops.next_list)
        if isinstance(formula, ast.Eventually):
            sub = self._schema_table(formula.sub, context)
            return None if sub is None else sub.map_lists(ops.eventually_list)
        if isinstance(formula, ast.Always):
            sub = self._schema_table(formula.sub, context)
            if sub is None:
                return None
            axis_end = len(context.nodes)
            return sub.map_lists(lambda sim: ops.always_list(sim, axis_end))
        if isinstance(formula, ast.Exists):
            sub = self._schema_table(formula.sub, context)
            if sub is None:
                return None
            bound = [name for name in formula.vars if name in sub.object_vars]
            return sub.project_exists(bound)
        return None

    def _schema_join(
        self,
        formula: Union[ast.And, ast.Until],
        op: Callable[[SimilarityList, SimilarityList], SimilarityList],
        context: _SequenceContext,
    ) -> Optional[SimilarityTable]:
        left = self._schema_table(formula.left, context)
        right = self._schema_table(formula.right, context)
        if left is None or right is None:
            return None
        return left.combine(
            right, op, mode=self.config.join_mode, universe=context.universe
        )

    # -- atoms ------------------------------------------------------------
    def _atomic_table(
        self, formula: ast.AtomicRef, context: _SequenceContext
    ) -> SimilarityTable:
        resolved = context.atomics(formula.name, context.level)
        if resolved is None:
            raise UnsupportedFormulaError(
                f"atomic predicate {formula.name!r} has no similarity list "
                f"registered for video {context.video.name!r} at level "
                f"{context.level}"
            )
        return SimilarityTable.closed(resolved)

    def _atom_table(
        self, formula: ast.Formula, context: _SequenceContext
    ) -> SimilarityTable:
        has_refs = any(
            isinstance(node, ast.AtomicRef) for node in formula.walk()
        )
        if has_refs:
            if isinstance(formula, ast.And):
                left, right = self._join_operands(formula, context)
                return left.combine(
                    right,
                    ops.and_lists,
                    mode=self.config.join_mode,
                    universe=context.universe,
                )
            raise UnsupportedFormulaError(
                "atomic references may only be combined with other "
                "conditions through conjunction; found one under "
                f"{type(formula).__name__}"
            )
        # The picture layer routes each binding by its density rule
        # (DESIGN.md §7); the plan only orders joins.
        return context.ensure_pictures().similarity_table(
            formula,
            universe=context.universe or None,
            use_index=not self.config.naive_atoms,
        )

    # -- level modal operators ------------------------------------------------
    def _level_table(
        self,
        formula: Union[ast.AtNextLevel, ast.AtLevel, ast.AtNamedLevel],
        context: _SequenceContext,
    ) -> SimilarityTable:
        if isinstance(formula, ast.AtNextLevel):
            target = context.level + 1
        elif isinstance(formula, ast.AtLevel):
            target = formula.level
        else:
            target = context.video.level_of(formula.level_name)
        if target < context.level:
            raise UnsupportedFormulaError(
                f"level operator targets level {target}, above the current "
                f"level {context.level}"
            )
        if target > context.video.n_levels:
            raise UnsupportedFormulaError(
                f"level operator targets level {target}, but video "
                f"{context.video.name!r} has {context.video.n_levels} levels"
            )

        accumulator: Dict[
            Tuple[Tuple[str, ...], tuple], Dict[int, float]
        ] = {}
        columns: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None
        maximum: Optional[float] = None
        for position, node in enumerate(context.nodes, start=1):
            descendants = node.descendants_at_level(target)
            child_context = _SequenceContext(
                video=context.video,
                level=target,
                nodes=descendants,
                atomics=context.atomics,
                universe=context.universe,
                owner=node,
                plan=context.plan,
            )
            child_table = self._table(formula.sub, child_context)
            maximum = child_table.maximum
            columns = (child_table.object_vars, child_table.attr_vars)
            if not descendants:
                continue
            for row in child_table.rows:
                value = row.sim.actual_at(1)
                if value <= 0:
                    continue
                key = (row.objects, row.ranges)
                accumulator.setdefault(key, {})[position] = value
        if maximum is None or columns is None:
            # Empty outer sequence: no way to learn the child maximum from
            # data, so compute it structurally.
            return SimilarityTable.empty(
                _structural_maximum(formula.sub, context)
            )
        rows = [
            TableRow(
                objects,
                ranges,
                SimilarityList.from_segment_values(values, maximum),
            )
            for (objects, ranges), values in accumulator.items()
        ]
        rows = [row for row in rows if row.sim]
        return SimilarityTable(columns[0], columns[1], rows, maximum)


def _charge_table_step() -> None:
    """One cooperative budget step per subformula table — so pure
    list-algebra queries (registered atomics) are visible to the step
    budget too — plus a forced deadline check to stay responsive between
    the fine-grained charges of the hot loops."""
    budget = resilience.current_budget()
    if budget is not None:
        budget.charge(1, site="engine-table")
        budget.checkpoint(site="engine-table")


def _structural_maximum(
    formula: ast.Formula, context: _SequenceContext
) -> float:
    """Maximum similarity computed from the formula alone."""
    if isinstance(formula, ast.AtomicRef):
        resolved = context.atomics(formula.name, context.level)
        if resolved is None:
            raise UnsupportedFormulaError(
                f"atomic predicate {formula.name!r} has no registered list"
            )
        return resolved.maximum
    if is_non_temporal(formula):
        return max_similarity(formula)
    if isinstance(formula, ast.And):
        return _structural_maximum(formula.left, context) + _structural_maximum(
            formula.right, context
        )
    if isinstance(formula, ast.Until):
        return _structural_maximum(formula.right, context)
    if isinstance(formula, ast.Or):
        return max(
            _structural_maximum(formula.left, context),
            _structural_maximum(formula.right, context),
        )
    if isinstance(
        formula,
        (
            ast.Next,
            ast.Eventually,
            ast.Always,
            ast.Exists,
            ast.Freeze,
            ast.AtNextLevel,
            ast.AtLevel,
            ast.AtNamedLevel,
        ),
    ):
        return _structural_maximum(formula.sub, context)
    raise UnsupportedFormulaError(
        f"cannot compute a maximum for {type(formula).__name__}"
    )


def actual_upper_bound(
    formula: ast.Formula,
    video: Video,
    level: int = 2,
    database: Optional[VideoDatabase] = None,
) -> float:
    """An admissible upper bound on the actual similarity any segment of
    ``video`` can reach for ``formula`` asserted at ``level``.

    Structural recursion mirroring the §2.5 combination rules, without
    evaluating anything: non-temporal atoms are bounded by their structural
    maximum ``m`` (``a ≤ m`` always), registered atomic predicates by the
    largest actual value on their similarity list — the cheap per-video
    evidence that lets ``top_k_across_videos`` skip videos that cannot
    crack the current k-th score.  Raises
    :class:`~repro.errors.UnsupportedFormulaError` when no finite bound can
    be derived (e.g. an unregistered atomic reference); callers should
    treat that as "cannot prune".
    """
    if isinstance(formula, ast.AtomicRef):
        best = (
            database.max_atomic_actual(formula.name, video.name, level)
            if database is not None
            else None
        )
        if best is None:
            raise UnsupportedFormulaError(
                f"atomic predicate {formula.name!r} has no similarity list "
                f"registered for video {video.name!r} at level {level}"
            )
        return best
    if isinstance(formula, ast.And):
        return actual_upper_bound(
            formula.left, video, level, database
        ) + actual_upper_bound(formula.right, video, level, database)
    if isinstance(formula, ast.Until):
        return actual_upper_bound(formula.right, video, level, database)
    if isinstance(formula, ast.Or):
        return max(
            actual_upper_bound(formula.left, video, level, database),
            actual_upper_bound(formula.right, video, level, database),
        )
    if is_non_temporal(formula):
        return max_similarity(formula)
    if isinstance(
        formula, (ast.Next, ast.Eventually, ast.Always, ast.Exists, ast.Freeze)
    ):
        return actual_upper_bound(formula.sub, video, level, database)
    if isinstance(formula, ast.AtNextLevel):
        return actual_upper_bound(formula.sub, video, level + 1, database)
    if isinstance(formula, ast.AtLevel):
        return actual_upper_bound(formula.sub, video, formula.level, database)
    if isinstance(formula, ast.AtNamedLevel):
        return actual_upper_bound(
            formula.sub, video, video.level_of(formula.level_name), database
        )
    raise UnsupportedFormulaError(
        f"cannot bound {type(formula).__name__}"
    )


def _make_dummy_video() -> Video:
    """A placeholder video for :meth:`RetrievalEngine.combine_lists`."""
    root = VideoNode()
    return Video(name="<lists>", root=root, level_names={1: "video"})


_DUMMY_VIDEO = _make_dummy_video()
