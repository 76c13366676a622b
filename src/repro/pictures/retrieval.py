"""The picture-retrieval system: similarity tables for atomic predicates.

This reproduces the role of the paper's underlying picture retrieval
system ([27, 2]): given an atomic (non-temporal) HTL subformula and a
sequence of segments, produce the similarity table that the video
retrieval algorithms consume — one row per relevant evaluation of the free
object variables (plus range columns for free attribute variables), with
the similarity list of the atom over the segment sequence.

Attribute variables are handled per paper §3.3: predicates over an
attribute variable ``y`` are restricted to ``y OP q`` / ``q OP y`` with an
attribute-variable-free ``q``; the satisfying value space is partitioned
into elementary ranges at the values ``q`` takes across the sequence, and
within an elementary range the atom's similarity is constant, so one
representative value per range suffices.

Two evaluation paths produce every table (DESIGN.md §7):

* the **naive scan** scores every (binding × segment) pair, every ``∃``
  over its full pool — the definitional oracle;
* the **index-driven path** (default) asks the support-set analysis of
  :mod:`repro.pictures.support` which segments can score differently from
  the binding's *baseline* (its score on an empty segment), sweeps only
  those — all bindings batched per segment, with one memo under the
  sweep: candidate segments of identical content (the index's content
  profile) share a score per binding — and emits the baseline over the
  complement as interval runs directly in compressed form.  A binding
  the analysis cannot bound, or whose candidates cover at least
  :data:`DENSE_CUTOFF` of the sequence, is *routed* to a full scan that
  scores each content profile once, on its first segment, and expands
  the scores by profile id (the naive scan's own loop when every
  profile is distinct), so the sweep has one shape.

The two are list-for-list identical (property-tested); ``use_index``
selects per call, and ``EngineConfig(naive_atoms=True)`` forces the
naive path engine-wide.  Both score through a kernel
(:func:`repro.pictures.scoring.compile_atom`) — compiled once per table
build on the index-driven path, once per binding on the naive one —
which is bit-identical to the interpreting reference
:func:`~repro.pictures.scoring.score`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core import resilience, trace
from repro.core.ranges import FULL, Range, interval
from repro.core.simlist import SIM_EPS, SimilarityList
from repro.core.tables import SimilarityTable, TableRow
from repro.errors import (
    BudgetExceededError,
    HTLTypeError,
    UnsupportedFormulaError,
)
from repro.htl import ast
from repro.htl.classify import is_non_temporal
from repro.htl.pretty import clip, pretty
from repro.htl.variables import (
    free_attr_vars,
    free_object_vars,
    term_attr_vars,
)
from repro.model.metadata import SegmentMetadata
from repro.pictures.index import MetadataIndex
from repro.pictures.scoring import (
    Binding,
    Kernel,
    compile_atom,
    eval_term,
    exists_pool,
    max_similarity,
)
from repro.pictures.support import SupportAnalyzer

#: The representative empty segment baselines are scored on.
_EMPTY_SEGMENT = SegmentMetadata()

#: Candidate-density cutoff (DESIGN.md §16): a binding whose candidate
#: set covers at least this fraction of the sequence is routed to the
#: full scan (:meth:`PictureRetrievalSystem._scan_profiles`), like an
#: unbounded one.  The sweep would visit (almost) every segment anyway,
#: and its per-segment bookkeeping costs more than the baseline runs it
#: saves.  Sound either way: off the candidates the
#: score is the baseline, which the scan simply computes.
DENSE_CUTOFF = 0.5


@dataclass
class PictureStats:
    """Work counters of the index-driven path (reset with :meth:`reset`)."""

    tables: int = 0
    bindings: int = 0
    #: score() invocations against stored segments (the dominant cost).
    segments_scored: int = 0
    #: candidate (binding, segment) pairs resolved from the content-profile
    #: memo — the sweep's only memo; the name predates that.
    fingerprint_hits: int = 0
    #: total candidate-set sizes over all swept bindings.
    candidate_segments: int = 0
    #: bindings routed to the full scan: the support analysis could not
    #: bound them, or the density cutoff applied.
    unbounded_bindings: int = 0
    #: routed bindings whose candidate set the density cutoff caught (a
    #: subset of ``unbounded_bindings``).
    dense_bindings: int = 0
    #: baseline scores computed (one per swept binding).
    baseline_scores: int = 0

    def reset(self) -> None:
        self.tables = 0
        self.bindings = 0
        self.segments_scored = 0
        self.fingerprint_hits = 0
        self.candidate_segments = 0
        self.unbounded_bindings = 0
        self.dense_bindings = 0
        self.baseline_scores = 0


@dataclass
class _Job:
    """One similarity list under construction during the batched sweep."""

    objects: Tuple[str, ...]
    binding: Binding
    candidates: Tuple[int, ...]
    baseline: float = 0.0
    #: score per segment content profile — sound for every job, since
    #: the score is a pure function of the segment's content given the
    #: binding and pool.
    profile_memo: Dict[int, float] = field(default_factory=dict)
    scored: List[Tuple[int, float]] = field(default_factory=list)


class PictureRetrievalSystem:
    """Atom evaluation over one segment sequence, with indices."""

    def __init__(self, segments: Sequence[SegmentMetadata]):
        self.segments = list(segments)
        self.index = MetadataIndex(self.segments)
        self.stats = PictureStats()
        #: When set to a list, the indexed sweep appends every visited
        #: (objects, segment_id) pair — the support-soundness tests check
        #: the pairs stay inside the analysis' candidate sets.
        self.trace_scored: Optional[List[Tuple[Tuple[str, ...], int]]] = None
        self._analyzer = SupportAnalyzer(self.index)
        self._universe = self.index.all_object_ids()

    @property
    def universe(self) -> List[str]:
        """Object ids appearing anywhere in the sequence."""
        return list(self._universe)

    def append_segments(self, segments: Sequence[SegmentMetadata]) -> int:
        """Extend the system over segments appended to its sequence.

        The metadata index is maintained in place
        (:meth:`~repro.pictures.index.MetadataIndex.append_segments`); the
        support analyzer is rebuilt because its pool-postings memo caches
        intersections over the old postings, and the ∃-pool universe is
        refreshed.  Returns the new sequence length.
        """
        if not segments:
            return len(self.segments)
        self.index.append_segments(segments)
        self.segments.extend(segments)
        self._analyzer = SupportAnalyzer(self.index)
        self._universe = self.index.all_object_ids()
        trace.METRICS.count(trace.INDEX_APPENDED)
        return len(self.segments)

    def atom_support(
        self,
        atom: ast.Formula,
        binding: Binding,
        universe: Optional[Sequence[str]] = None,
        charge: bool = True,
    ) -> Optional[Tuple[int, ...]]:
        """The sorted candidates the index-driven path sweeps for one
        (atom, binding) pair — ``None`` when it routes the binding to the
        full scan (:meth:`_sweep_candidates`).

        ``universe`` is the ∃-pool the analysis expands quantified
        probes over; it must match the pool the table was (or will be)
        built with, and defaults to the sequence's objects.

        ``charge=False`` exempts the call from budget step accounting —
        the planner's cost probes use it so planning a query never
        changes how many steps evaluating it is charged.
        """
        pool = list(universe) if universe is not None else self._universe
        return self._sweep_candidates(
            self._analyzer.atom_support(atom, binding, pool, charge=charge)
        )

    def _sweep_candidates(
        self, support: Optional[Set[int]]
    ) -> Optional[Tuple[int, ...]]:
        """The density rule: ``None`` (route to the full scan) for an
        unbounded support or one of at least ``DENSE_CUTOFF · n``
        candidates, else the candidates in ascending order.  The length
        is tested before the sort, so a dense set is never ordered."""
        n_segments = len(self.segments)
        if support is None or (
            n_segments and len(support) >= DENSE_CUTOFF * n_segments
        ):
            return None
        return tuple(sorted(support))

    # ------------------------------------------------------------------
    def similarity_table(
        self,
        atom: ast.Formula,
        universe: Optional[Sequence[str]] = None,
        use_index: bool = True,
    ) -> SimilarityTable:
        """The similarity table of a non-temporal formula.

        ``universe`` is the pool object variables (free and inner-∃ alike)
        range over; it defaults to the sequence's objects.  Every binding
        is enumerated, which is what the definitional semantics prescribe
        under partial matching.  ``use_index=False`` takes the naive scan
        instead of the index-driven path.

        When a trace recorder is active, every table build is one
        ``atom-sweep`` span (the ``atom-scoring`` stage) annotated with
        the path taken (indexed / naive / naive-fallback) and the sweep's
        work-counter deltas (DESIGN.md §10).  The span's name is rendered
        only then.
        """
        recorder = trace.current()
        if recorder is None:
            return self._similarity_table(atom, universe, use_index)
        with recorder.span(
            trace.KIND_ATOM_SWEEP, clip(pretty(atom), 60)
        ) as span:
            before = (
                self.stats.bindings,
                self.stats.segments_scored,
                self.stats.fingerprint_hits,
            )
            table = self._similarity_table(atom, universe, use_index)
            span.attrs["rows"] = len(table.rows)
            span.attrs["bindings"] = self.stats.bindings - before[0]
            span.attrs["segments-scored"] = (
                self.stats.segments_scored - before[1]
            )
            span.attrs["fingerprint-hits"] = (
                self.stats.fingerprint_hits - before[2]
            )
            return table

    def _similarity_table(
        self,
        atom: ast.Formula,
        universe: Optional[Sequence[str]],
        use_index: bool,
    ) -> SimilarityTable:
        if not is_non_temporal(atom):
            raise UnsupportedFormulaError(
                "the picture system evaluates non-temporal formulas only"
            )
        _check_attr_var_usage(atom)
        pool = list(universe) if universe is not None else list(self._universe)
        object_vars = sorted(free_object_vars(atom))
        attr_vars = sorted(free_attr_vars(atom))
        maximum = max_similarity(atom)

        bindings = itertools.product(pool, repeat=len(object_vars))

        if use_index:
            # The one degraded path (DESIGN.md §8): under an active
            # resilience context, a failing index-driven build is redone
            # by the naive scan below.  Budget overruns always propagate —
            # a blown deadline must abort, not degrade.
            trace.annotate(path="indexed")
            try:
                rows = self._indexed_rows(
                    atom, bindings, object_vars, attr_vars, pool, maximum
                )
            except BudgetExceededError:
                raise
            except Exception as exc:
                if resilience.current() is None:
                    raise
                trace.METRICS.count(trace.ATOM_FALLBACK)
                trace.event(
                    trace.ATOM_FALLBACK,
                    f"indexed sweep failed with {type(exc).__name__}; "
                    "redoing with the naive oracle scorer",
                )
                trace.annotate(path="naive-fallback")
                # The failed sweep may have consumed part of the bindings.
                bindings = itertools.product(pool, repeat=len(object_vars))
            else:
                return SimilarityTable(object_vars, attr_vars, rows, maximum)
        else:
            trace.annotate(path="naive")

        # Open tables keep only relevant (non-empty) evaluations; a closed
        # atom always keeps its single row so downstream joins see the
        # evaluation even at similarity zero.
        keep_empty = not object_vars and not attr_vars
        rows: List[TableRow] = []
        for values in bindings:
            for box, binding in self._boxes(
                atom, dict(zip(object_vars, values)), attr_vars, indexed=False
            ):
                sim = self._score_list(atom, binding, pool, maximum)
                if sim or keep_empty:
                    rows.append(TableRow(tuple(values), box, sim))
        return SimilarityTable(object_vars, attr_vars, rows, maximum)

    def similarity_list(
        self,
        atom: ast.Formula,
        universe: Optional[Sequence[str]] = None,
        use_index: bool = True,
    ) -> SimilarityList:
        """Similarity list of a closed atom (no free variables)."""
        table = self.similarity_table(
            atom, universe=universe, use_index=use_index
        )
        return table.closed_list()

    def _boxes(
        self,
        atom: ast.Formula,
        binding: Binding,
        attr_vars: List[str],
        indexed: bool,
    ) -> Iterator[Tuple[tuple, Binding]]:
        """Every elementary-range box of the free attribute variables
        (paper §3.3), with a private copy of ``binding`` extended by one
        representative value per range — one ``((), copy)`` when there
        are none."""
        per_var_ranges = [
            _elementary_ranges(
                self._boundary_values(atom, name, binding, indexed)
            )
            for name in attr_vars
        ]
        for box in itertools.product(*per_var_ranges):
            extended = dict(binding)
            for name, value_range in zip(attr_vars, box):
                sample = _range_sample(value_range)
                if sample is None:
                    break
                extended[name] = sample
            else:
                yield box, extended

    # ------------------------------------------------------------------
    # index-driven path
    # ------------------------------------------------------------------
    def _indexed_rows(
        self,
        atom: ast.Formula,
        bindings: Iterator[Tuple[str, ...]],
        object_vars: List[str],
        attr_vars: List[str],
        pool: Sequence[str],
        maximum: float,
    ) -> List[TableRow]:
        """Build every row of one table: routed bindings by a scan per
        content profile (:meth:`_scan_profiles`), the rest in a single
        batched sweep."""
        self.stats.tables += 1
        # Compiled per table build and dropped with it; each binding is
        # its own dict, which the kernel rebinds in place and restores.
        # The narrowed ∃ asks the pool for membership: a dict answers in
        # O(1) and iterates in pool order.
        kernel = compile_atom(atom, narrow=True)
        kernel_pool = dict.fromkeys(exists_pool(pool)) if pool else ()
        # (objects, box, routed list or sweep job), in binding order.
        slots: List[Tuple[Tuple[str, ...], tuple, object]] = []
        jobs: List[_Job] = []
        for values in bindings:
            objects = tuple(values)
            for box, binding in self._boxes(
                atom, dict(zip(object_vars, values)), attr_vars, indexed=True
            ):
                job = self._make_job(atom, objects, binding, pool)
                if job is None:
                    built = self._scan_profiles(
                        kernel, binding, kernel_pool, maximum
                    )
                else:
                    jobs.append(job)
                    built = job
                slots.append((objects, box, built))
        self._sweep(kernel, jobs, kernel_pool)
        keep_empty = not object_vars and not attr_vars
        rows: List[TableRow] = []
        for objects, box, built in slots:
            if isinstance(built, _Job):
                built = self._emit(built, maximum)
            # Trust boundary: a bad row raises here, inside the degraded
            # path's ``try``, so a scope rebuilds the table naively.
            sim = resilience.fault_value(
                resilience.SITE_ATOM_SCORE, built
            ).validate()
            if sim or keep_empty:
                rows.append(TableRow(objects, box, sim))
        return rows

    def _make_job(
        self,
        atom: ast.Formula,
        objects: Tuple[str, ...],
        binding: Binding,
        pool: Sequence[str],
    ) -> Optional[_Job]:
        """The sweep job of one binding, or ``None`` to route it."""
        self.stats.bindings += 1
        resilience.fault(resilience.SITE_INDEX_LOOKUP)
        support = self._analyzer.atom_support(atom, binding, pool)
        candidates = self._sweep_candidates(support)
        if candidates is None:
            self.stats.unbounded_bindings += 1
            if support is not None:
                self.stats.dense_bindings += 1
            return None
        self.stats.candidate_segments += len(candidates)
        return _Job(objects, binding, candidates)

    def _sweep(
        self, kernel: Kernel, jobs: List[_Job], pool: Sequence[str]
    ) -> None:
        """Score all jobs in one ascending pass over candidate segments.

        Each segment is visited once for *all* bindings that list it as a
        candidate; per job, segments with an identical content profile
        are scored once.
        """
        by_segment: Dict[int, List[_Job]] = {}
        for job in jobs:
            for segment_id in job.candidates:
                by_segment.setdefault(segment_id, []).append(job)
            # Baseline fills every off-candidate gap; scored on the
            # empty representative segment with ∃-pools narrowed.
            resilience.fault(resilience.SITE_ATOM_SCORE)
            job.baseline = kernel(_EMPTY_SEGMENT, job.binding, pool)
            self.stats.baseline_scores += 1
        visited = self.trace_scored
        profiles = self.index.segment_profiles()
        segments = self.segments
        budget = resilience.current_budget()
        scored_count = 0
        hit_count = 0
        pending = 0
        for segment_id in sorted(by_segment):
            segment = segments[segment_id - 1]
            profile = profiles[segment_id - 1]
            if budget is not None:
                # Charge in blocks: one budget call per 256 segments keeps
                # step accounting exact at a fraction of the per-iteration
                # cost (tests/core/test_resilience.py pins the charges
                # and clock reads of an idle budget).
                pending += 1
                if pending >= 256:
                    budget.charge(pending, site="atom-scoring")
                    pending = 0
            for job in by_segment[segment_id]:
                # Segments with identical content (profile) share a
                # score outright.
                actual = job.profile_memo.get(profile)
                if actual is None:
                    resilience.fault(resilience.SITE_ATOM_SCORE)
                    actual = kernel(segment, job.binding, pool)
                    job.profile_memo[profile] = actual
                    scored_count += 1
                else:
                    hit_count += 1
                if visited is not None:
                    visited.append((job.objects, segment_id))
                job.scored.append((segment_id, actual))
        if budget is not None and pending:
            budget.charge(pending, site="atom-scoring")
        self.stats.segments_scored += scored_count
        self.stats.fingerprint_hits += hit_count

    def _emit(self, job: _Job, maximum: float) -> SimilarityList:
        """Scored values + baseline gap runs, in compressed form."""
        n_segments = len(self.segments)
        baseline = job.baseline
        pieces: List[Tuple[int, int, float]] = []
        append = pieces.append
        if baseline <= SIM_EPS:
            # Zero baseline: the gaps contribute nothing — emit the
            # scored segments only.
            for segment_id, actual in job.scored:
                append((segment_id, segment_id, actual))
            return SimilarityList.from_sorted_pieces(pieces, maximum)
        previous = 0
        for segment_id, actual in job.scored:
            if segment_id > previous + 1:
                append((previous + 1, segment_id - 1, baseline))
            append((segment_id, segment_id, actual))
            previous = segment_id
        if previous < n_segments:
            append((previous + 1, n_segments, baseline))
        return SimilarityList.from_sorted_pieces(pieces, maximum)

    # ------------------------------------------------------------------
    # naive full-scan path (the oracle)
    # ------------------------------------------------------------------
    def _score_list(
        self,
        atom: ast.Formula,
        binding: Binding,
        pool: Sequence[str],
        maximum: float,
    ) -> SimilarityList:
        # Budget accounting mirrors the indexed path — one step per
        # binding (what its support analysis charges) plus the scan's
        # per-segment steps — so a step budget sees comparable
        # consumption whichever path the density rule (or config) picked.
        budget = resilience.current_budget()
        if budget is not None:
            budget.charge(1, site="atom-scoring")
        # The definitional sweep: every ∃ iterates its full pool.
        kernel = compile_atom(atom, narrow=False)
        return self._scan(
            kernel, binding, exists_pool(pool) if pool else (), maximum
        )

    def _scan_profiles(
        self,
        kernel: Kernel,
        binding: Binding,
        pool: Sequence[str],
        maximum: float,
    ) -> SimilarityList:
        """A routed binding's list: the kernel once per content profile,
        on the profile's first segment, with each segment reading its
        profile's score.  Equal profiles mean equal metadata up to
        reordering, hence equal scores (the sweep's memo relies on the
        same).  Charges what :meth:`_scan` charges, one step per segment
        in the same blocks of 256, before scoring.  When every profile
        is distinct it is :meth:`_scan`, with no extra pass."""
        profiles, firsts = self.index.profile_representatives()
        segments = self.segments
        n_segments = len(segments)
        if len(firsts) == n_segments:
            return self._scan(kernel, binding, pool, maximum)
        budget = resilience.current_budget()
        if budget is not None:
            for __ in range(n_segments // 256):
                budget.charge(256, site="atom-scoring")
            if n_segments % 256:
                budget.charge(n_segments % 256, site="atom-scoring")
        scores = [kernel(segments[first], binding, pool) for first in firsts]
        pieces = [
            (segment_id, segment_id, actual)
            for segment_id, actual in enumerate(
                map(scores.__getitem__, profiles), start=1
            )
            if actual > SIM_EPS
        ]
        return SimilarityList.from_sorted_pieces(pieces, maximum)

    def _scan(
        self,
        kernel: Kernel,
        binding: Binding,
        pool: Sequence[str],
        maximum: float,
    ) -> SimilarityList:
        """One binding's list by the full scan: the kernel on every
        segment, one budget step each (charged in blocks of 256, between
        kernel calls, so a deadline is checked inside a long scan).  The
        definitional oracle path (:meth:`_score_list`), and a routed
        binding's path when no two segments share a profile.
        ``binding`` must be private — the kernel rebinds it in place."""
        budget = resilience.current_budget()
        pending = 0
        pieces: List[Tuple[int, int, float]] = []
        for segment_id, segment in enumerate(self.segments, start=1):
            if budget is not None:
                pending += 1
                if pending >= 256:
                    budget.charge(pending, site="atom-scoring")
                    pending = 0
            actual = kernel(segment, binding, pool)
            if actual > SIM_EPS:
                pieces.append((segment_id, segment_id, actual))
        if budget is not None and pending:
            budget.charge(pending, site="atom-scoring")
        return SimilarityList.from_sorted_pieces(pieces, maximum)

    def _boundary_values(
        self,
        atom: ast.Formula,
        attr_var: str,
        binding: Binding,
        indexed: bool,
    ) -> "Tuple[Set[int], Set[Union[str, float]]]":
        """Values the variable is compared against, across the sequence.

        In indexed mode only the segments where the compared term can be
        defined are scanned (off its support the term evaluates to None
        and contributes no boundary, so the value set is unchanged).
        """
        int_bounds: Set[int] = set()
        exact_bounds: Set[Union[str, float]] = set()
        for node in atom.walk():
            if not isinstance(node, ast.Compare):
                continue
            other = _compared_term(node, attr_var)
            if other is None:
                continue
            if indexed:
                candidates = self._analyzer.term_candidates(other, binding)
                segments: Sequence[SegmentMetadata] = (
                    self.segments
                    if candidates is None
                    else [self.segments[i - 1] for i in candidates]
                )
            else:
                segments = self.segments
            for segment in segments:
                evaluated = eval_term(other, segment, binding)
                if evaluated is None:
                    continue
                value = evaluated[0]
                if isinstance(value, bool):
                    continue
                if isinstance(value, int):
                    int_bounds.add(value)
                else:
                    exact_bounds.add(value)
        return int_bounds, exact_bounds


# ---------------------------------------------------------------------------
# attribute-variable helpers
# ---------------------------------------------------------------------------
def _compared_term(node: ast.Compare, attr_var: str) -> Optional[ast.Term]:
    """The attr-var-free side of a comparison against ``attr_var``."""
    left_is_var = isinstance(node.left, ast.AttrVar) and node.left.name == attr_var
    right_is_var = (
        isinstance(node.right, ast.AttrVar) and node.right.name == attr_var
    )
    if left_is_var and not right_is_var:
        return node.right
    if right_is_var and not left_is_var:
        return node.left
    return None


def _check_attr_var_usage(atom: ast.Formula) -> None:
    """Enforce the paper's restriction on attribute-variable predicates."""
    for node in atom.walk():
        if isinstance(node, ast.Compare):
            left_vars = term_attr_vars(node.left)
            right_vars = term_attr_vars(node.right)
            if left_vars and right_vars:
                raise HTLTypeError(
                    "attribute variables may only be compared with "
                    f"attribute-variable-free expressions: {node!r}"
                )
            for side, vars_in_side in (
                (node.left, left_vars),
                (node.right, right_vars),
            ):
                if vars_in_side and not isinstance(side, ast.AttrVar):
                    raise HTLTypeError(
                        "attribute variables may appear only bare on one "
                        f"side of a comparison: {node!r}"
                    )
        elif isinstance(node, ast.Rel):
            for arg in node.args:
                if term_attr_vars(arg):
                    raise HTLTypeError(
                        "attribute variables may not appear in relationship "
                        f"arguments: {node!r}"
                    )
        elif isinstance(node, ast.Present):
            continue


def _elementary_ranges(
    bounds: "Tuple[Set[int], Set[Union[str, float]]]",
) -> List[Range]:
    """Partition the value space at the boundary values.

    An integer-typed variable splits into singletons at each bound and the
    open blocks between; a non-integer-typed variable splits into one exact
    range per mentioned value plus the complement ("any other value", whose
    satisfaction pattern is uniform because only equality predicates apply).
    Mixing value types on one variable is rejected — an attribute variable
    has one type, as in the paper.
    """
    int_bounds, exact_bounds = bounds
    if int_bounds and exact_bounds:
        raise HTLTypeError(
            "an attribute variable is compared against both integer and "
            f"non-integer values ({sorted(int_bounds)} vs "
            f"{sorted(exact_bounds, key=repr)})"
        )
    if exact_bounds:
        ranges: List[Range] = [
            Range(exact=value) for value in sorted(exact_bounds, key=repr)
        ]
        ranges.append(Range(excluded=frozenset(exact_bounds)))
        return ranges
    ordered = sorted(int_bounds)
    if not ordered:
        return [FULL]
    ranges = [interval(None, ordered[0] - 1)]
    for position, bound in enumerate(ordered):
        ranges.append(interval(bound, bound))
        next_bound = (
            ordered[position + 1] if position + 1 < len(ordered) else None
        )
        if next_bound is None:
            ranges.append(interval(bound + 1, None))
        elif bound + 1 <= next_bound - 1:
            ranges.append(interval(bound + 1, next_bound - 1))
    return ranges


def _range_sample(value_range: Range) -> Optional[Union[str, int, float]]:
    if value_range.is_exact():
        return value_range.exact  # type: ignore[return-value]
    return value_range.sample()
