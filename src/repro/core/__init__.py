"""Core similarity-retrieval machinery: lists, tables, engine, oracles."""

from repro.core.engine import EngineConfig, RetrievalEngine, actual_upper_bound
from repro.core.explain import explain
from repro.core.extensions import (
    bounded_always,
    bounded_eventually,
    fuzzy_and_lists,
    or_lists,
)
from repro.core.intervals import Interval, coalesce
from repro.core.ops import (
    DEFAULT_UNTIL_THRESHOLD,
    always_list,
    and_lists,
    eventually_list,
    max_merge_lists,
    next_list,
    until_lists,
    until_runs,
)
from repro.core.simlist import SimEntry, SimilarityList, SimilarityValue
from repro.core.resilience import (
    CircuitBreaker,
    QueryBudget,
    ResilienceContext,
)
from repro.core.tables import INNER, OUTER, SimilarityTable, TableRow
from repro.core.topk import (
    RetrievedSegment,
    TopKResult,
    VideoOutcome,
    ranked_entries,
    top_k_across_videos,
    top_k_segments,
    top_k_videos,
)

__all__ = [
    "SimilarityList",
    "SimilarityValue",
    "SimEntry",
    "Interval",
    "coalesce",
    "and_lists",
    "next_list",
    "until_lists",
    "until_runs",
    "eventually_list",
    "always_list",
    "max_merge_lists",
    "or_lists",
    "fuzzy_and_lists",
    "bounded_eventually",
    "bounded_always",
    "DEFAULT_UNTIL_THRESHOLD",
    "SimilarityTable",
    "TableRow",
    "INNER",
    "OUTER",
    "RetrievalEngine",
    "EngineConfig",
    "actual_upper_bound",
    "explain",
    "RetrievedSegment",
    "TopKResult",
    "VideoOutcome",
    "top_k_segments",
    "top_k_across_videos",
    "top_k_videos",
    "ranked_entries",
    "QueryBudget",
    "CircuitBreaker",
    "ResilienceContext",
]
