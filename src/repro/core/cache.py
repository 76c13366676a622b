"""Memoization for the retrieval engine — the multi-video fast path.

The engine's structural recursion recomputes every subformula's similarity
table from scratch on each :meth:`~repro.core.engine.RetrievalEngine.
evaluate_video` call, and a multi-video ``top_k_across_videos`` repeats the
whole derivation per video per query.  Sistla's follow-up work on sequence
databases and the lazy neuro-symbolic evaluators make the same observation:
most of that work is shared, so cache it.

:class:`EvaluationCache` memoizes two things:

* **similarity tables of subformulas** — keyed by the subformula's stable
  structural key (:func:`repro.htl.ast.structural_key`), the evaluation
  scope (video, level, and the position path for level-operator descents)
  and the engine configuration.  Shared subformulas inside one query, and
  across queries over the same video, evaluate once.
* **whole-query similarity lists** — keyed by formula, video, level and
  configuration, so a repeated query over an unchanged database is a pure
  lookup.

Invalidation is by *generation*: :class:`~repro.model.database.
VideoDatabase` bumps a counter on every mutation (``add`` /
``register_atomic``), and the cache drops everything when it observes a new
generation via :meth:`sync`.  The cache therefore serves one database at a
time; point a fresh cache at a second database rather than alternating.

The cache is thread-safe, so one instance may serve queries running on
several threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional

from repro.core.simlist import SimilarityList
from repro.core.tables import SimilarityTable

#: Default capacity bounds (entries, not bytes).  Subformula tables are
#: small and numerous; whole-query lists are fewer and larger.
DEFAULT_MAX_TABLES = 4096
DEFAULT_MAX_LISTS = 1024
#: Compiled query plans are tiny (decision maps over structural keys).
DEFAULT_MAX_PLANS = 512


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of cache effectiveness counters."""

    table_hits: int
    table_misses: int
    list_hits: int
    list_misses: int
    invalidations: int
    table_entries: int
    list_entries: int

    @property
    def hits(self) -> int:
        return self.table_hits + self.list_hits

    @property
    def misses(self) -> int:
        return self.table_misses + self.list_misses

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class EvaluationCache:
    """Bounded, generation-invalidated memo for tables and lists.

    Eviction is FIFO (oldest insertion first) — the access pattern is
    "one query's subformulas, then the next query's", where recency
    tracking buys little over insertion order.
    """

    def __init__(
        self,
        max_tables: int = DEFAULT_MAX_TABLES,
        max_lists: int = DEFAULT_MAX_LISTS,
    ):
        self._lock = threading.Lock()
        self._generation: Optional[int] = None
        self._video_generations: Dict[str, int] = {}
        self._tables: Dict[Hashable, SimilarityTable] = {}
        self._lists: Dict[Hashable, SimilarityList] = {}
        self.max_tables = max_tables
        self.max_lists = max_lists
        self._table_hits = 0
        self._table_misses = 0
        self._list_hits = 0
        self._list_misses = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def sync(self, generation: int) -> None:
        """Observe the database generation; drop everything on a change.

        The coarse legacy protocol, kept for whole-database swaps.  The
        engine's per-video path (:meth:`sync_video`) makes an ingest of
        one video invisible to every other video's memoized entries.
        """
        with self._lock:
            if self._generation is None:
                self._generation = generation
            elif self._generation != generation:
                self._tables.clear()
                self._lists.clear()
                self._video_generations.clear()
                self._invalidations += 1
                self._generation = generation

    def sync_video(self, video_id: str, stamp: int) -> None:
        """Observe one video's generation stamp; on a change drop only
        that video's entries.

        Stamps are monotonic per video (:meth:`repro.model.database.
        VideoDatabase.video_generation`), but the cache only compares for
        inequality, so it also tolerates a database swap that rewinds a
        stamp.  Entries of other videos stay warm — the fix for the
        all-or-nothing invalidation that made any append discard every
        memoized table.
        """
        with self._lock:
            known = self._video_generations.get(video_id)
            if known is None:
                self._video_generations[video_id] = stamp
            elif known != stamp:
                self._video_generations[video_id] = stamp
                self._drop_video_locked(video_id)

    def invalidate_video(self, video_id: str) -> int:
        """Drop every entry scoped to one video; returns how many fell.

        Matching is by key shape: list keys carry the video name as a
        component, table keys carry it inside their ``(video, level)``
        scope tuple.  A key part merely *containing* the name deeper down
        can over-match — over-invalidation is safe, under-invalidation is
        not.
        """
        with self._lock:
            return self._drop_video_locked(video_id)

    def _drop_video_locked(self, video_id: str) -> int:
        def touches(key: Hashable) -> bool:
            if not isinstance(key, tuple):
                return False
            return any(
                part == video_id
                or (isinstance(part, tuple) and video_id in part)
                for part in key
            )

        stale_tables = [key for key in self._tables if touches(key)]
        stale_lists = [key for key in self._lists if touches(key)]
        for key in stale_tables:
            del self._tables[key]
        for key in stale_lists:
            del self._lists[key]
        if stale_tables or stale_lists:
            self._invalidations += 1
        return len(stale_tables) + len(stale_lists)

    def clear(self) -> None:
        """Drop all cached entries (counters are kept)."""
        with self._lock:
            self._tables.clear()
            self._lists.clear()
            self._video_generations.clear()

    # ------------------------------------------------------------------
    # tables (subformula memoization)
    # ------------------------------------------------------------------
    def get_table(self, key: Hashable) -> Optional[SimilarityTable]:
        with self._lock:
            table = self._tables.get(key)
            if table is None:
                self._table_misses += 1
            else:
                self._table_hits += 1
            return table

    def put_table(self, key: Hashable, table: SimilarityTable) -> None:
        with self._lock:
            while len(self._tables) >= self.max_tables:
                self._tables.pop(next(iter(self._tables)))
            self._tables[key] = table

    # ------------------------------------------------------------------
    # lists (whole-query memoization)
    # ------------------------------------------------------------------
    def get_list(self, key: Hashable) -> Optional[SimilarityList]:
        with self._lock:
            sim = self._lists.get(key)
            if sim is None:
                self._list_misses += 1
            else:
                self._list_hits += 1
            return sim

    def put_list(self, key: Hashable, sim: SimilarityList) -> None:
        with self._lock:
            while len(self._lists) >= self.max_lists:
                self._lists.pop(next(iter(self._lists)))
            self._lists[key] = sim

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                table_hits=self._table_hits,
                table_misses=self._table_misses,
                list_hits=self._list_hits,
                list_misses=self._list_misses,
                invalidations=self._invalidations,
                table_entries=len(self._tables),
                list_entries=len(self._lists),
            )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"EvaluationCache(tables={stats.table_entries}, "
            f"lists={stats.list_entries}, hits={stats.hits}, "
            f"misses={stats.misses})"
        )


@dataclass(frozen=True)
class PlanCacheStats:
    """A snapshot of plan-cache effectiveness counters."""

    hits: int
    misses: int
    invalidations: int
    entries: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Bounded, generation-invalidated memo for compiled query plans.

    Structurally a sibling of :class:`EvaluationCache` — same FIFO
    eviction, same generation-counter ``sync`` — but values are opaque
    (:class:`repro.core.planner.QueryPlan` objects; typed ``Any`` here so
    the cache layer never imports the planner).
    """

    def __init__(self, max_plans: int = DEFAULT_MAX_PLANS):
        self._lock = threading.Lock()
        self._generation: Optional[int] = None
        self._video_generations: Dict[str, int] = {}
        self._plans: Dict[Hashable, Any] = {}
        # Per-video tags: plan keys are statistics-signature keyed, so
        # one key may serve several videos whose indexes share a
        # signature.  A video's invalidation drops a tagged key only once
        # no other video still holds it.
        self._video_keys: Dict[str, set] = {}
        self._key_videos: Dict[Hashable, set] = {}
        self.max_plans = max_plans
        self._hits = 0
        self._misses = 0
        self._invalidations = 0

    def sync(self, generation: int) -> None:
        """Observe the database generation; drop everything on a change."""
        with self._lock:
            if self._generation is None:
                self._generation = generation
            elif self._generation != generation:
                self._clear_locked()
                self._invalidations += 1
                self._generation = generation

    def sync_video(self, video_id: str, stamp: int) -> None:
        """Observe one video's stamp; drop only its plans on a change.

        Signature-keyed plans cannot silently go stale (a changed index
        changes the signature, hence the key), so this is about memory
        and honest misses, not correctness: the retired keys are exactly
        the ones the mutated video can never hit again.
        """
        with self._lock:
            known = self._video_generations.get(video_id)
            if known is None:
                self._video_generations[video_id] = stamp
            elif known != stamp:
                self._video_generations[video_id] = stamp
                self._drop_video_locked(video_id)

    def invalidate_video(self, video_id: str) -> int:
        """Drop plans tagged (only) to one video; returns how many fell."""
        with self._lock:
            return self._drop_video_locked(video_id)

    def _drop_video_locked(self, video_id: str) -> int:
        dropped = 0
        for key in self._video_keys.pop(video_id, set()):
            holders = self._key_videos.get(key)
            if holders is None:
                continue
            holders.discard(video_id)
            if not holders:
                del self._key_videos[key]
                if self._plans.pop(key, None) is not None:
                    dropped += 1
        if dropped:
            self._invalidations += 1
        return dropped

    def _clear_locked(self) -> None:
        self._plans.clear()
        self._video_keys.clear()
        self._key_videos.clear()
        self._video_generations.clear()

    def _untag_locked(self, key: Hashable) -> None:
        for video_id in self._key_videos.pop(key, set()):
            keys = self._video_keys.get(video_id)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._video_keys[video_id]

    def clear(self) -> None:
        """Drop all cached plans (counters are kept)."""
        with self._lock:
            self._clear_locked()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self._misses += 1
            else:
                self._hits += 1
            return plan

    def put(
        self, key: Hashable, plan: Any, video: Optional[str] = None
    ) -> None:
        with self._lock:
            while len(self._plans) >= self.max_plans:
                evicted = next(iter(self._plans))
                self._plans.pop(evicted)
                self._untag_locked(evicted)
            self._plans[key] = plan
            if video is not None:
                self._video_keys.setdefault(video, set()).add(key)
                self._key_videos.setdefault(key, set()).add(video)

    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                invalidations=self._invalidations,
                entries=len(self._plans),
            )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"PlanCache(entries={stats.entries}, hits={stats.hits}, "
            f"misses={stats.misses})"
        )
