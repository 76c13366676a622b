"""The engine's memos: final per-video lists, ``looks_like`` tables, and
compiled query plans.

The paper's output unit is the similarity list of a formula over one
video (§3.1), a pure function of the formula and the video's data; a
request stream that repeats a query recomputes it.  :class:`ListMemo`
keeps those final lists, one memo per
:class:`~repro.core.engine.RetrievalEngine`, in the spirit of LazyVLM's
reuse of its cheap symbolic stage (PAPERS.md).

The key names one database state of one video: the formula's
:func:`~repro.htl.ast.structural_key`, the level, the video's name, its
database stamp (:meth:`repro.model.database.VideoDatabase.stamp`, drawn
from one process-wide counter) and its root's ``edits`` counter (direct
hierarchy mutations).  A mutation therefore changes the key instead of
invalidating an entry: stale entries are never hit and age out of the
LRU.  The memo is bounded in *accounted* bytes (DESIGN.md §6).

:class:`ClipMemo` keeps the θ-free half of ``looks_like`` scoring, one
:class:`~repro.pictures.signature.ClipTable` per clip value, so every
request for a clip — whatever its θ — reuses the best similarities
earlier requests computed (DESIGN.md §16).  It is bounded the same way.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.core.simlist import SimilarityList
from repro.pictures.signature import Clip, ClipTable, Window

#: The list memo's bound, in accounted bytes.
LIST_MEMO_BYTES = 1 << 20
#: An entry's accounted size: a list of ``r`` runs costs
#: ``RUN_BYTES * r + LIST_BYTES`` (its column tuples and maximum), and the
#: entry ``ENTRY_BYTES`` (key tuple, value tuple, dict slot and the key
#: string's header, measured with tracemalloc) plus one byte per
#: character of its key string.
RUN_BYTES = 112
LIST_BYTES = 100
ENTRY_BYTES = 250
#: The clip memo's bound, in accounted bytes.
CLIP_MEMO_BYTES = 1 << 20
#: An entry of a clip table costs ``SIGNATURE_BYTES + SIGNATURE_BIN_BYTES
#: * n`` for an ``n``-bin signature (key tuple, its floats, the value
#: float and the dict slot); a table ``TABLE_BYTES + WINDOW_BYTES * w +
#: CLIP_BIN_BYTES * b`` for a clip of ``w`` windows and ``b`` bins in all
#: (the clip, its prepared vectors, the table and its registry slot).
#: Both measured with tracemalloc; a signature tuple the corpus also
#: holds costs less than it is accounted, so the bound errs safe.
SIGNATURE_BYTES = 100
SIGNATURE_BIN_BYTES = 32
TABLE_BYTES = 510
WINDOW_BYTES = 275
CLIP_BIN_BYTES = 97
#: Compiled query plans are tiny (decision maps over structural keys).
DEFAULT_MAX_PLANS = 512

#: (structural key, level, video name, database stamp, root edits)
ListKey = Tuple[str, int, str, int, int]


class ListMemo:
    """A byte-bounded LRU memo of final per-video similarity lists.

    An entry holds a list's column tuples, never the list object, and a
    hit hands out a fresh :class:`~repro.core.simlist.SimilarityList`
    over them: a caller that builds ``.entries`` on its copy cannot grow
    the memo past its accounting.  ``hits``, ``misses`` and
    ``evictions`` count since construction; ``nbytes`` is the accounted
    size of what the memo holds, at most ``max_bytes``
    (:data:`LIST_MEMO_BYTES`, read at construction).
    """

    def __init__(self) -> None:
        self.max_bytes = LIST_MEMO_BYTES
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[ListKey, Tuple[Any, ...]]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: ListKey) -> Optional[SimilarityList]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        begins, ends, actuals, maximum, __ = entry
        return SimilarityList.from_columns(begins, ends, actuals, maximum)

    def put(self, key: ListKey, sim: SimilarityList) -> None:
        cost = RUN_BYTES * len(sim) + LIST_BYTES + ENTRY_BYTES + len(key[0])
        if cost > self.max_bytes:
            return
        entry = (sim.begins, sim.ends, sim.actuals, sim.maximum, cost)
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.nbytes -= previous[-1]
            self._entries[key] = entry
            self.nbytes += cost
            while self.nbytes > self.max_bytes:
                __, evicted = self._entries.popitem(last=False)
                self.nbytes -= evicted[-1]
                self.evictions += 1


class ClipMemo:
    """A byte-bounded LRU of θ-free ``looks_like`` tables, one per clip.

    :meth:`table` hands out the table of a clip *value* — a request
    rebuilds its clip tuple, so identity never repeats — and the engine
    binds it to the request's atoms
    (:func:`~repro.pictures.signature.bind_clip_scorers`).  Scorers read
    ``entries`` without a lock; every write goes through :meth:`store`
    under the lock, which accounts it, marks the table most recently
    used and evicts least recently used tables (their ``entries``
    cleared in place) while ``nbytes`` exceeds ``max_bytes``
    (:data:`CLIP_MEMO_BYTES`, read at construction).  An evicted table
    still bound to a live atom stores nothing more; the next request for
    its clip gets a new table.
    """

    def __init__(self) -> None:
        self.max_bytes = CLIP_MEMO_BYTES
        self.nbytes = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._tables: "OrderedDict[Clip, ClipTable]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._tables)

    def table(self, clip: Clip) -> ClipTable:
        with self._lock:
            table = self._tables.get(clip)
            if table is None:
                table = self._tables[clip] = ClipTable(clip, self)
                table.nbytes = (
                    TABLE_BYTES
                    + WINDOW_BYTES * len(clip)
                    + CLIP_BIN_BYTES * sum(map(len, clip))
                )
                self.nbytes += table.nbytes
                self._evict_locked()
            else:
                self._tables.move_to_end(clip)
        return table

    def store(self, table: ClipTable, signature: Window, best: float) -> None:
        cost = SIGNATURE_BYTES + SIGNATURE_BIN_BYTES * len(signature)
        with self._lock:
            if self._tables.get(table.clip) is not table:
                return
            self._tables.move_to_end(table.clip)
            if signature not in table.entries:
                table.entries[signature] = best
                table.nbytes += cost
                self.nbytes += cost
            self._evict_locked()

    def _evict_locked(self) -> None:
        while self.nbytes > self.max_bytes:
            __, evicted = self._tables.popitem(last=False)
            self.nbytes -= evicted.nbytes
            evicted.nbytes = 0
            evicted.entries.clear()
            self.evictions += 1


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

    FIFO eviction and generation-counter ``sync``; values are opaque
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
