"""The meta-data database: a named collection of videos (paper §1).

The paper assumes "a database containing the actual videos, and another
database that contains the meta-data"; we model the latter.  The database
also acts as the registry of externally supplied atomic-predicate
similarity tables — the form in which the paper's experiments feed the
picture-retrieval system's output into the video-retrieval system.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.simlist import SimilarityList
from repro.errors import ModelError
from repro.model.hierarchy import Video

#: One counter for every database of the process: a stamp names one
#: database state of one video, whichever database drew it.
_STAMPS = count(1)


class VideoDatabase:
    """A collection of videos plus registered atomic similarity lists."""

    def __init__(self) -> None:
        self._videos: Dict[str, Video] = {}
        # (predicate name, video name, level) -> similarity list
        self._atomic: Dict[Tuple[str, str, int], SimilarityList] = {}
        # video name -> the stamp of its last mutation.  Each mutation
        # draws a fresh stamp, so the engine's list memo keys a video's
        # state by its stamp and never needs to invalidate.
        self._video_generations: Dict[str, int] = {}

    def video_generation(self, name: str) -> int:
        """The stamp of the video named ``name`` (0 if unknown).

        The by-name twin of :meth:`stamp`, kept for the end-to-end
        benchmark's layer profiler (``benchmarks/e2e/layers.py``); the
        library reads :meth:`stamp`.
        """
        return self._video_generations.get(name, 0)

    def stamp(self, video: Video) -> Optional[int]:
        """The stamp of ``video``'s state, or None when this database does
        not hold that very object (an equal name is not enough).

        Stamps come from one process-wide counter, so two distinct
        mutations never share a stamp, in one database or across two.
        """
        if self._videos.get(video.name) is not video:
            return None
        return self._video_generations[video.name]

    def _bump(self, name: str) -> int:
        stamp = self._video_generations[name] = next(_STAMPS)
        return stamp

    def touch(self, name: str) -> int:
        """Declare that a video's content changed in place; returns its
        new stamp.

        The ingest path mutates hierarchies directly (appending segments
        to a registered video), which the database cannot observe — this
        is how such a mutation enters the generation bookkeeping.
        """
        if name not in self._videos:
            raise ModelError(f"cannot touch unknown video {name!r}")
        return self._bump(name)

    # -- videos --------------------------------------------------------------
    def add(self, video: Video) -> Video:
        """Register a video; names are unique."""
        if video.name in self._videos:
            raise ModelError(f"video {video.name!r} already in the database")
        self._videos[video.name] = video
        self._bump(video.name)
        return video

    def replace(self, video: Video) -> Video:
        """Swap in a newer copy of an already-registered video.

        Kept only for the format-1 delta-chain migration
        (:mod:`repro.ingest.migrate`): a delta carries the full document
        of every video it covers, which supersedes the copy loaded from
        the base snapshot (or an earlier delta).
        """
        if video.name not in self._videos:
            raise ModelError(
                f"cannot replace unknown video {video.name!r}"
            )
        self._videos[video.name] = video
        self._bump(video.name)
        return video

    def get(self, name: str) -> Video:
        try:
            return self._videos[name]
        except KeyError:
            raise ModelError(f"no video named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._videos

    def __len__(self) -> int:
        return len(self._videos)

    def videos(self) -> Iterator[Video]:
        """Iterate videos in insertion order."""
        return iter(self._videos.values())

    def names(self) -> List[str]:
        return list(self._videos)

    # -- registered atomic predicates -----------------------------------------
    def register_atomic(
        self,
        predicate: str,
        video: str,
        sim_list: SimilarityList,
        level: int = 2,
    ) -> None:
        """Attach an externally computed similarity list for an atomic
        predicate over one video's segments at one level.

        ``level`` defaults to 2 — the children of the root, which is where
        §3's algorithms (and the paper's experiments) assert formulas.
        """
        if video not in self._videos:
            raise ModelError(
                f"cannot register atomic {predicate!r}: no video {video!r}"
            )
        self._atomic[(predicate, video, level)] = sim_list
        self._bump(video)

    def atomic_list(
        self, predicate: str, video: str, level: int = 2
    ) -> Optional[SimilarityList]:
        """Look up a registered atomic similarity list (None when absent)."""
        return self._atomic.get((predicate, video, level))

    def max_atomic_actual(
        self, predicate: str, video: str, level: int = 2
    ) -> Optional[float]:
        """Largest actual value on a registered list (None when absent).

        This is the cheap per-video evidence the top-k pruner combines into
        an admissible upper bound: no evaluation of a formula over the
        video can push an atomic's contribution above its list maximum.
        It is the first run of the list's rank order, built once per
        registered list.
        """
        sim = self._atomic.get((predicate, video, level))
        if sim is None:
            return None
        return sim.actuals[sim.rank_order[0]] if sim else 0.0

    def atomic_names(self) -> List[str]:
        """Distinct registered atomic predicate names."""
        return sorted({key[0] for key in self._atomic})

    def drop_video_atomics(self, video: str) -> int:
        """Remove every atomic list of one video; returns how many fell.

        Kept only for the format-1 delta-chain migration
        (:mod:`repro.ingest.migrate`): a delta replaces a video
        wholesale, and its annotation set is re-registered from the
        delta afterwards.
        """
        stale = [key for key in self._atomic if key[1] == video]
        for key in stale:
            del self._atomic[key]
        if stale:
            self._bump(video)
        return len(stale)
