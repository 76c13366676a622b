"""The live ingest front door: WAL-first appends over a recovered state.

Every mutation follows the same discipline:

1. **validate** against the current in-memory state (a poison operation
   must never reach the log — replay has to apply whatever the log
   holds);
2. **append** the record to the WAL (visible, not yet durable);
3. **apply** through the exact code path recovery replays
   (:func:`repro.ingest.ops.apply`), which keeps indexes incremental
   and stamps the video's cache generation.

:meth:`commit` is the durability boundary — records batch in the OS
buffer until one fsync covers them all (the paper-era "group commit").
:meth:`checkpoint` saves the database as a snapshot of the ``base/``
store, watermarked with the last committed WAL sequence, and resets the
WAL.

Listeners (e.g. a serving pool's ``refresh``) fire after each commit
with the names of the videos that batch touched — commit is when the
data is both visible *and* durable, so it is the earliest point a
serving tier should re-warm against.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core import trace
from repro.core.simlist import SimilarityList
from repro.errors import IngestError
from repro.ingest import ops
from repro.ingest.layout import IngestLayout, PathLike
from repro.ingest.recover import RecoveredState, recover
from repro.model.database import VideoDatabase
from repro.model.metadata import SegmentMetadata
from repro.store import SnapshotInfo, Store

Listener = Callable[[Tuple[str, ...]], None]


def initialise(
    root: PathLike,
    database: Optional[VideoDatabase] = None,
    fsync: bool = True,
    keep: int = 2,
) -> "Ingester":
    """Create a fresh ingest directory seeded with ``database``.

    Writes the store's first snapshot (``wal_through`` 0).  Refuses a
    root that already holds an ingest directory.
    """
    layout = IngestLayout(root)
    if os.path.exists(layout.wal_commit_path) or os.path.exists(
        layout.base_dir
    ):
        raise IngestError(
            f"{layout.root!r} already holds an ingest directory; "
            "open it with Ingester() instead",
            path=layout.root,
        )
    os.makedirs(layout.root, exist_ok=True)
    Store(layout.base_dir, keep=keep, fsync=fsync).save(
        database if database is not None else VideoDatabase()
    )
    return Ingester(root, fsync=fsync, keep=keep)


class Ingester:
    """Crash-safe streaming mutations over one ingest directory.

    Opening an ingester *is* recovery: the constructor replays the
    committed state (snapshot + WAL) and resumes from it, so the
    code path a crash exercises is the code path every clean start
    exercises too.
    """

    def __init__(
        self,
        root: PathLike,
        fsync: bool = True,
        keep: int = 2,
        auto_commit: Optional[int] = None,
    ):
        if auto_commit is not None and auto_commit < 1:
            raise IngestError(
                f"auto_commit must be a positive batch size, got "
                f"{auto_commit!r}"
            )
        self.layout = IngestLayout(root)
        self.fsync = fsync
        self.auto_commit = auto_commit
        self.recovered: RecoveredState = recover(root, fsync=fsync, keep=keep)
        self.database: VideoDatabase = self.recovered.database
        self._wal = self.recovered.wal
        self._store = Store(self.layout.base_dir, keep=keep, fsync=fsync)
        # Videos changed since the last checkpoint; none means there is
        # nothing to checkpoint.
        self._dirty: List[str] = list(self.recovered.dirty)
        # Videos touched since the last commit (listener payload).
        self._uncommitted: List[str] = []
        self._listeners: List[Listener] = []
        self._closed = False

    # -- introspection ---------------------------------------------------
    @property
    def dirty(self) -> Tuple[str, ...]:
        """Videos changed since the last checkpoint."""
        return tuple(self._dirty)

    @property
    def pending(self) -> int:
        """Appended records not yet covered by a commit."""
        return self._wal.uncommitted_records

    @property
    def last_sequence(self) -> int:
        """Sequence of the newest appended record (0 when none)."""
        return self._wal.next_sequence - 1

    def add_listener(self, listener: Listener) -> None:
        """Call ``listener(video_names)`` after each successful commit."""
        self._listeners.append(listener)

    # -- mutations ------------------------------------------------------
    def submit(self, op: ops.IngestOp) -> int:
        """Log then apply one operation; returns its WAL sequence."""
        self._guard()
        ops.validate(op, self.database)
        sequence = self._wal.append(op)
        name = ops.apply(op, self.database)
        if name not in self._dirty:
            self._dirty.append(name)
        if name not in self._uncommitted:
            self._uncommitted.append(name)
        if (
            self.auto_commit is not None
            and self._wal.uncommitted_records >= self.auto_commit
        ):
            self.commit()
        return sequence

    def add_video(
        self,
        name: str,
        segments: Iterable[SegmentMetadata] = (),
        child_level_name: str = "shot",
    ) -> int:
        return self.submit(
            ops.AddVideo(
                name=name,
                segments=tuple(segments),
                child_level_name=child_level_name,
            )
        )

    def append_segments(
        self, video: str, segments: Iterable[SegmentMetadata]
    ) -> int:
        return self.submit(
            ops.AppendSegments(video=video, segments=tuple(segments))
        )

    def add_annotations(
        self,
        video: str,
        predicate: str,
        sim: SimilarityList,
        level: int = 2,
    ) -> int:
        return self.submit(
            ops.AddAnnotations(
                video=video, predicate=predicate, sim=sim, level=level
            )
        )

    # -- durability ----------------------------------------------------
    def commit(self) -> Tuple[str, ...]:
        """Make every appended record durable; returns the videos the
        batch touched (also handed to listeners)."""
        self._guard()
        self._wal.commit()
        batch = tuple(self._uncommitted)
        self._uncommitted = []
        if batch:
            for listener in self._listeners:
                listener(batch)
        return batch

    def checkpoint(self) -> Optional[SnapshotInfo]:
        """Save the database as a store snapshot and reset the log.

        Commits first (a snapshot must never hold records the WAL has
        not made durable).  The snapshot's ``wal_through`` is the last
        committed sequence, and the store's manifest replace is the
        checkpoint's one commit point.  Returns ``None`` when no video
        changed since the last checkpoint.
        """
        self._guard()
        self.commit()
        if not self._dirty:
            return None
        info = self._store.save(
            self.database, wal_through=self._wal.last_committed_sequence
        )
        trace.METRICS.count(trace.INGEST_CHECKPOINT)
        # Only after the snapshot committed is it safe to drop the log.
        self._wal.reset()
        self._dirty = []
        return info

    def close(self) -> None:
        """Commit any pending records and release the log handle."""
        if self._closed:
            return
        if self._wal.uncommitted_records:
            self.commit()
        self._wal.close()
        self._closed = True

    def __enter__(self) -> "Ingester":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On an exception path the WAL may be poisoned; don't let a
        # doomed commit mask the original error.
        if exc_type is None:
            self.close()
        else:
            self._wal.close()
            self._closed = True

    def _guard(self) -> None:
        if self._closed:
            raise IngestError("this ingester is closed")
