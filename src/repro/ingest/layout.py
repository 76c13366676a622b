"""On-disk layout of one ingest directory (DESIGN.md §15).

Everything the crash-safe ingest path persists lives under a single
root::

    <root>/
      base/             # a repro.store.Store: every checkpoint is one
                        # of its snapshots, watermarked by wal_through
      wal.log           # framed, CRC-checksummed append-only records
      wal.commit.json   # the WAL's strict commit point (atomic replace)
      quarantine/       # damaged bytes are moved here, never deleted

The layout object is pure path arithmetic — construction creates
nothing; each writer creates the directories it needs.
"""

from __future__ import annotations

import os
from typing import Union

PathLike = Union[str, "os.PathLike[str]"]

WAL_LOG_NAME = "wal.log"
WAL_COMMIT_NAME = "wal.commit.json"
BASE_DIR_NAME = "base"
QUARANTINE_DIR_NAME = "quarantine"


class IngestLayout:
    """Path arithmetic for one ingest root."""

    __slots__ = ("root",)

    def __init__(self, root: PathLike):
        self.root = os.fspath(root)

    @property
    def base_dir(self) -> str:
        return os.path.join(self.root, BASE_DIR_NAME)

    @property
    def wal_log_path(self) -> str:
        return os.path.join(self.root, WAL_LOG_NAME)

    @property
    def wal_commit_path(self) -> str:
        return os.path.join(self.root, WAL_COMMIT_NAME)

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.root, QUARANTINE_DIR_NAME)

    def __repr__(self) -> str:
        return f"IngestLayout({self.root!r})"
