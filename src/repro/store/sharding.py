"""Per-shard snapshot layout: partitioning a corpus across stores.

The sharded corpus (DESIGN.md §12) scales retrieval past what one index
build and one snapshot load can hold: a corpus is partitioned into N
*shards*, each owning a full crash-safe :class:`~repro.store.Store` in
its own subdirectory, under a top-level ``SHARDS.json`` manifest that
records the partitioning so queries (and recovery) know which videos
each shard owns without touching the shard stores themselves::

    <root>/
      SHARDS.json            # scheme + shard ids + per-shard video names
      shard-000/             # a complete Store (MANIFEST.json, snapshots/)
      shard-001/
      ...

The manifest is the authority on *ownership*; the shard stores are the
authority on *content*.  Recording video names in the manifest is what
lets a dead shard surface as named ``failed`` per-video outcomes — the
query layer can say exactly which videos are missing from a ranking even
when the shard's own store is unreadable.

Partitioning is deterministic round-robin over database insertion order,
so a split is reproducible and every shard gets a spread of the corpus
(not a contiguous prefix, which would concentrate hot videos).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.errors import ShardError
from repro.model.database import VideoDatabase
from repro.store.atomic import atomic_write_json
from repro.store.store import Store

#: On-disk format version of the shard layout manifest.
SHARD_FORMAT_VERSION = 1

SHARDS_MANIFEST = "SHARDS.json"

#: The (only, for now) partitioning scheme.
SCHEME_ROUND_ROBIN = "round-robin"


def shard_id(position: int) -> str:
    return f"shard-{position:03d}"


@dataclass(frozen=True)
class ShardSpec:
    """One shard's identity in a layout: id, directory, owned videos."""

    shard_id: str
    path: str
    videos: Tuple[str, ...]


@dataclass(frozen=True)
class ShardLayout:
    """A parsed, validated ``SHARDS.json``."""

    root: str
    scheme: str
    shards: Tuple[ShardSpec, ...]

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def video_names(self) -> List[str]:
        """Every owned video, in shard order then intra-shard order."""
        return [name for spec in self.shards for name in spec.videos]

    def spec_for(self, video: str) -> ShardSpec:
        """The shard owning one video."""
        for spec in self.shards:
            if video in spec.videos:
                return spec
        raise ShardError(
            f"no shard owns video {video!r}", path=self.root
        )

    def store_path(self, spec: ShardSpec) -> str:
        return os.path.join(self.root, spec.path)

    def store(self, spec: ShardSpec) -> Store:
        """The shard's snapshot store, opened for loading."""
        return Store(self.store_path(spec))


def partition_names(
    names: Sequence[str], n_shards: int
) -> List[List[str]]:
    """Round-robin split of video names into ``n_shards`` groups.

    Deterministic in input order; every group differs in size by at most
    one.  Shards may be empty when there are fewer videos than shards —
    an empty shard is legal (it simply contributes nothing to a query).
    """
    if n_shards < 1:
        raise ShardError(f"shard count must be >= 1, got {n_shards}")
    groups: List[List[str]] = [[] for __ in range(n_shards)]
    for position, name in enumerate(names):
        groups[position % n_shards].append(name)
    return groups


def split_database(
    database: VideoDatabase, n_shards: int
) -> List[VideoDatabase]:
    """Partition a database into per-shard databases (in memory).

    Video objects are shared (they are read-only under query); the
    registered atomic similarity lists of each video travel with it, at
    every level they were registered at.
    """
    groups = partition_names(database.names(), n_shards)
    parts: List[VideoDatabase] = []
    for group in groups:
        part = VideoDatabase()
        for name in group:
            video = database.get(name)
            part.add(video)
            for predicate in database.atomic_names():
                for level in range(1, video.n_levels + 1):
                    sim = database.atomic_list(predicate, name, level)
                    if sim is not None:
                        part.register_atomic(predicate, name, sim, level)
        parts.append(part)
    return parts


def save_sharded(
    database: VideoDatabase,
    root: Any,
    n_shards: int,
    keep: int = 2,
    fsync: bool = True,
) -> ShardLayout:
    """Split a corpus and snapshot every shard under one layout root.

    Each shard directory is a complete :class:`Store` (atomic writes,
    manifest commit point, quarantine) holding only that shard's videos;
    ``SHARDS.json`` is written last, atomically, so a crash mid-split
    leaves either the previous layout or the new one.  Re-splitting an
    existing root with the same shard count adds new snapshots to the
    existing shard stores.
    """
    root = os.fspath(root)
    parts = split_database(database, n_shards)
    existing = _read_layout_or_none(root)
    if existing is not None and existing.n_shards != n_shards:
        raise ShardError(
            f"layout at {root!r} already has {existing.n_shards} shard(s); "
            f"re-split with the same count or use a fresh directory",
            path=root,
        )
    os.makedirs(root, exist_ok=True)
    specs: List[ShardSpec] = []
    for position, part in enumerate(parts):
        name = shard_id(position)
        store = Store(os.path.join(root, name), keep=keep, fsync=fsync)
        store.save(part)
        specs.append(
            ShardSpec(shard_id=name, path=name, videos=tuple(part.names()))
        )
    manifest = {
        "format": SHARD_FORMAT_VERSION,
        "scheme": SCHEME_ROUND_ROBIN,
        "shards": [
            {
                "id": spec.shard_id,
                "path": spec.path,
                "videos": list(spec.videos),
            }
            for spec in specs
        ],
    }
    atomic_write_json(
        os.path.join(root, SHARDS_MANIFEST), manifest, fsync=fsync
    )
    return ShardLayout(
        root=root, scheme=SCHEME_ROUND_ROBIN, shards=tuple(specs)
    )


def _read_layout_or_none(root: str) -> "ShardLayout | None":
    path = os.path.join(os.fspath(root), SHARDS_MANIFEST)
    if not os.path.exists(path):
        return None
    return load_layout(root)


def load_layout(root: Any) -> ShardLayout:
    """Read and validate ``SHARDS.json``; structural junk is a typed error.

    Validation covers the layout manifest only — shard *stores* are
    loaded (and their damage recovered or surfaced) lazily at query
    time, so a corrupt shard never blocks discovering the layout.
    """
    root = os.fspath(root)
    path = os.path.join(root, SHARDS_MANIFEST)
    try:
        with open(path, "rb") as handle:
            document = json.loads(handle.read().decode("utf-8"))
    except FileNotFoundError:
        raise ShardError(
            f"no shard layout at {root!r} (missing {SHARDS_MANIFEST})",
            path=root,
        ) from None
    except (OSError, ValueError) as error:
        raise ShardError(
            f"unreadable shard manifest at {path!r}: {error}", path=path
        ) from error
    if not isinstance(document, dict):
        raise ShardError(
            f"shard manifest at {path!r} must be a JSON object", path=path
        )
    version = document.get("format")
    if version != SHARD_FORMAT_VERSION:
        raise ShardError(
            f"shard layout carries format {version!r}; this build reads "
            f"version {SHARD_FORMAT_VERSION}",
            path=path,
        )
    entries = document.get("shards")
    if not isinstance(entries, list) or not entries:
        raise ShardError(
            f"shard manifest at {path!r} lists no shards", path=path
        )
    specs: List[ShardSpec] = []
    seen_ids: Dict[str, None] = {}
    owners: Dict[str, str] = {}
    for entry in entries:
        if not isinstance(entry, dict):
            raise ShardError(
                f"malformed shard entry in {path!r}: {entry!r}", path=path
            )
        try:
            identifier = str(entry["id"])
            rel_path = str(entry["path"])
            videos = tuple(str(name) for name in entry["videos"])
        except (KeyError, TypeError) as error:
            raise ShardError(
                f"malformed shard entry in {path!r}: {error!r}", path=path
            ) from error
        if identifier in seen_ids:
            raise ShardError(
                f"duplicate shard id {identifier!r} in {path!r}",
                path=path,
                shard=identifier,
            )
        seen_ids[identifier] = None
        if os.path.isabs(rel_path) or ".." in rel_path.split(os.sep):
            raise ShardError(
                f"shard {identifier!r} path {rel_path!r} escapes the "
                f"layout root",
                path=path,
                shard=identifier,
            )
        for name in videos:
            if name in owners:
                raise ShardError(
                    f"video {name!r} owned by both {owners[name]!r} and "
                    f"{identifier!r}",
                    path=path,
                    shard=identifier,
                )
            owners[name] = identifier
        specs.append(
            ShardSpec(shard_id=identifier, path=rel_path, videos=videos)
        )
    return ShardLayout(
        root=root,
        scheme=str(document.get("scheme", SCHEME_ROUND_ROBIN)),
        shards=tuple(specs),
    )
