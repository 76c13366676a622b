"""Log compaction: folding the committed WAL into checkpoint deltas.

Replaying a long WAL from the base snapshot is linear in everything that
ever happened; checkpoints bound it.  A checkpoint writes a *delta*
artifact — the full current documents (video hierarchy plus its complete
annotation set) of every video mutated since the previous checkpoint —
and then atomically replaces the delta manifest ``DELTAS.json``, which
is the **single commit point**.  After the manifest lands, the WAL is
reset (marker first, then truncate; see
:meth:`~repro.ingest.wal.WriteAheadLog.reset`).

The base snapshot (a :class:`repro.store.Store` under ``base/``) is
written once when the ingest directory is initialised and never
rewritten: rewriting it at checkpoint time would create a second commit
point, and a crash between "new base" and "new manifest" would leave the
two telling different stories.  Instead a *full* checkpoint
(``full=True``) writes one **merged** delta covering the union of every
video any prior delta touched, and the new manifest references only it —
superseded delta files stay on disk unreferenced (recovery ignores them;
they are litter, not state).

Each manifest entry records the delta's digest and its ``wal_through``
watermark: the highest WAL sequence folded into it.  Recovery replays
only records *above* the manifest's watermark, which is what makes
replay idempotent across repeated crashes during recovery itself.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import resilience, trace
from repro.errors import IngestError
from repro.ingest.layout import IngestLayout
from repro.model.database import VideoDatabase
from repro.model.serialize import (
    simlist_from_dict,
    simlist_to_dict,
    video_from_dict,
    video_to_dict,
)
from repro.store.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    canonical_json_bytes,
    sha256_hex,
)

MANIFEST_FORMAT = 1
DELTA_FORMAT = 1
_DELTA_NAME = re.compile(r"^delta-(\d{6})\.json$")


def _delta_name(sequence: int) -> str:
    return f"delta-{sequence:06d}.json"


@dataclass
class CheckpointInfo:
    """What one checkpoint committed."""

    delta: str
    path: str
    videos: Tuple[str, ...]
    wal_through: int
    full: bool
    superseded: Tuple[str, ...] = ()


@dataclass
class DeltaLoad:
    """The outcome of applying the committed delta chain."""

    applied: List[str] = field(default_factory=list)
    videos: List[str] = field(default_factory=list)
    wal_through: int = 0


def read_manifest(layout: IngestLayout) -> Dict[str, Any]:
    """The delta manifest, or its empty shape when none committed yet."""
    path = layout.deltas_manifest_path
    if not os.path.exists(path):
        return {
            "format": MANIFEST_FORMAT,
            "order": [],
            "entries": {},
            "wal_through": 0,
        }
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        if document.get("format") != MANIFEST_FORMAT:
            raise IngestError(
                f"delta manifest carries format "
                f"{document.get('format')!r}; this build reads "
                f"version {MANIFEST_FORMAT}",
                path=path,
            )
        order = document.get("order")
        entries = document.get("entries")
        if not isinstance(order, list) or not isinstance(entries, dict):
            raise IngestError(
                "delta manifest must carry 'order' and 'entries'",
                path=path,
            )
        for name in order:
            if name not in entries:
                raise IngestError(
                    f"delta manifest orders {name!r} but has no entry "
                    "for it",
                    path=path,
                )
        document["wal_through"] = int(document.get("wal_through", 0))
        return document
    except IngestError:
        raise
    except Exception as error:
        raise IngestError(
            f"delta manifest {path!r} unreadable: {error!r}", path=path
        ) from error


class Compactor:
    """Writes checkpoint deltas and maintains the delta manifest."""

    def __init__(self, layout: IngestLayout, fsync: bool = True):
        self.layout = layout
        self.fsync = fsync

    # -- write side -------------------------------------------------------
    def _next_delta_sequence(self, manifest: Dict[str, Any]) -> int:
        highest = 0
        for name in manifest.get("entries", {}):
            match = _DELTA_NAME.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
        try:
            on_disk = os.listdir(self.layout.deltas_dir)
        except OSError:
            on_disk = []
        for name in on_disk:
            match = _DELTA_NAME.match(name)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest + 1

    def checkpoint(
        self,
        database: VideoDatabase,
        dirty: Sequence[str],
        wal_through: int,
        full: bool = False,
    ) -> Optional[CheckpointInfo]:
        """Fold the given videos' current state into a committed delta.

        ``dirty`` names the videos mutated since the last checkpoint
        (every replayed-or-ingested WAL record up to ``wal_through``
        touched one of them).  ``full=True`` additionally folds every
        video covered by prior deltas into one merged artifact and
        drops the chain to length one.

        Returns ``None`` when there is nothing to do.  The artifact
        write happens entirely before the commit point — a crash before
        the manifest replace leaves an unreferenced delta file and an
        unchanged committed state.
        """
        manifest = read_manifest(layout=self.layout)
        covered: List[str] = []
        if full:
            for name in manifest["order"]:
                for video in manifest["entries"][name].get("videos", []):
                    if video not in covered:
                        covered.append(video)
        for video in dirty:
            if video not in covered:
                covered.append(video)
        if not covered:
            return None
        missing = [name for name in covered if name not in database]
        if missing:
            raise IngestError(
                f"cannot checkpoint videos absent from the database: "
                f"{missing!r}"
            )
        # Keep database insertion order for determinism.
        ordered = [v.name for v in database.videos() if v.name in set(covered)]
        payload = {
            "format": DELTA_FORMAT,
            "wal_through": wal_through,
            "videos": [
                video_to_dict(database.get(name)) for name in ordered
            ],
            "atomics": [
                {
                    "predicate": predicate,
                    "video": name,
                    "level": level,
                    "list": simlist_to_dict(sim),
                }
                for name in ordered
                for predicate, level, sim in sorted(
                    database.video_atomics(name),
                    key=lambda item: (item[0], item[1]),
                )
            ],
        }
        os.makedirs(self.layout.deltas_dir, exist_ok=True)
        sequence = self._next_delta_sequence(manifest)
        name = _delta_name(sequence)
        path = os.path.join(self.layout.deltas_dir, name)
        digest, size = atomic_write_bytes(
            path, canonical_json_bytes(payload), fsync=self.fsync
        )
        entry = {
            "sha256": digest,
            "bytes": size,
            "wal_through": wal_through,
            "videos": ordered,
        }
        if full:
            superseded = tuple(manifest["order"])
            order = [name]
            entries = {name: entry}
        else:
            superseded = ()
            order = list(manifest["order"]) + [name]
            entries = dict(manifest["entries"])
            entries[name] = entry
        new_manifest = {
            "format": MANIFEST_FORMAT,
            "order": order,
            "entries": entries,
            "wal_through": max(wal_through, manifest["wal_through"]),
        }
        # THE commit point: everything before this is invisible to
        # recovery; everything after assumes the manifest landed.
        resilience.fault(resilience.SITE_COMPACT_COMMIT)
        atomic_write_json(
            self.layout.deltas_manifest_path, new_manifest, fsync=self.fsync
        )
        trace.METRICS.count(trace.INGEST_CHECKPOINT)
        return CheckpointInfo(
            delta=name,
            path=path,
            videos=tuple(ordered),
            wal_through=wal_through,
            full=full,
            superseded=superseded,
        )

    # -- read side ----------------------------------------------------------
    def _read_delta(
        self, name: str, entry: Dict[str, Any], verify: bool
    ) -> Dict[str, Any]:
        path = os.path.join(self.layout.deltas_dir, name)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            raise IngestError(
                f"committed delta {name!r} unreadable: {error!r}",
                path=path,
            ) from error
        if verify and (
            len(data) != entry.get("bytes")
            or sha256_hex(data) != entry.get("sha256")
        ):
            # Preserve the damaged bytes (never delete) and refuse:
            # a delta the manifest commits to is load-bearing state.
            destination = self.layout.quarantine_path(name)
            shutil.copyfile(path, destination)
            raise IngestError(
                f"committed delta {name!r} fails its digest; bytes "
                f"preserved at {destination!r}",
                path=path,
            )
        try:
            document = json.loads(data.decode("utf-8"))
        except Exception as error:
            raise IngestError(
                f"committed delta {name!r} is not JSON: {error!r}",
                path=path,
            ) from error
        if document.get("format") != DELTA_FORMAT:
            raise IngestError(
                f"delta {name!r} carries format "
                f"{document.get('format')!r}; this build reads "
                f"version {DELTA_FORMAT}",
                path=path,
            )
        return document

    def apply_deltas(
        self, database: VideoDatabase, verify: bool = True
    ) -> DeltaLoad:
        """Apply the committed delta chain, in manifest order.

        A delta's video document *replaces* the copy already loaded
        (from the base snapshot or an earlier delta), and its annotation
        set replaces the video's registered atomics wholesale.
        """
        manifest = read_manifest(self.layout)
        load = DeltaLoad(wal_through=manifest["wal_through"])
        for name in manifest["order"]:
            document = self._read_delta(
                name, manifest["entries"][name], verify
            )
            try:
                for video_document in document.get("videos", []):
                    video = video_from_dict(video_document)
                    if video.name in database:
                        database.replace(video)
                    else:
                        database.add(video)
                    database.drop_video_atomics(video.name)
                    if video.name not in load.videos:
                        load.videos.append(video.name)
                for atomic in document.get("atomics", []):
                    database.register_atomic(
                        str(atomic["predicate"]),
                        str(atomic["video"]),
                        simlist_from_dict(atomic["list"]),
                        level=int(atomic.get("level", 2)),
                    )
            except IngestError:
                raise
            except Exception as error:
                raise IngestError(
                    f"committed delta {name!r} does not apply: "
                    f"{error!r}",
                    path=os.path.join(self.layout.deltas_dir, name),
                ) from error
            load.applied.append(name)
        return load

    def orphans(self) -> List[str]:
        """Delta files on disk the manifest no longer references.

        Crash litter (artifact written, commit never reached) and
        superseded pre-compaction deltas land here; they are inert and
        reported for observability, never deleted automatically.
        """
        manifest = read_manifest(self.layout)
        referenced = set(manifest["entries"])
        try:
            on_disk = sorted(os.listdir(self.layout.deltas_dir))
        except OSError:
            return []
        return [
            name
            for name in on_disk
            if _DELTA_NAME.match(name) and name not in referenced
        ]
