"""The one versioned migration: a format-1 delta chain into a snapshot.

Ingest directories written before checkpoints became store snapshots
keep them as a chain of delta artifacts (``deltas/delta-NNNNNN.json``,
each the full documents and annotation sets of the videos it covers)
committed by the manifest ``DELTAS.json``, whose ``wal_through`` is the
highest WAL sequence the chain folds in.  :func:`migrate_deltas` applies
that chain once — every delta digest-checked, a damaged one copied to
quarantine and refused — commits the result as one store snapshot
carrying the chain's watermark, and only then moves ``DELTAS.json`` and
``deltas/`` aside under ``quarantine/`` (never deleted).

A crash between that commit and the move re-runs the migration on the
next recovery.  Re-running is idempotent: deltas replace whole videos
and the watermark is unchanged, so applying the chain to the migrated
snapshot gives the same state again.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import List, Optional, Tuple

from repro.errors import IngestError
from repro.ingest.layout import IngestLayout
from repro.model.database import VideoDatabase
from repro.model.serialize import simlist_from_dict, video_from_dict
from repro.store import SnapshotInfo, Store
from repro.store.atomic import quarantine_path, sha256_hex

DELTAS_MANIFEST_NAME = "DELTAS.json"
DELTAS_DIR_NAME = "deltas"
#: The manifest and delta format this build migrates.
DELTAS_FORMAT = 1


def _apply_chain(
    layout: IngestLayout, database: VideoDatabase, verify: bool
) -> int:
    """Apply the committed chain in manifest order; returns its watermark."""
    path = os.path.join(layout.root, DELTAS_MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        version = manifest.get("format")
        order = manifest["order"]
        entries = manifest["entries"]
        if not isinstance(order, list) or any(
            not isinstance(entries.get(name), dict) for name in order
        ):
            raise ValueError("'order' must name entries of 'entries'")
        wal_through = int(manifest.get("wal_through", 0))
    except Exception as error:
        raise IngestError(
            f"delta manifest {path!r} unreadable: {error!r}", path=path
        ) from error
    if version != DELTAS_FORMAT:
        raise IngestError(
            f"delta manifest carries format {version!r}; this build "
            f"migrates version {DELTAS_FORMAT}",
            path=path,
        )
    for name in order:
        delta_path = os.path.join(layout.root, DELTAS_DIR_NAME, name)
        try:
            with open(delta_path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            raise IngestError(
                f"committed delta {name!r} unreadable: {error!r}",
                path=delta_path,
            ) from error
        entry = entries[name]
        if verify and (
            len(data) != entry.get("bytes")
            or sha256_hex(data) != entry.get("sha256")
        ):
            # A delta the manifest commits to is load-bearing state:
            # preserve the damaged bytes and refuse.
            destination = quarantine_path(layout.quarantine_dir, name)
            shutil.copyfile(delta_path, destination)
            raise IngestError(
                f"committed delta {name!r} fails its digest; bytes "
                f"preserved at {destination!r}",
                path=delta_path,
            )
        try:
            document = json.loads(data.decode("utf-8"))
            if document.get("format") != DELTAS_FORMAT:
                raise ValueError(
                    f"delta carries format {document.get('format')!r}"
                )
            for video_document in document.get("videos", []):
                video = video_from_dict(video_document)
                if video.name in database:
                    database.replace(video)
                else:
                    database.add(video)
                database.drop_video_atomics(video.name)
            for atomic in document.get("atomics", []):
                database.register_atomic(
                    str(atomic["predicate"]),
                    str(atomic["video"]),
                    simlist_from_dict(atomic["list"]),
                    level=int(atomic.get("level", 2)),
                )
        except Exception as error:
            raise IngestError(
                f"committed delta {name!r} does not apply: {error!r}",
                path=delta_path,
            ) from error
    return wal_through


def migrate_deltas(
    layout: IngestLayout,
    store: Store,
    database: VideoDatabase,
    verify: bool,
) -> Tuple[Optional[SnapshotInfo], List[str]]:
    """Fold a format-1 delta chain into ``store``, if the root holds one.

    ``database`` is the store's loaded snapshot and is updated in place.
    Returns the committed snapshot (``None`` when there was no chain)
    and the quarantine paths the chain's files moved to.
    """
    manifest_path = os.path.join(layout.root, DELTAS_MANIFEST_NAME)
    deltas_dir = os.path.join(layout.root, DELTAS_DIR_NAME)
    info = None
    moved: List[str] = []
    if os.path.exists(manifest_path):
        wal_through = _apply_chain(layout, database, verify)
        info = store.save(database, wal_through=wal_through)
        moved.append(
            shutil.move(
                manifest_path,
                quarantine_path(layout.quarantine_dir, DELTAS_MANIFEST_NAME),
            )
        )
    if os.path.isdir(deltas_dir):
        moved.append(
            shutil.move(
                deltas_dir,
                quarantine_path(layout.quarantine_dir, DELTAS_DIR_NAME),
            )
        )
    return info, moved
