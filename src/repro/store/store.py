"""The crash-safe snapshot store for video databases (DESIGN.md §9).

The paper assumes a persistent database of per-video meta-data and
precomputed similarity tables that the retrieval algorithms read (§1,
§3); this module gives that database a durable home with one contract —
**a typed error or a correct answer, never silent corruption** —
extended down to disk:

* :meth:`Store.save` writes a *snapshot*: one directory holding the
  video metadata, the registered atomic similarity tables, and the
  derived metadata indices as separate artifacts, each written
  atomically (temp + fsync + rename) and named in a checksummed
  per-snapshot manifest.  The save commits by atomically replacing the
  top-level ``MANIFEST.json``; a crash at any earlier step leaves the
  previous snapshot current and intact.
* :meth:`Store.load` verifies every artifact against the manifest chain
  (``MANIFEST.json`` → ``snapshot.json`` → artifact digests).  Damage —
  truncation, bit rot, a torn write — is *quarantined* (moved aside,
  never deleted) and load falls back along the snapshot chain to the
  newest intact one; a damaged derived index is instead rebuilt from
  the surviving metadata.  Every recovery action is surfaced through
  :mod:`repro.core.trace` counters and the returned
  :class:`StoreLoad.actions`.
* :meth:`Store.verify` is the read-only version of the same checks;
  :meth:`Store.repair` quarantines everything damaged and rewrites the
  manifest over the snapshots that remain fully intact.

Disk faults are injectable at the registered sites
(:data:`~repro.core.resilience.SITE_STORE_WRITE` /
``SITE_STORE_FSYNC`` / ``SITE_STORE_READ``); the crash-recovery suite
in ``tests/store`` sweeps a fault over every write step and asserts the
central invariant: the store afterwards loads at either the old or the
new snapshot, never a hybrid.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core import resilience, trace
from repro.errors import (
    InjectedFaultError,
    ModelError,
    StoreCorruptionError,
    StoreError,
    StoreVersionError,
    StoreWriteError,
)
from repro.model.database import VideoDatabase
from repro.model.hierarchy import Video
from repro.model.serialize import (
    atomics_to_list,
    database_from_parts,
    simlist_from_dict,
    videos_to_list,
)
from repro.pictures.index import MetadataIndex
from repro.pictures.retrieval import PictureRetrievalSystem
from repro.store.atomic import (
    atomic_write_json,
    fsync_directory,
    quarantine_path,
    sha256_hex,
)

#: On-disk format version of the store layout and manifest schemas.
STORE_FORMAT_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"
SNAPSHOT_MANIFEST = "snapshot.json"
VIDEOS_ARTIFACT = "videos.json"
ATOMICS_ARTIFACT = "atomics.json"
INDEX_ARTIFACT = "index.json"

#: Artifacts a snapshot cannot be loaded without.
REQUIRED_ARTIFACTS = (VIDEOS_ARTIFACT, ATOMICS_ARTIFACT)
#: Derived artifacts: damage is recovered by rebuilding, not fallback.
DERIVED_ARTIFACTS = (INDEX_ARTIFACT,)

_SNAPSHOT_NAME = re.compile(r"^snap-(\d{6,})$")

#: Read errors that mean "could not get bytes off disk" — the artifact
#: may be fine, so it is skipped, not quarantined.  Injected read faults
#: model exactly this failure.
_READ_ERRORS = (OSError, InjectedFaultError)


def _snapshot_id(sequence: int) -> str:
    return f"snap-{sequence:06d}"


def _sequence_of(snapshot_id: str) -> Optional[int]:
    match = _SNAPSHOT_NAME.match(snapshot_id)
    return int(match.group(1)) if match else None


def default_level(video: Video) -> int:
    """The level the store persists/prime the picture index at.

    Level 2 — the children of the root — is where §3's algorithms and
    the paper's experiments assert formulas; single-level videos fall
    back to the root.
    """
    return min(2, video.n_levels)


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryAction:
    """One recovery step taken by load/repair, for provenance.

    ``kind`` is one of ``"quarantined"``, ``"fallback"``,
    ``"index-rebuilt"``, ``"manifest-recovered"``, ``"unreadable"``,
    ``"skipped"``.  ``quarantined_to`` is the preserved path of a moved
    damaged file (empty when nothing was moved).
    """

    kind: str
    snapshot: str = ""
    artifact: str = ""
    detail: str = ""
    quarantined_to: str = ""


@dataclass(frozen=True)
class SnapshotInfo:
    """What :meth:`Store.save` committed."""

    snapshot_id: str
    sequence: int
    path: str
    artifacts: Dict[str, Dict[str, Any]]
    pruned: Tuple[str, ...] = ()
    #: highest ingest WAL sequence the snapshot folds in (0: none)
    wal_through: int = 0


@dataclass
class StoreLoad:
    """A loaded database plus the provenance of how it was recovered."""

    database: VideoDatabase
    snapshot_id: str
    verified: bool
    actions: List[RecoveryAction] = field(default_factory=list)
    #: the loaded snapshot's ``wal_through`` (0 when it predates the key)
    wal_through: int = 0

    @property
    def recovered(self) -> bool:
        """True when load had to take any recovery action."""
        return bool(self.actions)


@dataclass(frozen=True)
class ArtifactStatus:
    """One artifact's health in a :class:`VerifyReport`.

    ``status`` is ``"ok"``, ``"missing"``, ``"unreadable"``,
    ``"size-mismatch"``, ``"digest-mismatch"``, or ``"malformed"``.
    ``fatal`` is False for derived artifacts (a damaged index is
    rebuilt, not fallen back from).
    """

    snapshot: str
    artifact: str
    status: str
    fatal: bool = True
    detail: str = ""

    @property
    def damaged(self) -> bool:
        return self.status != "ok"


@dataclass
class VerifyReport:
    """Read-only health report of the whole store."""

    manifest_ok: bool
    manifest_detail: str = ""
    statuses: List[ArtifactStatus] = field(default_factory=list)
    unreferenced: List[str] = field(default_factory=list)
    stray_files: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every referenced snapshot is fully intact."""
        return self.manifest_ok and not any(
            status.damaged and status.fatal for status in self.statuses
        )

    def intact_snapshots(self) -> List[str]:
        """Referenced snapshots whose required artifacts all verified."""
        damaged = {
            status.snapshot
            for status in self.statuses
            if status.damaged and status.fatal
        }
        ordered: List[str] = []
        for status in self.statuses:
            if status.snapshot not in damaged:
                if status.snapshot not in ordered:
                    ordered.append(status.snapshot)
        return ordered


@dataclass
class RepairReport:
    """What :meth:`Store.repair` did."""

    actions: List[RecoveryAction] = field(default_factory=list)
    current: Optional[str] = None
    retained: List[str] = field(default_factory=list)
    dropped: List[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------
class Store:
    """A crash-safe, checksummed snapshot store rooted at one directory."""

    def __init__(self, root: Any, keep: int = 2, fsync: bool = True):
        if keep < 1:
            raise StoreError(f"keep must be >= 1, got {keep}")
        self.root = os.fspath(root)
        self.keep = keep
        self.fsync = fsync

    # -- paths -----------------------------------------------------------
    @property
    def snapshots_dir(self) -> str:
        return os.path.join(self.root, "snapshots")

    @property
    def quarantine_dir(self) -> str:
        return os.path.join(self.root, "quarantine")

    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def snapshot_path(self, snapshot_id: str) -> str:
        return os.path.join(self.snapshots_dir, snapshot_id)

    def _on_disk_snapshots(self) -> List[str]:
        """Snapshot directory names present on disk, oldest first."""
        try:
            names = os.listdir(self.snapshots_dir)
        except OSError:
            return []
        found = [
            name
            for name in names
            if _sequence_of(name) is not None
            and os.path.isdir(self.snapshot_path(name))
        ]
        found.sort(key=lambda name: _sequence_of(name) or 0)
        return found

    # -- quarantine ------------------------------------------------------
    def _quarantine(self, path: str, label: str) -> str:
        """Move a damaged file/directory aside; returns the new path.

        Quarantined artifacts are preserved verbatim for post-mortem —
        the store never deletes evidence of corruption.
        """
        target = quarantine_path(self.quarantine_dir, label)
        shutil.move(path, target)
        trace.METRICS.count(trace.STORE_ARTIFACT_QUARANTINED)
        trace.event(
            trace.STORE_ARTIFACT_QUARANTINED,
            f"moved {os.path.basename(path)} aside to "
            f"{os.path.basename(target)}",
        )
        return target

    def _quarantine_artifact(
        self,
        actions: List[RecoveryAction],
        snapshot_id: str,
        artifact: str,
        detail: str,
    ) -> None:
        path = (
            os.path.join(self.snapshot_path(snapshot_id), artifact)
            if snapshot_id
            else os.path.join(self.root, artifact)
        )
        label = f"{snapshot_id}__{artifact}" if snapshot_id else artifact
        quarantined_to = ""
        if os.path.exists(path):
            quarantined_to = self._quarantine(path, label)
        actions.append(
            RecoveryAction(
                kind="quarantined",
                snapshot=snapshot_id,
                artifact=artifact,
                detail=detail,
                quarantined_to=quarantined_to,
            )
        )

    # -- low-level reads -------------------------------------------------
    def _read_bytes(self, path: str) -> bytes:
        """Read a file through the disk-read fault site.

        The corruption hook sees the raw bytes — the injector's model of
        bit rot is a deterministic flip/truncation of what came off
        disk.
        """
        resilience.fault(resilience.SITE_STORE_READ)
        with open(path, "rb") as handle:
            data = handle.read()
        return resilience.fault_value(resilience.SITE_STORE_READ, data)

    # -- save ------------------------------------------------------------
    def _next_sequence(self) -> int:
        """One past the highest sequence ever allocated.

        Consults both the disk scan and the manifest's ``highest``
        watermark so ids are never reused — not even after repair moves
        a whole snapshot into quarantine (a reused id would make the
        quarantine labels ambiguous).
        """
        highest = 0
        for name in self._on_disk_snapshots():
            highest = max(highest, _sequence_of(name) or 0)
        manifest = self._read_manifest_or_none()
        if manifest is not None:
            try:
                highest = max(highest, int(manifest.get("highest", 0)))
            except (TypeError, ValueError):
                pass
        return highest + 1

    def _index_documents(
        self, database: VideoDatabase
    ) -> Dict[str, Dict[str, Any]]:
        documents: Dict[str, Dict[str, Any]] = {}
        for video in database.videos():
            level = default_level(video)
            system = video.root.pictures_at_level(level)
            documents[video.name] = {
                "level": level,
                "index": system.index.to_dict(),
            }
        return documents

    def save(
        self, database: VideoDatabase, wal_through: int = 0
    ) -> SnapshotInfo:
        """Write a new snapshot and commit it atomically.

        ``wal_through`` is the highest ingest WAL sequence the database
        already holds (:mod:`repro.ingest` checkpoints); it is recorded
        in ``snapshot.json`` and committed by the same manifest replace.

        Write order is the crash-safety argument: every artifact and the
        per-snapshot manifest are atomically written and fsynced inside
        a fresh snapshot directory *before* the top-level manifest is
        atomically replaced.  The manifest replacement is therefore the
        single commit point — a crash (or injected fault) anywhere
        earlier leaves the store exactly at the previous snapshot, and a
        crash after it leaves it exactly at the new one.  Old snapshots
        beyond ``keep`` are pruned only after the commit.
        """
        try:
            os.makedirs(self.snapshots_dir, exist_ok=True)
        except OSError as error:
            raise StoreWriteError(
                f"cannot create store at {self.root!r}: {error}",
                path=self.root,
            ) from error
        sequence = self._next_sequence()
        snapshot_id = _snapshot_id(sequence)
        directory = self.snapshot_path(snapshot_id)
        try:
            os.makedirs(directory)
        except OSError as error:
            raise StoreWriteError(
                f"cannot create snapshot directory {directory!r}: {error}",
                path=directory,
            ) from error

        payloads = {
            VIDEOS_ARTIFACT: {
                "format": STORE_FORMAT_VERSION,
                "videos": videos_to_list(database),
            },
            ATOMICS_ARTIFACT: {
                "format": STORE_FORMAT_VERSION,
                "atomics": atomics_to_list(database),
            },
            INDEX_ARTIFACT: {
                "format": STORE_FORMAT_VERSION,
                "indices": self._index_documents(database),
            },
        }
        artifacts: Dict[str, Dict[str, Any]] = {}
        for name, payload in payloads.items():
            digest, size = atomic_write_json(
                os.path.join(directory, name), payload, fsync=self.fsync
            )
            artifacts[name] = {"sha256": digest, "bytes": size}
        snapshot_manifest = {
            "format": STORE_FORMAT_VERSION,
            "id": snapshot_id,
            "sequence": sequence,
            "artifacts": artifacts,
            "wal_through": wal_through,
        }
        manifest_digest, manifest_size = atomic_write_json(
            os.path.join(directory, SNAPSHOT_MANIFEST),
            snapshot_manifest,
            fsync=self.fsync,
        )
        if self.fsync:
            fsync_directory(directory)
            fsync_directory(self.snapshots_dir)

        previous = self._read_manifest_or_none()
        order: List[str] = []
        digests: Dict[str, Dict[str, Any]] = {}
        if previous is not None:
            for old_id in previous.get("order", []):
                entry = previous.get("snapshots", {}).get(old_id)
                if entry is not None and os.path.isdir(
                    self.snapshot_path(old_id)
                ):
                    order.append(old_id)
                    digests[old_id] = entry
        order.append(snapshot_id)
        digests[snapshot_id] = {
            "sha256": manifest_digest,
            "bytes": manifest_size,
        }
        pruned = tuple(order[: -self.keep]) if len(order) > self.keep else ()
        retained = order[-self.keep :]
        manifest = {
            "format": STORE_FORMAT_VERSION,
            "current": snapshot_id,
            "order": retained,
            "snapshots": {name: digests[name] for name in retained},
            "highest": sequence,
        }
        atomic_write_json(self.manifest_path, manifest, fsync=self.fsync)
        if self.fsync:
            fsync_directory(self.root)
        trace.METRICS.count(trace.STORE_SNAPSHOT_SAVED)
        trace.event(trace.STORE_SNAPSHOT_SAVED, snapshot_id)
        # Retention, after the commit: dropped snapshots are unreferenced
        # by the new manifest, so removing them can never lose the
        # current or fallback state.  Best-effort — a failure here only
        # leaves an unreferenced directory for repair to report.
        for dropped in pruned:
            shutil.rmtree(self.snapshot_path(dropped), ignore_errors=True)
        return SnapshotInfo(
            snapshot_id=snapshot_id,
            sequence=sequence,
            path=directory,
            artifacts=artifacts,
            pruned=pruned,
            wal_through=wal_through,
        )

    # -- manifest --------------------------------------------------------
    def _read_manifest_or_none(self) -> Optional[Dict[str, Any]]:
        """The parsed top manifest, or None when missing/unusable.

        Used on the save path, which only needs the previous order; the
        load path goes through :meth:`_load_manifest` for full recovery.
        """
        try:
            with open(self.manifest_path, "rb") as handle:
                manifest = json.loads(handle.read().decode("utf-8"))
        except (OSError, ValueError):
            return None
        return manifest if isinstance(manifest, dict) else None

    def _recovered_manifest(
        self, actions: List[RecoveryAction], detail: str
    ) -> Dict[str, Any]:
        on_disk = self._on_disk_snapshots()
        if not on_disk:
            raise StoreError(
                f"no snapshot store at {self.root!r}", path=self.root
            )
        trace.METRICS.count(trace.STORE_MANIFEST_RECOVERED)
        trace.event(
            trace.STORE_MANIFEST_RECOVERED,
            "manifest missing or damaged; recovered by disk scan",
        )
        actions.append(
            RecoveryAction(
                kind="manifest-recovered",
                artifact=MANIFEST_NAME,
                detail=detail,
            )
        )
        return {
            "format": STORE_FORMAT_VERSION,
            "current": on_disk[-1],
            "order": on_disk,
            "snapshots": {},
        }

    def _validate_manifest(self, manifest: Any) -> Dict[str, Any]:
        if not isinstance(manifest, dict):
            raise ValueError("manifest must be a JSON object")
        version = manifest.get("format")
        if version != STORE_FORMAT_VERSION:
            raise StoreVersionError(
                f"store manifest carries format {version!r}; this build "
                f"reads version {STORE_FORMAT_VERSION}",
                path=self.manifest_path,
            )
        order = manifest.get("order")
        snapshots = manifest.get("snapshots")
        if not isinstance(order, list) or not isinstance(snapshots, dict):
            raise ValueError("manifest must carry 'order' and 'snapshots'")
        for name in order:
            if _sequence_of(str(name)) is None:
                raise ValueError(f"manifest lists malformed id {name!r}")
        return manifest

    def _load_manifest(
        self, actions: List[RecoveryAction]
    ) -> Dict[str, Any]:
        path = self.manifest_path
        if not os.path.exists(path):
            return self._recovered_manifest(
                actions, "top manifest missing; recovered from disk scan"
            )
        try:
            data = self._read_bytes(path)
        except _READ_ERRORS as error:
            actions.append(
                RecoveryAction(
                    kind="unreadable",
                    artifact=MANIFEST_NAME,
                    detail=repr(error),
                )
            )
            return self._recovered_manifest(
                actions, "top manifest unreadable; recovered from disk scan"
            )
        try:
            return self._validate_manifest(json.loads(data.decode("utf-8")))
        except StoreVersionError:
            raise
        except Exception as error:
            self._quarantine_artifact(
                actions, "", MANIFEST_NAME, f"corrupt manifest: {error!r}"
            )
            return self._recovered_manifest(
                actions, "top manifest corrupt; recovered from disk scan"
            )

    # -- snapshot loading ------------------------------------------------
    def _read_snapshot_manifest(
        self,
        snapshot_id: str,
        manifest: Dict[str, Any],
        verify: bool,
        actions: List[RecoveryAction],
    ) -> Optional[Dict[str, Any]]:
        path = os.path.join(self.snapshot_path(snapshot_id), SNAPSHOT_MANIFEST)
        if not os.path.exists(path):
            actions.append(
                RecoveryAction(
                    kind="skipped",
                    snapshot=snapshot_id,
                    artifact=SNAPSHOT_MANIFEST,
                    detail="snapshot manifest missing",
                )
            )
            return None
        try:
            data = self._read_bytes(path)
        except _READ_ERRORS as error:
            actions.append(
                RecoveryAction(
                    kind="unreadable",
                    snapshot=snapshot_id,
                    artifact=SNAPSHOT_MANIFEST,
                    detail=repr(error),
                )
            )
            return None
        expected = manifest.get("snapshots", {}).get(snapshot_id)
        if verify and isinstance(expected, dict):
            if len(data) != expected.get("bytes") or sha256_hex(
                data
            ) != expected.get("sha256"):
                self._quarantine_artifact(
                    actions,
                    snapshot_id,
                    SNAPSHOT_MANIFEST,
                    "snapshot manifest digest mismatch",
                )
                return None
        try:
            document = json.loads(data.decode("utf-8"))
            if not isinstance(document, dict):
                raise ValueError("snapshot manifest must be a JSON object")
            version = document.get("format")
            if version != STORE_FORMAT_VERSION:
                raise StoreVersionError(
                    f"snapshot {snapshot_id} carries format {version!r}; "
                    f"this build reads version {STORE_FORMAT_VERSION}",
                    path=path,
                )
            artifacts = document.get("artifacts")
            if not isinstance(artifacts, dict):
                raise ValueError("snapshot manifest lists no artifacts")
            # Snapshots written before the key existed fold in no WAL.
            wal_through = document.setdefault("wal_through", 0)
            if type(wal_through) is not int or wal_through < 0:
                raise ValueError(
                    f"wal_through must be a non-negative integer, got "
                    f"{wal_through!r}"
                )
            return document
        except StoreVersionError:
            raise
        except Exception as error:
            self._quarantine_artifact(
                actions,
                snapshot_id,
                SNAPSHOT_MANIFEST,
                f"corrupt snapshot manifest: {error!r}",
            )
            return None

    def _read_artifact(
        self,
        snapshot_id: str,
        name: str,
        snapshot_manifest: Dict[str, Any],
        verify: bool,
        actions: List[RecoveryAction],
    ) -> Optional[Dict[str, Any]]:
        """One verified artifact payload, or None after quarantine/skip."""
        path = os.path.join(self.snapshot_path(snapshot_id), name)
        entry = snapshot_manifest["artifacts"].get(name)
        if not isinstance(entry, dict):
            actions.append(
                RecoveryAction(
                    kind="skipped",
                    snapshot=snapshot_id,
                    artifact=name,
                    detail="artifact not listed in snapshot manifest",
                )
            )
            return None
        if not os.path.exists(path):
            actions.append(
                RecoveryAction(
                    kind="skipped",
                    snapshot=snapshot_id,
                    artifact=name,
                    detail="artifact file missing",
                )
            )
            return None
        try:
            data = self._read_bytes(path)
        except _READ_ERRORS as error:
            actions.append(
                RecoveryAction(
                    kind="unreadable",
                    snapshot=snapshot_id,
                    artifact=name,
                    detail=repr(error),
                )
            )
            return None
        if verify:
            if len(data) != entry.get("bytes"):
                self._quarantine_artifact(
                    actions,
                    snapshot_id,
                    name,
                    f"size mismatch: manifest says {entry.get('bytes')}, "
                    f"read {len(data)} bytes (truncation/torn write)",
                )
                return None
            if sha256_hex(data) != entry.get("sha256"):
                self._quarantine_artifact(
                    actions, snapshot_id, name, "SHA-256 digest mismatch"
                )
                return None
        try:
            payload = json.loads(data.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("artifact payload must be a JSON object")
            return payload
        except Exception as error:
            self._quarantine_artifact(
                actions, snapshot_id, name, f"unparseable artifact: {error!r}"
            )
            return None

    def _install_indices(
        self,
        database: VideoDatabase,
        snapshot_id: str,
        index_payload: Optional[Dict[str, Any]],
        actions: List[RecoveryAction],
    ) -> None:
        """Prime every video's picture system from the index artifact.

        A damaged or missing index is *derived* state: recovery is a
        rebuild from the (already verified) metadata, never a snapshot
        fallback.
        """
        documents = (
            index_payload.get("indices", {})
            if isinstance(index_payload, dict)
            else {}
        )
        for video in database.videos():
            level = default_level(video)
            metadata = [
                node.metadata
                for node in video.root.descendants_at_level(level)
            ]
            system: Optional[PictureRetrievalSystem] = None
            document = documents.get(video.name)
            if (
                isinstance(document, dict)
                and document.get("level") == level
            ):
                try:
                    prebuilt = MetadataIndex.from_dict(document["index"])
                    if prebuilt.n_segments != len(metadata):
                        raise ModelError(
                            f"index covers {prebuilt.n_segments} segments, "
                            f"video has {len(metadata)}"
                        )
                    system = PictureRetrievalSystem(metadata, index=prebuilt)
                except ModelError as error:
                    actions.append(
                        RecoveryAction(
                            kind="index-rebuilt",
                            snapshot=snapshot_id,
                            artifact=INDEX_ARTIFACT,
                            detail=f"restored index for {video.name!r} "
                            f"rejected: {error}",
                        )
                    )
            if system is None:
                if document is None or not isinstance(document, dict):
                    actions.append(
                        RecoveryAction(
                            kind="index-rebuilt",
                            snapshot=snapshot_id,
                            artifact=INDEX_ARTIFACT,
                            detail=f"no persisted index for {video.name!r}; "
                            "rebuilt from surviving metadata",
                        )
                    )
                trace.METRICS.count(trace.STORE_INDEX_REBUILT)
                trace.event(
                    trace.STORE_INDEX_REBUILT,
                    f"rebuilt derived index for {video.name!r}",
                )
                system = PictureRetrievalSystem(metadata)
            video.root.install_pictures(level, system)

    def _load_snapshot(
        self,
        snapshot_id: str,
        manifest: Dict[str, Any],
        verify: bool,
        actions: List[RecoveryAction],
    ) -> Optional[Tuple[VideoDatabase, int]]:
        """The snapshot's database and ``wal_through``, or None."""
        snapshot_manifest = self._read_snapshot_manifest(
            snapshot_id, manifest, verify, actions
        )
        if snapshot_manifest is None:
            return None
        payloads: Dict[str, Dict[str, Any]] = {}
        for name in REQUIRED_ARTIFACTS:
            payload = self._read_artifact(
                snapshot_id, name, snapshot_manifest, verify, actions
            )
            if payload is None:
                return None
            payloads[name] = payload
        try:
            videos = payloads[VIDEOS_ARTIFACT]["videos"]
            if not isinstance(videos, list):
                raise ModelError("videos artifact must carry a list")
            database = database_from_parts(videos, [])
        except (ModelError, KeyError) as error:
            self._quarantine_artifact(
                actions,
                snapshot_id,
                VIDEOS_ARTIFACT,
                f"metadata failed model validation: {error!r}",
            )
            return None
        try:
            atomics = payloads[ATOMICS_ARTIFACT]["atomics"]
            if not isinstance(atomics, list):
                raise ModelError("atomics artifact must carry a list")
            for atomic in atomics:
                database.register_atomic(
                    str(atomic["predicate"]),
                    str(atomic["video"]),
                    simlist_from_dict(atomic["list"]),
                    level=int(atomic.get("level", 2)),
                )
        except (ModelError, KeyError, TypeError, ValueError) as error:
            self._quarantine_artifact(
                actions,
                snapshot_id,
                ATOMICS_ARTIFACT,
                f"similarity tables failed validation: {error!r}",
            )
            return None
        # The index artifact last: damage here never disqualifies the
        # snapshot.
        index_payload = None
        if INDEX_ARTIFACT in snapshot_manifest["artifacts"]:
            index_payload = self._read_artifact(
                snapshot_id, INDEX_ARTIFACT, snapshot_manifest, verify, actions
            )
        self._install_indices(database, snapshot_id, index_payload, actions)
        return database, snapshot_manifest["wal_through"]

    def load(self, verify: bool = True) -> StoreLoad:
        """Load the newest intact snapshot, recovering as needed.

        ``verify=False`` skips the digest checks (the benchmark's
        unverified baseline) but keeps the structural gates — a torn
        JSON file still surfaces as quarantine-and-fallback, never as a
        half-built database.
        """
        actions: List[RecoveryAction] = []
        manifest = self._load_manifest(actions)
        candidates: List[str] = []
        for name in reversed(manifest.get("order", [])):
            if name not in candidates:
                candidates.append(name)
        current = manifest.get("current")
        if isinstance(current, str) and current not in candidates:
            candidates.insert(0, current)
        for name in reversed(self._on_disk_snapshots()):
            if name not in candidates:
                candidates.append(name)
        if not candidates:
            raise StoreError(
                f"store at {self.root!r} has no snapshots", path=self.root
            )
        for position, snapshot_id in enumerate(candidates):
            loaded = self._load_snapshot(
                snapshot_id, manifest, verify, actions
            )
            if loaded is None:
                continue
            database, wal_through = loaded
            if position > 0:
                trace.METRICS.count(trace.STORE_SNAPSHOT_FALLBACK)
                trace.event(
                    trace.STORE_SNAPSHOT_FALLBACK,
                    f"fell back past {position} damaged snapshot(s) "
                    f"to {snapshot_id}",
                )
                actions.append(
                    RecoveryAction(
                        kind="fallback",
                        snapshot=snapshot_id,
                        detail=f"fell back past {position} damaged "
                        f"snapshot(s) to {snapshot_id}",
                    )
                )
            trace.METRICS.count(trace.STORE_SNAPSHOT_LOADED)
            trace.event(trace.STORE_SNAPSHOT_LOADED, snapshot_id)
            return StoreLoad(
                database=database,
                snapshot_id=snapshot_id,
                verified=verify,
                actions=actions,
                wal_through=wal_through,
            )
        quarantined = tuple(
            action.quarantined_to for action in actions if action.quarantined_to
        )
        first_damage = next(
            (
                f"{action.snapshot}/{action.artifact}"
                if action.snapshot
                else action.artifact
                for action in actions
                if action.kind in ("quarantined", "unreadable", "skipped")
            ),
            "",
        )
        raise StoreCorruptionError(
            f"no intact snapshot in store at {self.root!r}; tried "
            f"{', '.join(candidates)}; first damage at {first_damage or '?'}; "
            f"quarantined {len(quarantined)} file(s)",
            path=self.root,
            artifact=first_damage,
            quarantined=quarantined,
        )

    # -- verify ----------------------------------------------------------
    def _artifact_status(
        self, snapshot_id: str, name: str, entry: Any, fatal: bool
    ) -> ArtifactStatus:
        path = os.path.join(self.snapshot_path(snapshot_id), name)
        if not isinstance(entry, dict):
            return ArtifactStatus(
                snapshot_id, name, "malformed", fatal,
                "no digest entry in snapshot manifest",
            )
        if not os.path.exists(path):
            return ArtifactStatus(snapshot_id, name, "missing", fatal)
        try:
            data = self._read_bytes(path)
        except _READ_ERRORS as error:
            return ArtifactStatus(
                snapshot_id, name, "unreadable", fatal, repr(error)
            )
        if len(data) != entry.get("bytes"):
            return ArtifactStatus(
                snapshot_id, name, "size-mismatch", fatal,
                f"manifest says {entry.get('bytes')}, file has {len(data)}",
            )
        if sha256_hex(data) != entry.get("sha256"):
            return ArtifactStatus(snapshot_id, name, "digest-mismatch", fatal)
        return ArtifactStatus(snapshot_id, name, "ok", fatal)

    def verify(self) -> VerifyReport:
        """Check every referenced artifact against the manifest chain.

        Strictly read-only: nothing is quarantined, moved, or rewritten
        — :meth:`load` and :meth:`repair` act on what this reports.
        """
        report = VerifyReport(manifest_ok=True)
        manifest = self._read_manifest_or_none()
        if manifest is None:
            if not self._on_disk_snapshots():
                raise StoreError(
                    f"no snapshot store at {self.root!r}", path=self.root
                )
            report.manifest_ok = False
            report.manifest_detail = "top manifest missing or unparseable"
            order: List[str] = []
        else:
            try:
                self._validate_manifest(manifest)
                order = list(manifest.get("order", []))
            except StoreVersionError:
                raise
            except Exception as error:
                report.manifest_ok = False
                report.manifest_detail = f"malformed manifest: {error!r}"
                order = []
        listed = set(order)
        for snapshot_id in order:
            directory = self.snapshot_path(snapshot_id)
            manifest_entry = (
                manifest.get("snapshots", {}).get(snapshot_id)
                if manifest
                else None
            )
            if not os.path.isdir(directory):
                report.statuses.append(
                    ArtifactStatus(
                        snapshot_id, SNAPSHOT_MANIFEST, "missing", True,
                        "snapshot directory missing",
                    )
                )
                continue
            path = os.path.join(directory, SNAPSHOT_MANIFEST)
            try:
                data = self._read_bytes(path)
            except FileNotFoundError:
                report.statuses.append(
                    ArtifactStatus(snapshot_id, SNAPSHOT_MANIFEST, "missing")
                )
                continue
            except _READ_ERRORS as error:
                report.statuses.append(
                    ArtifactStatus(
                        snapshot_id, SNAPSHOT_MANIFEST, "unreadable", True,
                        repr(error),
                    )
                )
                continue
            if isinstance(manifest_entry, dict) and (
                len(data) != manifest_entry.get("bytes")
                or sha256_hex(data) != manifest_entry.get("sha256")
            ):
                report.statuses.append(
                    ArtifactStatus(
                        snapshot_id, SNAPSHOT_MANIFEST, "digest-mismatch"
                    )
                )
                continue
            try:
                snapshot_manifest = json.loads(data.decode("utf-8"))
                artifacts = snapshot_manifest["artifacts"]
                if not isinstance(artifacts, dict):
                    raise ValueError("artifacts must be an object")
            except Exception as error:
                report.statuses.append(
                    ArtifactStatus(
                        snapshot_id, SNAPSHOT_MANIFEST, "malformed", True,
                        repr(error),
                    )
                )
                continue
            report.statuses.append(
                ArtifactStatus(snapshot_id, SNAPSHOT_MANIFEST, "ok")
            )
            for name in REQUIRED_ARTIFACTS:
                report.statuses.append(
                    self._artifact_status(
                        snapshot_id, name, artifacts.get(name), fatal=True
                    )
                )
            for name in DERIVED_ARTIFACTS:
                if name in artifacts:
                    report.statuses.append(
                        self._artifact_status(
                            snapshot_id, name, artifacts.get(name), fatal=False
                        )
                    )
        for name in self._on_disk_snapshots():
            if name not in listed:
                report.unreferenced.append(name)
        for directory, __, files in os.walk(self.root):
            if os.path.commonpath(
                [directory, self.quarantine_dir]
            ) == self.quarantine_dir:
                continue
            for file_name in files:
                if file_name.endswith(".tmp"):
                    report.stray_files.append(
                        os.path.join(directory, file_name)
                    )
        return report

    # -- repair ----------------------------------------------------------
    def repair(self) -> RepairReport:
        """Quarantine all damage and rewrite the manifest over what's left.

        After a successful repair, :meth:`verify` reports ``ok`` and
        :meth:`load` succeeds without any recovery action (or raises the
        empty-store error when no snapshot survived).  Damaged files and
        whole torn snapshots are moved to quarantine — never deleted.
        """
        report = self.verify()
        outcome = RepairReport()
        damaged_snapshots = set()
        for status in report.statuses:
            if not status.damaged:
                continue
            if status.artifact == SNAPSHOT_MANIFEST or status.fatal:
                damaged_snapshots.add(status.snapshot)
            elif status.status != "missing":
                # Non-fatal (derived) damage: quarantine just the file.
                self._quarantine_artifact(
                    outcome.actions,
                    status.snapshot,
                    status.artifact,
                    f"repair: {status.status}",
                )
        for snapshot_id in sorted(damaged_snapshots):
            directory = self.snapshot_path(snapshot_id)
            if os.path.isdir(directory):
                quarantined_to = self._quarantine(
                    directory, f"{snapshot_id}__snapshot"
                )
                outcome.actions.append(
                    RecoveryAction(
                        kind="quarantined",
                        snapshot=snapshot_id,
                        artifact="*",
                        detail="repair: snapshot failed verification",
                        quarantined_to=quarantined_to,
                    )
                )
            outcome.dropped.append(snapshot_id)
        for stray in report.stray_files:
            label = "stray__" + os.path.basename(stray)
            quarantined_to = self._quarantine(stray, label)
            outcome.actions.append(
                RecoveryAction(
                    kind="quarantined",
                    artifact=os.path.basename(stray),
                    detail="repair: orphaned temp file (torn write)",
                    quarantined_to=quarantined_to,
                )
            )
        # Rebuild the manifest over every remaining intact snapshot,
        # recomputing the snapshot-manifest digests from disk.
        intact: List[Tuple[int, str, Dict[str, Any]]] = []
        for name in self._on_disk_snapshots():
            path = os.path.join(self.snapshot_path(name), SNAPSHOT_MANIFEST)
            try:
                data = self._read_bytes(path)
                document = json.loads(data.decode("utf-8"))
                artifacts = document["artifacts"]
                healthy = all(
                    self._artifact_status(
                        name, artifact, artifacts.get(artifact), True
                    ).status
                    == "ok"
                    for artifact in REQUIRED_ARTIFACTS
                )
            except Exception:
                healthy = False
                data = b""
            if healthy:
                sequence = _sequence_of(name) or 0
                intact.append(
                    (
                        sequence,
                        name,
                        {"sha256": sha256_hex(data), "bytes": len(data)},
                    )
                )
        intact.sort()
        retained = intact[-self.keep :]
        highest = self._next_sequence() - 1
        manifest = {
            "format": STORE_FORMAT_VERSION,
            "current": retained[-1][1] if retained else None,
            "order": [name for __, name, ___ in retained],
            "snapshots": {name: entry for __, name, entry in retained},
            "highest": highest,
        }
        atomic_write_json(self.manifest_path, manifest, fsync=self.fsync)
        if self.fsync:
            fsync_directory(self.root)
        outcome.current = manifest["current"]
        outcome.retained = list(manifest["order"])
        for __, name, ___ in intact[: -self.keep]:
            outcome.dropped.append(name)
        return outcome
