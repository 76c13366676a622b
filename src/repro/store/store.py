"""The crash-safe snapshot store for video databases (DESIGN.md §9).

The paper assumes a persistent database of per-video meta-data and
precomputed similarity tables that the retrieval algorithms read (§1,
§3); this module gives that database a durable home with one contract —
**a typed error or a correct answer, never silent corruption** —
extended down to disk:

* :meth:`Store.save` writes a *snapshot*: one directory holding the
  video metadata and the registered atomic similarity tables as
  separate artifacts, each written atomically (temp + fsync + rename)
  and named in a checksummed per-snapshot manifest.  Nothing derived is
  persisted: every metadata index is built from the verified metadata
  on first use.  The save commits by atomically replacing the
  top-level ``MANIFEST.json``; a crash at any earlier step leaves the
  previous snapshot current and intact.
* One check, :meth:`Store._check`, judges a snapshot: the manifest
  chain (``MANIFEST.json`` → ``snapshot.json`` → artifact digests), the
  JSON parse, the format version, ``wal_through`` and model
  construction.  Its per-artifact :class:`ArtifactStatus` list is the
  single answer to "is this snapshot intact?".
* :meth:`Store.load` acts on that answer.  Damage — truncation, bit
  rot, a torn write — is *quarantined* (moved aside, never deleted) and
  load falls back along the snapshot chain to the newest intact one.
  Every recovery action is surfaced through :mod:`repro.core.trace`
  counters and the returned :class:`StoreLoad.actions`.
* :meth:`Store.verify` reports the same check read-only, over the same
  snapshots in the same order; :meth:`Store.repair` quarantines what it
  reports damaged and rewrites the manifest over what passed.

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
from dataclasses import dataclass, field, replace
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
from repro.model.serialize import (
    atomics_to_list,
    database_from_parts,
    simlist_from_dict,
    videos_to_list,
)
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

#: Every artifact a snapshot holds; it cannot be loaded without each.
#: Any other file an older ``snapshot.json`` lists (the ``index.json``
#: of derived indices) is never read.
REQUIRED_ARTIFACTS = (VIDEOS_ARTIFACT, ATOMICS_ARTIFACT)

_SNAPSHOT_NAME = re.compile(r"^snap-(\d{6,})$")
#: Quarantine labels of a snapshot's files or whole directory.
_QUARANTINED_NAME = re.compile(r"^snap-(\d{6,})__")

#: Read errors that mean "could not get bytes off disk" — the artifact
#: may be fine, so it is skipped, not quarantined.  Injected read faults
#: model exactly this failure.
_READ_ERRORS = (OSError, InjectedFaultError)


def _snapshot_id(sequence: int) -> str:
    return f"snap-{sequence:06d}"


def _sequence_of(snapshot_id: str) -> Optional[int]:
    match = _SNAPSHOT_NAME.match(snapshot_id)
    return int(match.group(1)) if match else None


# ---------------------------------------------------------------------------
# result records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RecoveryAction:
    """One recovery step taken by load/repair, for provenance.

    ``kind`` is one of ``"quarantined"``, ``"fallback"``,
    ``"manifest-recovered"``, ``"unreadable"``, ``"skipped"``.
    ``quarantined_to`` is the preserved path of a moved damaged file
    (empty when nothing was moved).
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
    Any damage disqualifies the snapshot.
    """

    snapshot: str
    artifact: str
    status: str
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
        """True when every referenced snapshot is fully intact.

        Damage confined to unreferenced snapshots (the debris of a save
        that crashed before its commit) is reported but not fatal.
        """
        return self.manifest_ok and not any(
            status.damaged and status.snapshot not in self.unreferenced
            for status in self.statuses
        )

    def intact_snapshots(self) -> List[str]:
        """Snapshots with no damage, in the order load tries them.

        The first one is the snapshot :meth:`Store.load` returns.
        """
        damaged = {
            status.snapshot for status in self.statuses if status.damaged
        }
        return list(
            dict.fromkeys(
                status.snapshot
                for status in self.statuses
                if status.snapshot not in damaged
            )
        )


@dataclass
class RepairReport:
    """What :meth:`Store.repair` did."""

    actions: List[RecoveryAction] = field(default_factory=list)
    current: Optional[str] = None
    retained: List[str] = field(default_factory=list)
    dropped: List[str] = field(default_factory=list)


@dataclass
class _Checked:
    """One snapshot as :meth:`Store._check` found it."""

    statuses: List[ArtifactStatus] = field(default_factory=list)
    #: the parsed ``snapshot.json`` and its bytes as read
    document: Dict[str, Any] = field(default_factory=dict)
    raw: bytes = b""
    #: the rebuilt model; None when a damaged status disqualified it
    database: Optional[VideoDatabase] = None

    def reject(self, artifact: str, detail: str) -> "_Checked":
        """Mark an artifact that read fine as failing a later rule."""
        self.statuses = [
            replace(status, status="malformed", detail=detail)
            if status.artifact == artifact
            else status
            for status in self.statuses
        ]
        return self


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

    def _path(self, snapshot_id: str, name: str) -> str:
        """A snapshot's file, or a root file when ``snapshot_id`` is empty."""
        if snapshot_id:
            return os.path.join(self.snapshot_path(snapshot_id), name)
        return os.path.join(self.root, name)

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
        path = self._path(snapshot_id, artifact)
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

    def _record(
        self, status: ArtifactStatus, actions: List[RecoveryAction]
    ) -> None:
        """Load's action for one damaged status: quarantine what is
        provably bad, skip what is absent or could not be read."""
        kind = {"missing": "skipped", "unreadable": "unreadable"}.get(
            status.status
        )
        if kind is None:
            self._quarantine_artifact(
                actions,
                status.snapshot,
                status.artifact,
                f"{status.status}: {status.detail}",
            )
            return
        actions.append(
            RecoveryAction(
                kind=kind,
                snapshot=status.snapshot,
                artifact=status.artifact,
                detail=status.detail,
            )
        )

    # -- reads -----------------------------------------------------------
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

    def _read_json(
        self, snapshot_id: str, name: str, entry: Any
    ) -> Tuple[Optional[Dict[str, Any]], ArtifactStatus, bytes]:
        """Read one JSON-object file once: ``(payload, status, bytes)``.

        ``entry`` is the ``{"sha256", "bytes"}`` record the file must
        match, or None for a file no manifest vouches for: the top
        manifest, or the ``snapshot.json`` of a snapshot found by disk
        scan.  ``payload`` is None unless the status is ``"ok"``.
        """

        def status(kind: str, detail: str = "") -> ArtifactStatus:
            return ArtifactStatus(snapshot_id, name, kind, detail)

        path = self._path(snapshot_id, name)
        if not os.path.exists(path):
            return None, status("missing", "file missing"), b""
        try:
            data = self._read_bytes(path)
        except _READ_ERRORS as error:
            return None, status("unreadable", repr(error)), b""
        if isinstance(entry, dict):
            if len(data) != entry.get("bytes"):
                return None, status(
                    "size-mismatch",
                    f"manifest says {entry.get('bytes')}, read {len(data)} "
                    "bytes (truncation/torn write)",
                ), data
            if sha256_hex(data) != entry.get("sha256"):
                return None, status(
                    "digest-mismatch", "SHA-256 digest mismatch"
                ), data
        try:
            payload = json.loads(data.decode("utf-8"))
        except ValueError as error:
            return None, status("malformed", f"unparseable: {error!r}"), data
        if not isinstance(payload, dict):
            return None, status("malformed", "not a JSON object"), data
        return payload, status("ok"), data

    def _read_manifest(
        self,
    ) -> Tuple[Optional[Dict[str, Any]], ArtifactStatus]:
        """The one reader of ``MANIFEST.json``.

        Returns the validated manifest, or None with the status that
        says why it is unusable.  A foreign format version raises
        :class:`StoreVersionError`: that is an incompatibility, not
        damage, so nothing may act on it.
        """
        manifest, status, __ = self._read_json("", MANIFEST_NAME, None)
        if manifest is None:
            return None, status
        version = manifest.get("format")
        if version != STORE_FORMAT_VERSION:
            raise StoreVersionError(
                f"store manifest carries format {version!r}; this build "
                f"reads version {STORE_FORMAT_VERSION}",
                path=self.manifest_path,
            )
        order = manifest.get("order")
        if not isinstance(order, list) or not isinstance(
            manifest.get("snapshots"), dict
        ):
            problem = "manifest must carry 'order' and 'snapshots'"
        elif any(_sequence_of(str(name)) is None for name in order):
            problem = f"manifest lists a malformed id in {order!r}"
        else:
            return manifest, status
        return None, replace(status, status="malformed", detail=problem)

    def _candidates(
        self, manifest: Optional[Dict[str, Any]]
    ) -> Tuple[List[str], List[str]]:
        """The snapshots load tries, in order, and the unreferenced ones.

        The manifest's snapshots come first, newest first (its
        ``current`` leads when unlisted), then every other snapshot on
        disk, newest first.  Without a usable manifest every snapshot on
        disk is a candidate.
        """
        on_disk = self._on_disk_snapshots()
        listed: List[str] = []
        if manifest is not None:
            listed = list(dict.fromkeys(reversed(manifest["order"])))
            current = manifest.get("current")
            if (
                isinstance(current, str)
                and _sequence_of(current) is not None
                and current not in listed
            ):
                listed.insert(0, current)
        elif not on_disk:
            raise StoreError(
                f"no snapshot store at {self.root!r}", path=self.root
            )
        unreferenced = [
            name for name in reversed(on_disk) if name not in listed
        ]
        return listed + unreferenced, unreferenced

    # -- the one snapshot check -----------------------------------------
    def _check(
        self,
        snapshot_id: str,
        manifest: Optional[Dict[str, Any]],
    ) -> _Checked:
        """Judge one snapshot: the check load, verify and repair share.

        Reads ``snapshot.json`` and each artifact once and applies, in
        order: size and digest (against ``manifest``'s record of
        ``snapshot.json`` and ``snapshot.json``'s record of each
        artifact; no manifest means no record to compare), the JSON
        parse, the format version (a foreign one raises
        :class:`StoreVersionError`), the artifact table and
        ``wal_through``, then model construction of the videos and
        atomics.  Files ``snapshot.json`` lists beyond
        :data:`REQUIRED_ARTIFACTS` are never read.
        """
        checked = _Checked()
        expected = (
            manifest["snapshots"].get(snapshot_id)
            if manifest is not None
            else None
        )
        document, status, checked.raw = self._read_json(
            snapshot_id, SNAPSHOT_MANIFEST, expected
        )
        checked.statuses.append(status)
        if document is None:
            return checked
        version = document.get("format")
        if version != STORE_FORMAT_VERSION:
            raise StoreVersionError(
                f"snapshot {snapshot_id} carries format {version!r}; "
                f"this build reads version {STORE_FORMAT_VERSION}",
                path=self._path(snapshot_id, SNAPSHOT_MANIFEST),
            )
        artifacts = document.get("artifacts")
        # Snapshots written before the key existed fold in no WAL.
        wal_through = document.setdefault("wal_through", 0)
        if not isinstance(artifacts, dict):
            return checked.reject(
                SNAPSHOT_MANIFEST, "snapshot manifest lists no artifacts"
            )
        if type(wal_through) is not int or wal_through < 0:
            return checked.reject(
                SNAPSHOT_MANIFEST,
                f"wal_through must be a non-negative integer, got "
                f"{wal_through!r}",
            )
        checked.document = document

        def read(name: str) -> Optional[Dict[str, Any]]:
            entry = artifacts.get(name)
            if isinstance(entry, dict):
                payload, status, __ = self._read_json(snapshot_id, name, entry)
            else:
                payload = None
                status = ArtifactStatus(
                    snapshot_id, name, "missing",
                    "not listed in snapshot manifest",
                )
            checked.statuses.append(status)
            return payload

        videos = read(VIDEOS_ARTIFACT)
        atomics = read(ATOMICS_ARTIFACT)
        if videos is None or atomics is None:
            return checked
        try:
            video_documents = videos["videos"]
            if not isinstance(video_documents, list):
                raise ModelError("videos artifact must carry a list")
            database = database_from_parts(video_documents, [])
        except (ModelError, KeyError) as error:
            return checked.reject(
                VIDEOS_ARTIFACT,
                f"metadata failed model validation: {error!r}",
            )
        try:
            atomic_documents = atomics["atomics"]
            if not isinstance(atomic_documents, list):
                raise ModelError("atomics artifact must carry a list")
            for atomic in atomic_documents:
                database.register_atomic(
                    str(atomic["predicate"]),
                    str(atomic["video"]),
                    simlist_from_dict(atomic["list"]),
                    level=int(atomic.get("level", 2)),
                )
        except (ModelError, KeyError, TypeError, ValueError) as error:
            return checked.reject(
                ATOMICS_ARTIFACT,
                f"similarity tables failed validation: {error!r}",
            )
        checked.database = database
        return checked

    # -- save ------------------------------------------------------------
    def _next_sequence(self, manifest: Optional[Dict[str, Any]]) -> int:
        """One past the highest sequence ever allocated.

        Counts the snapshots on disk, the ``snap-NNNNNN__…`` names under
        ``quarantine/`` and the manifest's ``highest`` watermark, so ids
        are never reused — not even after repair quarantined a whole
        snapshot and the manifest was later lost (a reused id would make
        the quarantine labels ambiguous).
        """
        try:
            quarantined = os.listdir(self.quarantine_dir)
        except OSError:
            quarantined = []
        sequences = [
            _sequence_of(name) or 0 for name in self._on_disk_snapshots()
        ]
        sequences += [
            int(match.group(1))
            for match in map(_QUARANTINED_NAME.match, quarantined)
            if match
        ]
        highest = max(sequences, default=0)
        if manifest is not None:
            try:
                highest = max(highest, int(manifest.get("highest", 0)))
            except (TypeError, ValueError):
                pass
        return highest + 1

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
        previous, __ = self._read_manifest()
        try:
            os.makedirs(self.snapshots_dir, exist_ok=True)
        except OSError as error:
            raise StoreWriteError(
                f"cannot create store at {self.root!r}: {error}",
                path=self.root,
            ) from error
        sequence = self._next_sequence(previous)
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

        order: List[str] = []
        digests: Dict[str, Dict[str, Any]] = {}
        if previous is not None:
            for old_id in previous["order"]:
                entry = previous["snapshots"].get(old_id)
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

    # -- load ------------------------------------------------------------
    def load(self, *, verify: bool = True) -> StoreLoad:
        """Load the newest intact snapshot, recovering as needed.

        Each candidate goes through :meth:`_check`; every damaged status
        becomes a recovery action — size, digest and malformed damage is
        quarantined, a missing file is skipped, an unreadable one stays
        unreadable — and load falls back to the next candidate.  Every
        load compares sizes and digests; ``verify`` accepts only True
        and is kept for callers that still pass it.
        """
        if verify is not True:
            raise StoreError(
                f"load always checks digests; verify must be True, got "
                f"{verify!r}",
                path=self.root,
            )
        actions: List[RecoveryAction] = []
        manifest, status = self._read_manifest()
        if manifest is None and status.status != "missing":
            self._record(status, actions)
        candidates, __ = self._candidates(manifest)
        if manifest is None:
            trace.METRICS.count(trace.STORE_MANIFEST_RECOVERED)
            trace.event(
                trace.STORE_MANIFEST_RECOVERED,
                "manifest missing or damaged; recovered by disk scan",
            )
            actions.append(
                RecoveryAction(
                    kind="manifest-recovered",
                    artifact=MANIFEST_NAME,
                    detail=f"top manifest {status.status}; recovered from "
                    "disk scan",
                )
            )
        if not candidates:
            raise StoreError(
                f"store at {self.root!r} has no snapshots", path=self.root
            )
        for position, snapshot_id in enumerate(candidates):
            checked = self._check(snapshot_id, manifest)
            for status in checked.statuses:
                if status.damaged:
                    self._record(status, actions)
            if checked.database is None:
                continue
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
                database=checked.database,
                snapshot_id=snapshot_id,
                actions=actions,
                wal_through=checked.document["wal_through"],
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
    def _survey(
        self,
    ) -> Tuple[Optional[Dict[str, Any]], VerifyReport, Dict[str, _Checked]]:
        """The manifest, the report and each candidate's check."""
        manifest, status = self._read_manifest()
        candidates, unreferenced = self._candidates(manifest)
        report = VerifyReport(
            manifest_ok=manifest is not None,
            manifest_detail=""
            if manifest is not None
            else f"top manifest {status.status}: {status.detail}",
            unreferenced=unreferenced,
        )
        checks: Dict[str, _Checked] = {}
        for snapshot_id in candidates:
            checks[snapshot_id] = self._check(snapshot_id, manifest)
            report.statuses.extend(checks[snapshot_id].statuses)
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
        return manifest, report, checks

    def verify(self) -> VerifyReport:
        """Run load's check over load's candidates, read-only.

        Every snapshot :meth:`load` would try — the manifest's, then the
        unreferenced ones on disk — is judged by the same
        :meth:`_check` in the same order, so ``intact_snapshots()[0]``
        is the snapshot load returns.  Nothing is quarantined, moved, or
        rewritten; :meth:`load` and :meth:`repair` act on what this
        reports.  A foreign format version in any candidate raises
        :class:`StoreVersionError` (load raises once it reaches one).
        """
        return self._survey()[1]

    # -- repair ----------------------------------------------------------
    def repair(self) -> RepairReport:
        """Quarantine everything verify reports damaged; rewrite the manifest.

        Stray ``*.tmp`` files and every snapshot :meth:`verify` does not
        report intact — referenced or not — move to quarantine, never
        deleted.  The new manifest lists the newest ``keep`` intact
        snapshots with the digests of their ``snapshot.json`` as read.
        Afterwards :meth:`verify` reports ``ok`` and :meth:`load`
        succeeds without any recovery action (or raises the empty-store
        error when no snapshot survived).  A foreign format version
        raises :class:`StoreVersionError` before anything moves.
        """
        manifest, report, checks = self._survey()
        outcome = RepairReport()
        # Strays first: some live inside torn snapshot directories that
        # are about to move.
        for stray in report.stray_files:
            quarantined_to = self._quarantine(
                stray, "stray__" + os.path.basename(stray)
            )
            outcome.actions.append(
                RecoveryAction(
                    kind="quarantined",
                    artifact=os.path.basename(stray),
                    detail="repair: orphaned temp file (torn write)",
                    quarantined_to=quarantined_to,
                )
            )
        intact = report.intact_snapshots()
        for snapshot_id in checks:
            if snapshot_id in intact:
                continue
            directory = self.snapshot_path(snapshot_id)
            if os.path.isdir(directory):
                outcome.actions.append(
                    RecoveryAction(
                        kind="quarantined",
                        snapshot=snapshot_id,
                        artifact="*",
                        detail="repair: snapshot failed verification",
                        quarantined_to=self._quarantine(
                            directory, f"{snapshot_id}__snapshot"
                        ),
                    )
                )
            outcome.dropped.append(snapshot_id)
        intact.sort(key=lambda name: _sequence_of(name) or 0)
        retained = intact[-self.keep :]
        repaired = {
            "format": STORE_FORMAT_VERSION,
            "current": retained[-1] if retained else None,
            "order": retained,
            "snapshots": {
                name: {
                    "sha256": sha256_hex(checks[name].raw),
                    "bytes": len(checks[name].raw),
                }
                for name in retained
            },
            "highest": self._next_sequence(manifest) - 1,
        }
        atomic_write_json(self.manifest_path, repaired, fsync=self.fsync)
        if self.fsync:
            fsync_directory(self.root)
        outcome.current = repaired["current"]
        outcome.retained = retained
        outcome.dropped.extend(intact[: -self.keep])
        return outcome
