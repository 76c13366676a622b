"""Crash recovery: newest intact snapshot + committed WAL replay.

The recovery invariant (DESIGN.md §15): after a crash at *any* instant,
recovery reconstructs **exactly the committed prefix** — every operation
whose WAL record was committed (or already folded into a checkpoint
snapshot) is present; every operation past the commit point is absent;
and queries against the recovered state rank identically to a database
rebuilt from scratch by re-applying those same operations.

The pipeline, in order:

1. read the WAL commit marker (a marker of a foreign format stops
   recovery before anything is touched);
2. load the newest intact snapshot of ``base/`` (a
   :class:`repro.store.Store`, with its own verify/fallback machinery)
   and its ``wal_through`` watermark — migrating a format-1 delta chain
   into a snapshot first, when the root still holds one
   (:mod:`repro.ingest.migrate`);
3. check that the WAL still holds every record above the watermark.
   The store may have fallen back past a damaged newest snapshot to an
   older one; if a checkpoint has since reset the log, the records in
   between are gone and recovery refuses with a typed error instead of
   silently losing them;
4. quarantine and truncate any WAL bytes past the commit marker (a torn
   tail is *expected* debris, not corruption);
5. replay committed WAL records, skipping sequences at or below the
   watermark (already in the snapshot — this makes replay idempotent),
   applying the rest through the same :func:`repro.ingest.ops.apply`
   path the live ingester uses.

Recovery never deletes bytes: tails, damaged records and damaged
snapshot artifacts move to ``quarantine/``.  Damage *inside* the
committed prefix — a CRC failure, a record that will not decode or
apply — is unrecoverable-by-truncation and surfaces as a typed error
naming the quarantined bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.errors import IngestError, WALCorruptionError
from repro.ingest import ops
from repro.ingest.layout import IngestLayout, PathLike
from repro.ingest.migrate import migrate_deltas
from repro.ingest.wal import WriteAheadLog
from repro.model.database import VideoDatabase
from repro.store import Store, StoreLoad


@dataclass
class RecoveredState:
    """Everything recovery reconstructed, plus its provenance."""

    database: VideoDatabase
    wal: WriteAheadLog
    snapshot_id: str
    verified: bool
    #: highest WAL sequence the loaded snapshot already holds
    wal_through: int = 0
    #: WAL records applied live (sequence above the watermark)
    replayed: int = 0
    #: committed records skipped as already in the snapshot
    skipped: int = 0
    #: videos whose WAL records are in no snapshot yet — changed since
    #: the last checkpoint
    dirty: Tuple[str, ...] = ()
    #: quarantine paths recovery created (damaged snapshot artifacts, a
    #: torn tail, a migrated delta chain)
    quarantined: Tuple[str, ...] = ()
    #: human-readable recovery narration
    actions: List[str] = field(default_factory=list)


def _check_wal_covers(
    wal: WriteAheadLog, loaded: StoreLoad, wal_through: int
) -> None:
    """Refuse a snapshot whose missing records the WAL no longer holds."""
    first = wal.next_sequence - wal.committed_records
    if first <= wal_through + 1:
        return
    damaged = sorted(
        {
            action.snapshot
            for action in loaded.actions
            if action.snapshot and action.snapshot != loaded.snapshot_id
        }
    )
    lost = f"records {wal_through + 1}..{first - 1} are lost"
    if damaged:
        message = (
            f"snapshot {', '.join(damaged)} is damaged and recovery fell "
            f"back to {loaded.snapshot_id}, which holds WAL records "
            f"through {wal_through}; the log starts at sequence {first}, "
            f"so {lost} (the damaged bytes are in the store's quarantine/)"
        )
    else:
        message = (
            f"snapshot {loaded.snapshot_id} holds WAL records through "
            f"{wal_through}, but the log starts at sequence {first}: {lost}"
        )
    raise IngestError(message, path=wal.layout.root)


def recover(
    root: PathLike,
    verify: bool = True,
    fsync: bool = True,
    keep: int = 2,
) -> RecoveredState:
    """Reconstruct the committed state of one ingest directory.

    Idempotent: its disk mutations (quarantine of damage, tail
    truncation, the one-time delta-chain migration) are no-ops on
    re-run, so a crash *during* recovery loses nothing — running it
    again converges to the same state.  The returned
    :class:`RecoveredState` carries an open WAL positioned for appends.
    """
    layout = IngestLayout(root)
    store = Store(layout.base_dir, keep=keep, fsync=fsync)
    actions: List[str] = []
    quarantined: List[str] = []
    wal = WriteAheadLog(root, fsync=fsync)
    try:
        loaded = store.load(verify=verify)
        database = loaded.database
        snapshot_id, wal_through = loaded.snapshot_id, loaded.wal_through
        for action in loaded.actions:
            actions.append(f"base: {action.kind} {action.artifact}")
            if action.quarantined_to:
                quarantined.append(action.quarantined_to)
        actions.append(
            f"loaded base {snapshot_id}: {len(database)} video(s), "
            f"wal_through {wal_through}"
        )
        migrated, moved = migrate_deltas(layout, store, database, verify)
        if migrated is not None:
            snapshot_id = migrated.snapshot_id
            wal_through = migrated.wal_through
            actions.append(
                f"migrated the format-1 delta chain into {snapshot_id}, "
                f"wal_through {wal_through}"
            )
        for path in moved:
            quarantined.append(path)
            actions.append(f"moved {os.path.basename(path)} aside to {path}")
        _check_wal_covers(wal, loaded, wal_through)

        tail = wal.truncate_tail()
        if tail is not None:
            quarantined.append(tail)
            actions.append(f"quarantined torn WAL tail to {tail}")

        replayed = 0
        skipped = 0
        dirty: List[str] = []
        for sequence, op_document in wal.committed():
            if sequence <= wal_through:
                skipped += 1
                continue
            op = ops.decode_op(op_document)
            try:
                name = ops.apply(op, database)
            except IngestError as error:
                # A committed record that validates against replayed
                # state but fails here means the log and the state
                # disagree — surface it as corruption, don't guess.
                raise WALCorruptionError(
                    f"committed WAL record {sequence} does not apply: "
                    f"{error}",
                    path=layout.wal_log_path,
                    record=sequence,
                ) from error
            replayed += 1
            if name not in dirty:
                dirty.append(name)
        if replayed or skipped:
            actions.append(
                f"replayed {replayed} WAL record(s), skipped {skipped} "
                "already in the snapshot"
            )
    except BaseException:
        wal.close()
        raise

    return RecoveredState(
        database=database,
        wal=wal,
        snapshot_id=snapshot_id,
        verified=loaded.verified,
        wal_through=wal_through,
        replayed=replayed,
        skipped=skipped,
        dirty=tuple(dirty),
        quarantined=tuple(quarantined),
        actions=actions,
    )
