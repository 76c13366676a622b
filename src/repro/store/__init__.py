"""Crash-safe persistence for video databases (DESIGN.md §9).

Public surface:

* :class:`Store` — atomic checksummed snapshots with
  ``save`` / ``load`` / ``verify`` / ``repair``.  The last three judge
  a snapshot with one check, so ``verify`` reports exactly what
  ``load`` would do and ``repair`` leaves a store both accept without
  recovery.
* :func:`atomic_write_bytes` / :func:`atomic_write_json` — the
  temp + fsync + rename primitive every durable artifact goes through
  (also used by the benchmark reports).
* The result records (:class:`StoreLoad`, :class:`VerifyReport`,
  :class:`RepairReport`, :class:`SnapshotInfo`, :class:`RecoveryAction`,
  :class:`ArtifactStatus`) carrying recovery provenance.
* The per-shard layout (:mod:`repro.store.sharding`):
  :func:`save_sharded` / :func:`load_layout` partition a corpus into N
  shard stores under one ``SHARDS.json`` manifest (DESIGN.md §12).
"""

from repro.store.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    canonical_json_bytes,
    fsync_directory,
    sha256_hex,
)
from repro.store.store import (
    ATOMICS_ARTIFACT,
    MANIFEST_NAME,
    REQUIRED_ARTIFACTS,
    SNAPSHOT_MANIFEST,
    STORE_FORMAT_VERSION,
    VIDEOS_ARTIFACT,
    ArtifactStatus,
    RecoveryAction,
    RepairReport,
    SnapshotInfo,
    Store,
    StoreLoad,
    VerifyReport,
)
from repro.store.sharding import (
    SCHEME_ROUND_ROBIN,
    SHARD_FORMAT_VERSION,
    SHARDS_MANIFEST,
    ShardLayout,
    ShardSpec,
    load_layout,
    partition_names,
    save_sharded,
    split_database,
)

__all__ = [
    "ATOMICS_ARTIFACT",
    "MANIFEST_NAME",
    "REQUIRED_ARTIFACTS",
    "SCHEME_ROUND_ROBIN",
    "SHARDS_MANIFEST",
    "SHARD_FORMAT_VERSION",
    "SNAPSHOT_MANIFEST",
    "STORE_FORMAT_VERSION",
    "VIDEOS_ARTIFACT",
    "ArtifactStatus",
    "RecoveryAction",
    "RepairReport",
    "ShardLayout",
    "ShardSpec",
    "SnapshotInfo",
    "Store",
    "StoreLoad",
    "VerifyReport",
    "atomic_write_bytes",
    "atomic_write_json",
    "canonical_json_bytes",
    "fsync_directory",
    "load_layout",
    "partition_names",
    "save_sharded",
    "sha256_hex",
    "split_database",
]
