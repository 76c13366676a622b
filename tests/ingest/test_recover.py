"""Recovery unit tests: tails, corruption, watermarks, the snapshot
fallback guard and the format-1 delta-chain migration.

The chaos sweep (test_ingest_chaos.py) and the state machine
(test_ingest_model.py) prove the invariant under arbitrary crash
points; these tests pin the individual mechanisms —
quarantine-never-delete, watermark skipping, orphan tolerance, the
fallback guard — with hand-placed damage.  ``fixtures/format1`` is an
ingest directory written before checkpoints became store snapshots:
a base snapshot, a delta chain (incremental, full, incremental) and
committed WAL records above its watermark.
"""

import json
import os
import random
import shutil

import pytest

from repro.core import resilience
from repro.errors import (
    IngestError,
    InjectedFaultError,
    WALCorruptionError,
)
from repro.ingest import IngestLayout, Ingester, initialise, recover
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.model.serialize import database_to_dict
from repro.store import Store
from repro.testing.faults import CORRUPT, RAISE, FaultSpec, inject
from repro.workloads.synthetic import random_similarity_list

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def seed_database(n_segments=4, seed=3):
    rng = random.Random(seed)
    database = VideoDatabase()
    segments = [
        SegmentMetadata(objects=[make_object(f"o{i}", "train")])
        for i in range(n_segments)
    ]
    video = database.add(flat_video("seed0", segments))
    database.register_atomic(
        "P1", video.name, random_similarity_list(n_segments, rng=rng)
    )
    return database


def recovered_dict(root, **kwargs):
    state = recover(root, **kwargs)
    state.wal.close()
    return database_to_dict(state.database), state


def crash(ingester):
    """Abandon an ingester as a crash would: drop the handle, commit
    nothing (``close()`` would flush-and-commit, which a crash never
    does)."""
    ingester._wal.close()
    ingester._closed = True


def test_recovery_is_idempotent_after_torn_tail(tmp_path):
    ingester = initialise(tmp_path, seed_database())
    ingester.add_video("live0", [SegmentMetadata()])
    ingester.commit()
    # Appended, never committed: a torn tail by definition.
    ingester.append_segments("live0", [SegmentMetadata()])
    crash(ingester)

    first, state = recovered_dict(tmp_path)
    assert state.replayed == 1 and state.dirty == ("live0",)
    assert len(state.quarantined) == 1
    assert os.path.exists(state.quarantined[0])
    assert len(state.database.get("live0").nodes_at_level(2)) == 1

    second, again = recovered_dict(tmp_path)
    assert second == first
    assert again.quarantined == ()  # nothing left to truncate


def test_corruption_inside_committed_prefix_is_typed_and_quarantined(
    tmp_path,
):
    with initialise(tmp_path, seed_database()) as ingester:
        ingester.add_video("live0", [SegmentMetadata(), SegmentMetadata()])
        ingester.commit()
    layout = IngestLayout(tmp_path)
    with open(layout.wal_log_path, "r+b") as handle:
        data = handle.read()
        position = len(data) // 2
        handle.seek(position)
        handle.write(bytes([data[position] ^ 0x40]))
    with pytest.raises(WALCorruptionError) as caught:
        recover(tmp_path)
    assert caught.value.quarantined
    for path in caught.value.quarantined:
        assert os.path.exists(path)
    # Never deleted: the damaged log is still there, byte for byte.
    assert os.path.getsize(layout.wal_log_path) == len(data)


def test_replay_skips_records_below_the_snapshot_watermark(tmp_path):
    """Crash between the snapshot commit and the WAL reset: replay must
    not double-apply the records the snapshot already holds."""
    with initialise(tmp_path, seed_database()) as ingester:
        ingester.add_video("live0", [SegmentMetadata()])
        ingester.append_segments("live0", [SegmentMetadata()])
        ingester.commit()
        # A checkpoint whose WAL reset never happened: save the
        # snapshot directly, leaving the log full.
        info = Store(ingester.layout.base_dir).save(
            ingester.database,
            wal_through=ingester._wal.last_committed_sequence,
        )
        assert info.wal_through == 2

    document, state = recovered_dict(tmp_path)
    assert state.snapshot_id == info.snapshot_id
    assert state.wal_through == 2
    assert state.skipped == 2 and state.replayed == 0
    assert state.dirty == ()
    assert len(state.database.get("live0").nodes_at_level(2)) == 2

    # And the next real checkpoint path (Ingester open) converges too.
    with Ingester(tmp_path) as ingester:
        assert database_to_dict(ingester.database) == document


def test_orphan_snapshot_directories_are_ignored(tmp_path):
    """A save that crashed before its manifest replace leaves an
    unreferenced snapshot directory; recovery loads the committed one
    and numbering advances past the orphan."""
    with initialise(tmp_path, seed_database()) as ingester:
        ingester.add_video("live0", [SegmentMetadata()])
        ingester.checkpoint()
    orphan = os.path.join(tmp_path, "base", "snapshots", "snap-000099")
    os.makedirs(orphan)
    with open(os.path.join(orphan, "snapshot.json"), "w") as handle:
        handle.write("{not even json")
    document, state = recovered_dict(tmp_path)
    assert state.snapshot_id == "snap-000002"
    with Ingester(tmp_path) as ingester:
        ingester.append_segments("live0", [SegmentMetadata()])
        info = ingester.checkpoint()
    assert info.snapshot_id == "snap-000100"


def checkpoint_then_commit_more(root):
    """A checkpoint (snapshot + WAL reset) followed by committed records
    that only the WAL holds."""
    with initialise(root, seed_database()) as ingester:
        ingester.add_video("live0", [SegmentMetadata()])
        ingester.commit()
        info = ingester.checkpoint()
        ingester.append_segments("live0", [SegmentMetadata()])
        ingester.append_segments("live0", [SegmentMetadata()])
        ingester.commit()
    return info


def truncate_artifact(root, snapshot_id, artifact="videos.json"):
    path = os.path.join(root, "base", "snapshots", snapshot_id, artifact)
    with open(path, "rb") as handle:
        data = handle.read()
    with open(path, "wb") as handle:
        handle.write(data[: len(data) // 2])
    return data[: len(data) // 2]


def test_fallback_past_a_reset_wal_is_refused(tmp_path):
    """The newest snapshot is damaged and the WAL was reset after it:
    the older snapshot lacks records nobody holds any more."""
    info = checkpoint_then_commit_more(tmp_path)
    assert info.snapshot_id == "snap-000002" and info.wal_through == 1
    truncated = truncate_artifact(tmp_path, info.snapshot_id)
    with pytest.raises(IngestError) as caught:
        recover(tmp_path)
    message = str(caught.value)
    assert "snap-000002" in message and "snap-000001" in message
    assert "records 1..1 are lost" in message
    quarantine = os.path.join(tmp_path, "quarantine")
    preserved = os.path.join(
        tmp_path, "base", "quarantine", "snap-000002__videos.json"
    )
    with open(preserved, "rb") as handle:
        assert handle.read() == truncated
    assert not os.path.exists(quarantine)  # the WAL was not touched


def test_fallback_before_the_wal_reset_is_accepted(tmp_path):
    """Crash between the checkpoint's snapshot commit and the WAL reset,
    then lose the new snapshot: the WAL still holds every record the
    older snapshot lacks, so the fallback recovers the committed
    prefix."""
    ingester = initialise(tmp_path, seed_database())
    ingester.add_video("live0", [SegmentMetadata(), SegmentMetadata()])
    ingester.append_segments("live0", [SegmentMetadata()])
    ingester.commit()
    expected = database_to_dict(ingester.database)
    # The checkpoint's store writes: two artifacts, snapshot.json and
    # MANIFEST.json; the fifth is the WAL reset's marker.
    with inject(
        FaultSpec(resilience.SITE_STORE_WRITE, mode=RAISE, skip=4)
    ) as chaos:
        with pytest.raises(InjectedFaultError):
            ingester.checkpoint()
    assert chaos.injected
    crash(ingester)
    # The snapshot committed; only the reset was lost.
    assert Store(ingester.layout.base_dir).load().wal_through == 2
    truncate_artifact(tmp_path, "snap-000002")
    document, state = recovered_dict(tmp_path)
    assert document == expected
    assert state.snapshot_id == "snap-000001" and state.replayed == 2
    assert any(
        path.endswith("snap-000002__videos.json")
        for path in state.quarantined
    )


def copy_format1(tmp_path):
    root = tmp_path / "format1"
    shutil.copytree(os.path.join(FIXTURES, "format1"), root)
    with open(os.path.join(FIXTURES, "format1.expected.json")) as handle:
        return str(root), json.load(handle)


def test_format1_directory_migrates_once(tmp_path):
    root, expected = copy_format1(tmp_path)
    document, state = recovered_dict(root)
    assert document == expected
    # The chain (delta-000002 full, delta-000003 incremental, with the
    # superseded delta-000001 on disk) folds into one snapshot at its
    # watermark; the two committed records above it replay.
    assert state.snapshot_id == "snap-000002" and state.wal_through == 5
    assert state.replayed == 2 and state.skipped == 0
    assert not os.path.exists(os.path.join(root, "DELTAS.json"))
    assert not os.path.exists(os.path.join(root, "deltas"))
    quarantine = os.path.join(root, "quarantine")
    assert sorted(os.listdir(quarantine)) == ["DELTAS.json", "deltas"]
    assert sorted(os.listdir(os.path.join(quarantine, "deltas"))) == [
        "delta-000001.json", "delta-000002.json", "delta-000003.json"
    ]

    again, rerun = recovered_dict(root)
    assert again == expected
    assert rerun.snapshot_id == "snap-000002" and rerun.quarantined == ()
    assert sorted(os.listdir(quarantine)) == ["DELTAS.json", "deltas"]


def test_migration_reruns_after_a_crash_before_the_move(tmp_path):
    """The migrated snapshot committed but the chain was never moved
    aside: applying the chain again gives the same state."""
    root, expected = copy_format1(tmp_path)
    recovered_dict(root)
    quarantine = os.path.join(root, "quarantine")
    for name in ("DELTAS.json", "deltas"):
        os.rename(os.path.join(quarantine, name), os.path.join(root, name))
    document, state = recovered_dict(root)
    assert document == expected
    assert state.snapshot_id == "snap-000003" and state.wal_through == 5


def test_damaged_delta_is_quarantined_never_deleted(tmp_path):
    root, __ = copy_format1(tmp_path)
    delta_path = os.path.join(root, "deltas", "delta-000003.json")
    with open(delta_path, "r+b") as handle:
        handle.seek(10)
        handle.write(b"\xff")
    with pytest.raises(IngestError, match="digest"):
        recover(root)
    assert os.path.exists(delta_path)  # original intact
    assert os.path.exists(os.path.join(root, "DELTAS.json"))
    quarantined = os.listdir(os.path.join(root, "quarantine"))
    assert quarantined == ["delta-000003.json"]


def test_manifest_naming_a_missing_delta_is_typed(tmp_path):
    root, __ = copy_format1(tmp_path)
    os.rename(
        os.path.join(root, "deltas", "delta-000003.json"),
        os.path.join(root, "deltas", "stolen.bin"),
    )
    with pytest.raises(IngestError, match="unreadable"):
        recover(root)


def test_unparseable_manifest_is_typed(tmp_path):
    root, __ = copy_format1(tmp_path)
    with open(os.path.join(root, "DELTAS.json"), "w") as handle:
        handle.write("]]junk")
    with pytest.raises(IngestError, match="unreadable"):
        recover(root)


def test_crash_during_replay_converges_on_rerun(tmp_path):
    with initialise(tmp_path, seed_database()) as ingester:
        ingester.add_video("live0", [SegmentMetadata()])
        ingester.append_segments("live0", [SegmentMetadata()])
        ingester.commit()
    with inject(
        FaultSpec(resilience.SITE_WAL_REPLAY, mode=RAISE, max_faults=1, skip=2)
    ):
        with pytest.raises(InjectedFaultError):
            recover(tmp_path)
    document, state = recovered_dict(tmp_path)
    assert state.replayed == 2
    assert len(state.database.get("live0").nodes_at_level(2)) == 2


@pytest.mark.parametrize("seed", [11, 1997, 20260806])
def test_rotted_committed_bytes_surface_as_corruption(tmp_path, seed):
    with initialise(tmp_path / str(seed), seed_database()) as ingester:
        ingester.add_video("live0", [SegmentMetadata()])
        ingester.commit()
    with inject(
        FaultSpec(resilience.SITE_WAL_REPLAY, mode=CORRUPT, max_faults=1),
        seed=seed,
    ):
        with pytest.raises(WALCorruptionError) as caught:
            recover(tmp_path / str(seed))
    for path in caught.value.quarantined:
        assert os.path.exists(path)


def test_initialise_refuses_an_existing_directory(tmp_path):
    with initialise(tmp_path, seed_database()):
        pass
    with pytest.raises(IngestError, match="already holds"):
        initialise(tmp_path, seed_database())


def test_commit_marker_junk_is_typed(tmp_path):
    with initialise(tmp_path, seed_database()) as ingester:
        ingester.add_video("live0", [SegmentMetadata()])
        ingester.commit()
    layout = IngestLayout(tmp_path)
    with open(layout.wal_commit_path, "w", encoding="utf-8") as handle:
        json.dump({"format": 1}, handle)  # missing required fields
    with pytest.raises(IngestError, match="unreadable"):
        recover(tmp_path)


def test_future_wal_marker_format_raises(tmp_path):
    with initialise(tmp_path, seed_database()) as ingester:
        ingester.add_video("live0", [SegmentMetadata()])
        ingester.commit()
    layout = IngestLayout(tmp_path)
    with open(layout.wal_commit_path, encoding="utf-8") as handle:
        marker = json.load(handle)
    marker["format"] = 99
    with open(layout.wal_commit_path, "w", encoding="utf-8") as handle:
        json.dump(marker, handle)
    with pytest.raises(IngestError, match="format 99"):
        recover(tmp_path)
    assert not os.path.exists(layout.quarantine_dir)
    assert not os.path.exists(os.path.join(layout.base_dir, "quarantine"))
