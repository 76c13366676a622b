"""Unit suite for the crash-safe snapshot store (DESIGN.md §9).

Covers the happy path (save → verify → load round trip), every recovery
path (corruption quarantine, snapshot fallback, index rebuild, manifest
recovery), the read-only guarantee of verify, and repair's
quarantine-everything-and-rewrite contract.  The crash-recovery sweep
under injected faults lives in ``test_store_chaos.py``.
"""

import json
import os
import random

import pytest

from benchmarks.e2e.workloads import SMOKE, WORKLOADS
from repro.core import trace
from repro.core.engine import RetrievalEngine
from repro.errors import (
    StoreCorruptionError,
    StoreError,
    StoreVersionError,
)
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import Relationship, SegmentMetadata, make_object
from repro.model.serialize import database_to_dict
from repro.store import (
    ATOMICS_ARTIFACT,
    INDEX_ARTIFACT,
    MANIFEST_NAME,
    VIDEOS_ARTIFACT,
    Store,
    default_level,
)
from repro.store import store as store_module
from repro.workloads.synthetic import random_similarity_list


def small_database(n_videos=2, n_segments=8, seed=7):
    rng = random.Random(seed)
    database = VideoDatabase()
    for position in range(n_videos):
        segments = []
        for index in range(n_segments):
            objects = []
            relationships = []
            if rng.random() < 0.5:
                objects.append(
                    make_object(f"t{index}", "train", height=rng.choice([1, 2]))
                )
            if rng.random() < 0.4:
                objects.append(make_object(f"p{index}", "person"))
                relationships.append(
                    Relationship("holds_gun", (f"p{index}",), 0.5)
                )
            attributes = {"kind": "battle"} if rng.random() < 0.3 else {}
            segments.append(
                SegmentMetadata(
                    attributes=attributes,
                    objects=objects,
                    relationships=relationships,
                )
            )
        video = database.add(flat_video(f"v{position}", segments))
        database.register_atomic(
            "P1", video.name, random_similarity_list(n_segments, rng=rng)
        )
    return database


@pytest.fixture
def database():
    return small_database()


@pytest.fixture
def store(tmp_path):
    return Store(tmp_path / "store")


def damage(path, mode="truncate"):
    data = open(path, "rb").read()
    if mode == "truncate":
        damaged = data[: len(data) // 2]
    else:  # single-bit flip
        damaged = data[:10] + bytes([data[10] ^ 1]) + data[11:]
    with open(path, "wb") as handle:
        handle.write(damaged)
    return data


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def test_save_load_round_trip(self, store, database):
        reference = database_to_dict(database)
        info = store.save(database)
        assert info.snapshot_id == "snap-000001"
        assert set(info.artifacts) == {
            VIDEOS_ARTIFACT, ATOMICS_ARTIFACT, INDEX_ARTIFACT,
        }
        loaded = store.load()
        assert database_to_dict(loaded.database) == reference
        assert loaded.snapshot_id == info.snapshot_id
        assert loaded.verified and not loaded.recovered

    def test_save_bumps_counters(self, store, database):
        before = trace.METRICS.counters().get(
            trace.STORE_SNAPSHOT_SAVED, 0
        )
        store.save(database)
        store.load()
        counters = trace.METRICS.counters()
        assert counters[trace.STORE_SNAPSHOT_SAVED] == before + 1
        assert counters.get(trace.STORE_SNAPSHOT_LOADED, 0) >= 1

    def test_loaded_queries_match_original(self, store, database):
        formula = parse("exists x . present(x) and type(x) = 'train'")
        engine = RetrievalEngine()
        store.save(database)
        loaded = store.load().database
        for video in database.videos():
            expected = engine.evaluate_video(formula, video)
            actual = engine.evaluate_video(formula, loaded.get(video.name))
            assert list(actual) == list(expected)

    def test_load_restores_prebuilt_index(self, store, database):
        store.save(database)
        loaded = store.load()
        assert not loaded.recovered  # indices restored, not rebuilt
        for video in loaded.database.videos():
            level = default_level(video)
            system = video.root.pictures_at_level(level)
            assert system.index.n_segments == len(
                video.root.descendants_at_level(level)
            )

    def test_unverified_load_round_trips(self, store, database):
        reference = database_to_dict(database)
        store.save(database)
        loaded = store.load(verify=False)
        assert not loaded.verified
        assert database_to_dict(loaded.database) == reference

    @pytest.mark.parametrize("name", ["sparse", "temporal"])
    def test_verified_load_reads_and_hashes_each_file_once(
        self, name, tmp_path, monkeypatch
    ):
        """Verification costs one SHA-256 pass over bytes already read:
        a verified load reads exactly the files an unverified one does,
        each once, and hashes each file the manifests vouch for once.
        Both rebuild the database without a recovery action."""
        database, __, __ = WORKLOADS[name](7, SMOKE, str(tmp_path)).inputs()
        reference = database_to_dict(database)
        store = Store(tmp_path / "store", keep=1)
        info = store.save(database)
        reads = []
        hashed = []
        read_bytes = Store._read_bytes
        digest = store_module.sha256_hex

        def counted_read(self, path):
            data = read_bytes(self, path)
            reads.append((os.path.basename(path), len(data)))
            return data

        def counted_digest(data):
            hashed.append(len(data))
            return digest(data)

        monkeypatch.setattr(Store, "_read_bytes", counted_read)
        monkeypatch.setattr(store_module, "sha256_hex", counted_digest)
        loads = {}
        for verify in (False, True):
            reads.clear()
            hashed.clear()
            loaded = store.load(verify=verify)
            assert database_to_dict(loaded.database) == reference
            assert loaded.verified is verify and not loaded.recovered
            loads[verify] = (list(reads), sum(hashed), len(hashed))
        files = loads[False][0]
        assert sorted(file_name for file_name, __ in files) == sorted(
            [MANIFEST_NAME, store_module.SNAPSHOT_MANIFEST, *info.artifacts]
        )
        assert loads[False][1:] == (0, 0)
        assert loads[True][0] == files
        # Every file but the top manifest is vouched for by a digest.
        vouched = [
            size for file_name, size in files if file_name != MANIFEST_NAME
        ]
        assert loads[True][1:] == (sum(vouched), len(vouched))

    def test_retention_prunes_beyond_keep(self, tmp_path, database):
        store = Store(tmp_path / "store", keep=2)
        store.save(database)
        store.save(database)
        info = store.save(database)
        assert info.pruned == ("snap-000001",)
        assert sorted(store._on_disk_snapshots()) == [
            "snap-000002", "snap-000003",
        ]

    def test_wal_through_round_trips(self, store, database):
        assert store.save(database).wal_through == 0
        assert store.load().wal_through == 0
        info = store.save(database, wal_through=7)
        assert info.wal_through == 7
        with open(os.path.join(info.path, "snapshot.json")) as handle:
            assert json.load(handle)["wal_through"] == 7
        assert store.load().wal_through == 7

    def test_snapshot_without_wal_through_reads_zero(self, store, database):
        """Stores written before the key existed stay readable."""
        info = store.save(database, wal_through=7)
        path = os.path.join(info.path, "snapshot.json")
        with open(path) as handle:
            document = json.load(handle)
        del document["wal_through"]
        with open(path, "w") as handle:
            json.dump(document, handle)
        loaded = store.load(verify=False)
        assert loaded.snapshot_id == info.snapshot_id
        assert loaded.wal_through == 0

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(StoreError):
            Store(tmp_path, keep=0)

    def test_empty_store_raises(self, store):
        with pytest.raises(StoreError):
            store.load()
        with pytest.raises(StoreError):
            store.verify()


# ---------------------------------------------------------------------------
# corruption, quarantine, fallback
# ---------------------------------------------------------------------------
class TestRecovery:
    def test_corrupt_artifact_falls_back_and_quarantines(
        self, store, database
    ):
        reference = database_to_dict(database)
        first = store.save(database)
        second = store.save(database)
        damaged_path = os.path.join(second.path, VIDEOS_ARTIFACT)
        original = damage(damaged_path)
        before = trace.METRICS.counters().get(
            trace.STORE_ARTIFACT_QUARANTINED, 0
        )
        loaded = store.load()
        assert loaded.snapshot_id == first.snapshot_id
        assert database_to_dict(loaded.database) == reference
        kinds = [action.kind for action in loaded.actions]
        assert "quarantined" in kinds and "fallback" in kinds
        counters = trace.METRICS.counters()
        assert counters[trace.STORE_ARTIFACT_QUARANTINED] == before + 1
        assert counters.get(trace.STORE_SNAPSHOT_FALLBACK, 0) >= 1
        # The damaged bytes are preserved in quarantine, not deleted.
        moved = [
            action.quarantined_to
            for action in loaded.actions
            if action.quarantined_to
        ]
        assert len(moved) == 1 and os.path.exists(moved[0])
        assert open(moved[0], "rb").read() == original[: len(original) // 2]
        assert not os.path.exists(damaged_path)

    def test_bit_flip_detected_by_digest(self, store, database):
        first = store.save(database)
        second = store.save(database)
        damage(os.path.join(second.path, ATOMICS_ARTIFACT), mode="flip")
        loaded = store.load()
        assert loaded.snapshot_id == first.snapshot_id

    def test_all_snapshots_damaged_raises_typed(self, store, database):
        info = store.save(database)
        damage(os.path.join(info.path, VIDEOS_ARTIFACT))
        with pytest.raises(StoreCorruptionError) as caught:
            store.load()
        error = caught.value
        assert VIDEOS_ARTIFACT in error.artifact
        assert error.quarantined
        for path in error.quarantined:
            assert os.path.exists(path)

    def test_missing_artifact_skips_snapshot(self, store, database):
        first = store.save(database)
        second = store.save(database)
        os.remove(os.path.join(second.path, ATOMICS_ARTIFACT))
        loaded = store.load()
        assert loaded.snapshot_id == first.snapshot_id

    def test_corrupt_index_rebuilds_not_falls_back(self, store, database):
        reference = database_to_dict(database)
        info = store.save(database)
        damage(os.path.join(info.path, INDEX_ARTIFACT))
        before = trace.METRICS.counters().get(trace.STORE_INDEX_REBUILT, 0)
        loaded = store.load()
        # Derived damage: same snapshot, rebuilt index, equal database.
        assert loaded.snapshot_id == info.snapshot_id
        assert database_to_dict(loaded.database) == reference
        assert trace.METRICS.counters()[trace.STORE_INDEX_REBUILT] > before
        assert not any(
            action.kind == "fallback" for action in loaded.actions
        )

    def test_missing_manifest_recovered_by_scan(self, store, database):
        reference = database_to_dict(database)
        info = store.save(database)
        os.remove(store.manifest_path)
        before = trace.METRICS.counters().get(
            trace.STORE_MANIFEST_RECOVERED, 0
        )
        loaded = store.load()
        assert loaded.snapshot_id == info.snapshot_id
        assert database_to_dict(loaded.database) == reference
        assert (
            trace.METRICS.counters()[trace.STORE_MANIFEST_RECOVERED]
            == before + 1
        )

    def test_corrupt_manifest_quarantined_then_recovered(
        self, store, database
    ):
        info = store.save(database)
        with open(store.manifest_path, "w") as handle:
            handle.write("{not json")
        loaded = store.load()
        assert loaded.snapshot_id == info.snapshot_id
        assert any(
            action.artifact == MANIFEST_NAME
            and action.kind == "quarantined"
            for action in loaded.actions
        )

    def test_future_format_version_raises(self, store, database):
        store.save(database)
        manifest = json.load(open(store.manifest_path))
        manifest["format"] = 99
        with open(store.manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(StoreVersionError):
            store.load()
        # A version error is not corruption: nothing was quarantined.
        assert not os.path.isdir(store.quarantine_dir)

    @pytest.mark.parametrize("value", [-1, "3", True, 1.5, None])
    def test_malformed_wal_through_falls_back(self, store, database, value):
        first = store.save(database, wal_through=2)
        second = store.save(database, wal_through=5)
        path = os.path.join(second.path, "snapshot.json")
        with open(path) as handle:
            document = json.load(handle)
        document["wal_through"] = value
        with open(path, "w") as handle:
            json.dump(document, handle)
        loaded = store.load(verify=False)
        assert loaded.snapshot_id == first.snapshot_id
        assert loaded.wal_through == 2
        assert any(
            action.kind == "quarantined"
            and action.snapshot == second.snapshot_id
            for action in loaded.actions
        )

    def test_unverified_load_still_rejects_torn_json(self, store, database):
        first = store.save(database)
        second = store.save(database)
        damage(os.path.join(second.path, VIDEOS_ARTIFACT))
        loaded = store.load(verify=False)
        assert loaded.snapshot_id == first.snapshot_id


# ---------------------------------------------------------------------------
# verify and repair
# ---------------------------------------------------------------------------
class TestVerifyRepair:
    def test_verify_clean_store(self, store, database):
        store.save(database)
        report = store.verify()
        assert report.ok and report.manifest_ok
        assert all(status.status == "ok" for status in report.statuses)
        assert not report.unreferenced and not report.stray_files

    def test_verify_reports_damage_without_touching_it(
        self, store, database
    ):
        info = store.save(database)
        path = os.path.join(info.path, VIDEOS_ARTIFACT)
        damage(path)
        report = store.verify()
        assert not report.ok
        damaged = [s for s in report.statuses if s.damaged]
        assert any(
            s.artifact == VIDEOS_ARTIFACT and s.status == "size-mismatch"
            for s in damaged
        )
        # Read-only: the damaged file is still in place, no quarantine.
        assert os.path.exists(path)
        assert not os.path.isdir(store.quarantine_dir)

    def test_verify_derived_damage_is_not_fatal(self, store, database):
        info = store.save(database)
        damage(os.path.join(info.path, INDEX_ARTIFACT))
        report = store.verify()
        assert report.ok  # index is derived: rebuildable, not fatal
        assert any(
            s.artifact == INDEX_ARTIFACT and s.damaged and not s.fatal
            for s in report.statuses
        )

    def test_verify_reports_stray_tmp_files(self, store, database):
        info = store.save(database)
        stray = os.path.join(info.path, VIDEOS_ARTIFACT + ".tmp")
        with open(stray, "wb") as handle:
            handle.write(b"torn")
        report = store.verify()
        assert report.ok  # strays are reported, not fatal
        assert report.stray_files == [stray]

    def test_repair_quarantines_and_restores_health(self, store, database):
        first = store.save(database)
        second = store.save(database)
        damage(os.path.join(second.path, VIDEOS_ARTIFACT))
        outcome = store.repair()
        assert second.snapshot_id in outcome.dropped
        assert outcome.current == first.snapshot_id
        assert store.verify().ok
        loaded = store.load()
        assert loaded.snapshot_id == first.snapshot_id
        assert not loaded.recovered
        # The torn snapshot is preserved under quarantine/.
        quarantined = os.listdir(store.quarantine_dir)
        assert any(second.snapshot_id in name for name in quarantined)

    def test_repair_sweeps_stray_tmp_files(self, store, database):
        info = store.save(database)
        stray = os.path.join(info.path, VIDEOS_ARTIFACT + ".tmp")
        with open(stray, "wb") as handle:
            handle.write(b"torn")
        store.repair()
        assert not os.path.exists(stray)
        assert store.verify().stray_files == []

    def test_save_after_repair_continues_sequence(self, store, database):
        store.save(database)
        second = store.save(database)
        damage(os.path.join(second.path, VIDEOS_ARTIFACT))
        store.repair()
        info = store.save(database)
        # Sequence numbers never rewind, even past a dropped snapshot.
        assert info.sequence == 3

    def test_quarantined_ids_are_not_reused_without_a_manifest(
        self, store, database
    ):
        store.save(database)
        store.save(database)
        third = store.save(database)
        damage(os.path.join(third.path, VIDEOS_ARTIFACT))
        store.repair()
        assert os.path.isdir(
            os.path.join(store.quarantine_dir, "snap-000003__snapshot")
        )
        with open(store.manifest_path, "w") as handle:
            handle.write("{not json")
        # The manifest's watermark is gone; the quarantine still counts.
        assert store.save(database).snapshot_id == "snap-000004"

    @staticmethod
    def rewrite_newest_snapshot_manifest(store, database, key, value):
        """Two saves, the top manifest lost, one field of the newest
        ``snapshot.json`` rewritten (no digest left to catch it)."""
        store.save(database)
        second = store.save(database)
        os.remove(store.manifest_path)
        path = os.path.join(second.path, "snapshot.json")
        with open(path) as handle:
            document = json.load(handle)
        document[key] = value
        with open(path, "w") as handle:
            json.dump(document, handle)

    def test_repair_drops_what_load_would_reject(self, store, database):
        self.rewrite_newest_snapshot_manifest(
            store, database, "wal_through", -1
        )
        report = store.verify()
        assert report.intact_snapshots() == ["snap-000001"]
        outcome = store.repair()
        assert outcome.dropped == ["snap-000002"]
        assert outcome.current == "snap-000001"
        assert store.verify().ok
        loaded = store.load()
        assert loaded.snapshot_id == "snap-000001"
        assert loaded.actions == []

    def test_foreign_snapshot_format_stops_verify_and_repair(
        self, store, database
    ):
        self.rewrite_newest_snapshot_manifest(store, database, "format", 99)
        for operation in (store.verify, store.repair, store.load):
            with pytest.raises(StoreVersionError):
                operation()
        # An incompatibility is not damage: nothing moved or rewritten.
        assert not os.path.exists(store.quarantine_dir)
        assert not os.path.exists(store.manifest_path)
        assert store._on_disk_snapshots() == ["snap-000001", "snap-000002"]

    @pytest.mark.parametrize("mode", ["truncate", "flip", "delete"])
    def test_repair_rewrites_a_damaged_index(self, store, database, mode):
        info = store.save(database)
        path = os.path.join(info.path, INDEX_ARTIFACT)
        original = open(path, "rb").read()
        if mode == "delete":
            os.remove(path)
        else:
            damage(path, mode)
        outcome = store.repair()
        assert outcome.current == info.snapshot_id
        assert "index-rebuilt" in [action.kind for action in outcome.actions]
        assert open(path, "rb").read() == original
        assert store.verify().ok
        assert store.load().actions == []

    def test_verify_reports_torn_unreferenced_snapshots(
        self, store, database
    ):
        """A save that died before its commit leaves debris that verify
        reports (not fatal) and repair sweeps into quarantine."""
        info = store.save(database)
        torn = store.snapshot_path("snap-000002")
        os.makedirs(torn)
        with open(os.path.join(torn, VIDEOS_ARTIFACT), "w") as handle:
            handle.write("{}")
        report = store.verify()
        assert report.ok and report.unreferenced == ["snap-000002"]
        assert report.intact_snapshots() == [info.snapshot_id]
        outcome = store.repair()
        assert outcome.dropped == ["snap-000002"]
        assert not os.path.exists(torn)
        assert store.verify().unreferenced == []
