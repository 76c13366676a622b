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
from repro.core.engine import EngineConfig, RetrievalEngine
from repro.errors import (
    StoreCorruptionError,
    StoreError,
    StoreVersionError,
)
from repro.htl import parse
from repro.ingest import Ingester, IngestLayout, initialise, recover
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import Relationship, SegmentMetadata, make_object
from repro.model.serialize import database_to_dict
from repro.serve import EnginePool, QueryRequest
from repro.shard import ShardedCorpus
from repro.store import (
    ATOMICS_ARTIFACT,
    INDEX_ARTIFACT,
    MANIFEST_NAME,
    SNAPSHOT_MANIFEST,
    VIDEOS_ARTIFACT,
    Store,
    default_level,
    load_layout,
    save_sharded,
)
from repro.store import store as store_module
from repro.workloads.synthetic import random_similarity_list

from tests.store.test_store_agreement import reseal


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


def tamper_index(path, tamper):
    """Rewrite an ``index.json`` so its content profile ids lie.

    ``collapsed`` gives every segment id 0; ``stray`` sets the last id
    to ``n_profiles``; ``merged`` folds profiles 1 and 2 into one id and
    renumbers the rest, so the ids stay exactly ``range(n_profiles)``.
    """
    with open(path) as handle:
        payload = json.load(handle)
    for entry in payload["indices"].values():
        document = entry["index"]
        profiles = document["segment_profiles"]
        if tamper == "collapsed":
            document["segment_profiles"] = [0] * len(profiles)
        elif tamper == "stray":
            profiles[-1] = document["n_profiles"]
        else:
            document["segment_profiles"] = [p - (p >= 2) for p in profiles]
            document["n_profiles"] -= 1
    with open(path, "w") as handle:
        json.dump(payload, handle)


#: Queries whose answers a shared profile score would change.
TAMPER_QUERIES = (
    "exists x . present(x) and type(x) = 'train' and height(x) = 2",
    "not (exists x . present(x) and type(x) = 'person')",
    "kind() = 'battle'",
)
#: Every entry point that loads a snapshot from disk.
LOAD_PATHS = ["store", "recover", "ingester", "shard-directory", "pool"]


def ranking(result):
    return [(s.video, s.segment_id, s.actual, s.maximum) for s in result]


def assert_oracle_answers(database, rank):
    """``rank(engine, formula, k)`` ranks every segment of every query
    as the naive-atoms oracle over ``database`` does."""
    oracle = ShardedCorpus.from_database(database)
    for text in TAMPER_QUERIES:
        formula = parse(text)
        expected = oracle.top_k(
            RetrievalEngine(EngineConfig(naive_atoms=True)), formula, 100
        )
        assert ranking(rank(RetrievalEngine(), formula, 100)) == ranking(
            expected
        ), text


def open_tampered(path, database, root, tamper):
    """Save ``database`` as ``path`` keeps it, tamper the newest
    ``index.json`` of every store underneath, and load it back.

    Returns the recovery action kinds (None where the path exposes
    none) and a ``rank(engine, formula, k)`` over the loaded corpus.
    """
    if path == "store":
        stores = [root]
        Store(root).save(database)
    elif path in ("recover", "ingester"):
        stores = [IngestLayout(root).base_dir]
        initialise(root, database, fsync=False).close()
    else:
        save_sharded(database, root, 2)
        layout = load_layout(root)
        stores = [layout.store_path(spec) for spec in layout.shards]
    for store_root in stores:
        store = Store(store_root)
        newest = store._on_disk_snapshots()[-1]
        tamper_index(
            os.path.join(store.snapshot_path(newest), INDEX_ARTIFACT), tamper
        )
    if path == "store":
        loaded = Store(root).load()
        actions = [action.kind for action in loaded.actions]
        return actions, ShardedCorpus.from_database(loaded.database).top_k
    if path in ("recover", "ingester"):
        if path == "recover":
            state = recover(root, fsync=False)
            state.wal.close()
        else:
            ingester = Ingester(root, fsync=False)
            ingester.close()
            state = ingester.recovered
        actions = [
            action.split()[1]
            for action in state.actions
            if action.startswith("base: ")
        ]
        return actions, ShardedCorpus.from_database(state.database).top_k
    if path == "shard-directory":
        return None, ShardedCorpus.from_directory(root).top_k
    pool = EnginePool.from_shard_layout(root, 1)

    def rank(__, formula, k):
        # The pool answers with its own worker's engine.
        request = QueryRequest(formula, k, lenient=False)
        return pool.execute(pool.workers[0], request, None)

    return None, rank


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
        assert not loaded.recovered

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

    @pytest.mark.parametrize("name", ["sparse", "temporal"])
    def test_verified_load_reads_and_hashes_each_file_once(
        self, name, tmp_path, monkeypatch
    ):
        """Verification costs one SHA-256 pass over bytes already read:
        a load reads each file once and hashes each file the manifests
        vouch for once, and rebuilds the database without a recovery
        action."""
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
        loaded = store.load()
        assert database_to_dict(loaded.database) == reference
        assert not loaded.recovered
        assert sorted(file_name for file_name, __ in reads) == sorted(
            [MANIFEST_NAME, store_module.SNAPSHOT_MANIFEST, *info.artifacts]
        )
        # Every file but the top manifest is vouched for by a digest.
        vouched = [
            size for file_name, size in reads if file_name != MANIFEST_NAME
        ]
        assert sorted(hashed) == sorted(vouched)

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
        reseal(store, info.snapshot_id, SNAPSHOT_MANIFEST)
        loaded = store.load()
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

    @pytest.mark.parametrize("tamper", ["collapsed", "stray"])
    def test_resealed_tampered_profiles_are_rejected(
        self, store, database, tamper
    ):
        """A well-formed ``index.json`` whose profile ids disagree with
        its profile count, re-sealed up the digest chain, passes the
        digest check and reaches ``from_dict``.  Accepted, the collapsed
        one would share one score across every segment.  It is
        rejected, the index is rebuilt, and every answer equals the
        naive oracle's."""
        info = store.save(database)
        tamper_index(os.path.join(info.path, INDEX_ARTIFACT), tamper)
        reseal(store, info.snapshot_id, INDEX_ARTIFACT)
        loaded = store.load()
        rebuilt = [
            action for action in loaded.actions
            if action.kind == "index-rebuilt"
        ]
        assert len(rebuilt) == len(list(database.videos()))
        assert all("rejected" in action.detail for action in rebuilt)
        assert_oracle_answers(
            database, ShardedCorpus.from_database(loaded.database).top_k
        )

    @pytest.mark.parametrize("path", LOAD_PATHS)
    @pytest.mark.parametrize("tamper", ["merged", "collapsed", "stray"])
    def test_tampered_index_never_changes_an_answer(
        self, tmp_path, database, tamper, path
    ):
        """Every way a snapshot is loaded — a store, ingest recovery, an
        ingester, a shard layout, a serving pool — catches a tampered
        ``index.json`` by its digest, with the chain as the save wrote
        it.  The merged tamper keeps the ids exactly
        ``range(n_profiles)``, so ``from_dict`` alone would accept it
        and share one score between two contents."""
        actions, rank = open_tampered(path, database, tmp_path / path, tamper)
        if actions is not None:
            assert "index-rebuilt" in actions
        assert_oracle_answers(database, rank)

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
        reseal(store, second.snapshot_id, SNAPSHOT_MANIFEST)
        loaded = store.load()
        assert loaded.snapshot_id == first.snapshot_id
        assert loaded.wal_through == 2
        assert any(
            action.kind == "quarantined"
            and action.snapshot == second.snapshot_id
            for action in loaded.actions
        )

    def test_resealed_torn_json_falls_back(self, store, database):
        """A torn file whose digests were recorded after the tear passes
        the digest check; the JSON parse still rejects it."""
        first = store.save(database)
        second = store.save(database)
        damage(os.path.join(second.path, VIDEOS_ARTIFACT))
        reseal(store, second.snapshot_id, VIDEOS_ARTIFACT)
        loaded = store.load()
        assert loaded.snapshot_id == first.snapshot_id
        assert any(
            action.kind == "quarantined" and "malformed" in action.detail
            for action in loaded.actions
        )


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
