"""Agreement property: load, verify and repair judge snapshots alike.

Hypothesis saves 2–3 snapshots, applies one drawn damage and then
checks that the three entry points tell one story (DESIGN.md §9):

* ``load()`` returns the first snapshot, in its candidate order, that
  ``verify()`` reports intact — ``verify().intact_snapshots()[0]`` — or
  raises :class:`StoreCorruptionError` when verify reports none;
* a foreign format version stops ``verify()`` and ``repair()`` with
  :class:`StoreVersionError`, moving nothing, and stops ``load()`` too
  unless a newer snapshot loads first;
* after ``repair()``, ``verify().ok`` holds and ``load()`` takes no
  recovery action.

A damage is a truncation, bit flip, deletion or garbling of any file
of any snapshot, or a rewrite of one ``snapshot.json`` field or one
artifact's payload.  Either may be *re-sealed*: the digests up the
chain are recomputed, so only the later rules (JSON, format,
``wal_through``, model construction) can catch it.  Or the damage is a
deleted, truncated, flipped or garbled ``MANIFEST.json``.  The seed
comes from ``CHAOS_SEED``, which the CI ``store-chaos`` matrix sweeps.
"""

import json
import os
import random
import shutil
import tempfile

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.errors import StoreCorruptionError, StoreError, StoreVersionError
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.store import (
    ATOMICS_ARTIFACT,
    SNAPSHOT_MANIFEST,
    VIDEOS_ARTIFACT,
    Store,
    canonical_json_bytes,
    sha256_hex,
)
from repro.workloads.synthetic import random_similarity_list

#: Default chaos seeds; override one via CHAOS_SEED for CI sweeps.
SEEDS = [11, 1997, 20260806]
if os.environ.get("CHAOS_SEED"):
    SEEDS = [int(os.environ["CHAOS_SEED"])]

SETTINGS = settings(
    max_examples=300,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FILES = [SNAPSHOT_MANIFEST, VIDEOS_ARTIFACT, ATOMICS_ARTIFACT]
#: The payload field of each data artifact.
PAYLOAD_FIELD = {VIDEOS_ARTIFACT: "videos", ATOMICS_ARTIFACT: "atomics"}
VALUES = st.sampled_from([-1, 0, 99, "x", None, True, {}, [], [{}], [1]])
BYTE_DAMAGE = ["truncate", "flip", "delete", "garble"]

#: ``("file", mode, reseal, snapshot pick, file, position)``
FILE_DAMAGE = st.tuples(
    st.just("file"),
    st.sampled_from(BYTE_DAMAGE),
    st.booleans(),
    st.integers(0, 2),
    st.sampled_from(FILES),
    st.integers(0, 1 << 20),
)
#: ``("field", reseal, snapshot pick, file, key, value)``
FIELD_DAMAGE = st.one_of(
    st.tuples(
        st.just("field"),
        st.booleans(),
        st.integers(0, 2),
        st.just(SNAPSHOT_MANIFEST),
        st.sampled_from(["format", "artifacts", "wal_through", "id"]),
        VALUES,
    ),
    st.tuples(
        st.just("field"),
        st.booleans(),
        st.integers(0, 2),
        st.sampled_from(sorted(PAYLOAD_FIELD)),
        st.just(""),
        VALUES,
    ),
)
#: ``("manifest", mode, position)``
MANIFEST_DAMAGE = st.tuples(
    st.just("manifest"), st.sampled_from(BYTE_DAMAGE), st.integers(0, 1 << 20)
)
DAMAGE = st.one_of(FILE_DAMAGE, FIELD_DAMAGE, MANIFEST_DAMAGE)


def build_database():
    rng = random.Random(5)
    database = VideoDatabase()
    for position in range(2):
        segments = [
            SegmentMetadata(
                objects=[make_object(f"t{index}", "train")]
                if rng.random() < 0.5
                else []
            )
            for index in range(5)
        ]
        video = database.add(flat_video(f"v{position}", segments))
        database.register_atomic(
            "P1", video.name, random_similarity_list(5, rng=rng)
        )
    return database


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def write(path, data):
    with open(path, "wb") as handle:
        handle.write(data)


def record(path, table, key, data):
    """Write ``data``'s size and digest into ``path``'s ``table``."""
    document = json.loads(read(path))
    document[table][key] = {"sha256": sha256_hex(data), "bytes": len(data)}
    write(path, canonical_json_bytes(document))


def reseal(store, snapshot_id, name):
    """Record ``name``'s new bytes up the digest chain, so only the rules
    after size and digest can catch the damage."""
    directory = store.snapshot_path(snapshot_id)
    path = os.path.join(directory, name)
    if not os.path.exists(path):
        return
    snapshot_manifest = os.path.join(directory, SNAPSHOT_MANIFEST)
    if name != SNAPSHOT_MANIFEST:
        record(snapshot_manifest, "artifacts", name, read(path))
    record(
        store.manifest_path, "snapshots", snapshot_id, read(snapshot_manifest)
    )


def damage_bytes(path, mode, position):
    data = read(path)
    if mode == "delete":
        os.remove(path)
    elif mode == "truncate":
        write(path, data[: position % len(data)])
    elif mode == "flip":
        index = position % len(data)
        flipped = data[index] ^ (1 << (position % 8))
        write(path, data[:index] + bytes([flipped]) + data[index + 1 :])
    else:
        write(path, b"{not json")


def apply_damage(store, damage):
    if damage[0] == "manifest":
        __, mode, position = damage
        damage_bytes(store.manifest_path, mode, position)
        return
    if damage[0] == "file":
        __, mode, sealed, pick, name, position = damage
    else:
        __, sealed, pick, name, key, value = damage
    on_disk = store._on_disk_snapshots()
    snapshot_id = on_disk[pick % len(on_disk)]
    path = os.path.join(store.snapshot_path(snapshot_id), name)
    if damage[0] == "file":
        damage_bytes(path, mode, position)
    else:
        document = json.loads(read(path))
        document[key or PAYLOAD_FIELD[name]] = value
        write(path, canonical_json_bytes(document))
    if sealed:
        reseal(store, snapshot_id, name)


def tree(root):
    return sorted(
        os.path.join(directory, name)
        for directory, __, files in os.walk(root)
        for name in files
    )


def assert_load_agrees_with_verify(store):
    """Returns False when a foreign format stops every entry point."""
    try:
        report = store.verify()
    except StoreVersionError as error:
        # Verify and repair refuse a store holding a foreign format, and
        # repair moves nothing.  Load raises too once it reaches the
        # foreign snapshot, and can only stop earlier, at a newer one.
        before = tree(store.root)
        with pytest.raises(StoreVersionError):
            store.repair()
        assert tree(store.root) == before
        foreign = os.path.basename(os.path.dirname(error.path))
        try:
            loaded = store.load()
        except StoreVersionError:
            return False
        assert foreign.startswith("snap-") and loaded.snapshot_id > foreign
        return False
    intact = report.intact_snapshots()
    if not intact:
        with pytest.raises(StoreCorruptionError):
            store.load()
        return True
    assert store.load().snapshot_id == intact[0], (
        f"verify reports {intact} intact in load's order"
    )
    return True


def assert_repair_heals(store):
    outcome = store.repair()
    assert store.verify().ok
    if outcome.current is None:
        with pytest.raises(StoreError):
            store.load()
        return
    loaded = store.load()
    assert loaded.snapshot_id == outcome.current
    assert loaded.actions == []


def check_agreement(saves, damage):
    scratch = tempfile.mkdtemp(prefix="store-agreement-")
    try:
        store = Store(os.path.join(scratch, "a"), fsync=False)
        database = build_database()
        for wal_through in range(1, saves + 1):
            store.save(database, wal_through=wal_through)
        apply_damage(store, damage)
        # The same damage, untouched by load, for repair to start from.
        twin = Store(os.path.join(scratch, "b"), fsync=False)
        shutil.copytree(store.root, twin.root)
        if assert_load_agrees_with_verify(store):
            assert_repair_heals(store)
            assert_repair_heals(twin)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


@pytest.mark.parametrize("chaos_seed", SEEDS)
def test_load_verify_and_repair_agree(chaos_seed):
    run = given(saves=st.integers(2, 3), damage=DAMAGE)(check_agreement)
    seed(chaos_seed)(SETTINGS(run))()


@pytest.mark.parametrize(
    "damage",
    [
        ("file", "truncate", False, 1, VIDEOS_ARTIFACT, 7),
        ("file", "flip", False, 1, ATOMICS_ARTIFACT, 40),
        ("file", "garble", True, 1, SNAPSHOT_MANIFEST, 0),
        ("field", True, 1, SNAPSHOT_MANIFEST, "format", 99),
        ("field", True, 1, SNAPSHOT_MANIFEST, "artifacts", []),
        ("field", True, 1, SNAPSHOT_MANIFEST, "wal_through", -1),
        ("field", True, 1, VIDEOS_ARTIFACT, "", [{}]),
        ("field", True, 1, ATOMICS_ARTIFACT, "", [1]),
        ("manifest", "garble", 0),
    ],
    ids=[
        "size", "digest", "json", "format", "artifacts", "wal_through",
        "videos-model", "atomics-model", "manifest",
    ],
)
def test_each_rule_decides_a_damage(damage):
    """Pinned damages, one decided by each rule of the check."""
    check_agreement(2, damage)
