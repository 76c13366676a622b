"""Partitioning and the on-disk shard layout (SHARDS.json)."""

import json
import os

import pytest

from repro.core.engine import RetrievalEngine
from repro.core.simlist import SimilarityList
from repro.errors import ShardError
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata
from repro.shard import Shard, ShardedCorpus
from repro.store import (
    SHARD_FORMAT_VERSION,
    SHARDS_MANIFEST,
    load_layout,
    partition_names,
    save_sharded,
    split_database,
)
from repro.store.sharding import shard_id

from tests.shard.conftest import graded_corpus


class TestPartitionNames:
    def test_round_robin_is_deterministic_and_balanced(self):
        names = [f"v{i}" for i in range(10)]
        groups = partition_names(names, 3)
        assert groups == [
            ["v0", "v3", "v6", "v9"],
            ["v1", "v4", "v7"],
            ["v2", "v5", "v8"],
        ]
        sizes = [len(group) for group in groups]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_names_leaves_empty_groups(self):
        groups = partition_names(["a", "b"], 4)
        assert groups == [["a"], ["b"], [], []]

    def test_single_shard_owns_everything(self):
        names = ["a", "b", "c"]
        assert partition_names(names, 1) == [names]

    def test_bad_count_rejected(self):
        with pytest.raises(ShardError):
            partition_names(["a"], 0)


class TestSplitDatabase:
    def test_videos_and_atomics_travel_together(self, corpus):
        parts = split_database(corpus, 3)
        assert sorted(
            name for part in parts for name in part.names()
        ) == sorted(corpus.names())
        for part in parts:
            for name in part.names():
                assert part.get(name) is corpus.get(name)
                for predicate in corpus.atomic_names():
                    assert part.atomic_list(
                        predicate, name, 2
                    ) is corpus.atomic_list(predicate, name, 2)

    def test_partition_is_disjoint(self, corpus):
        parts = split_database(corpus, 4)
        seen = set()
        for part in parts:
            owned = set(part.names())
            assert not owned & seen
            seen |= owned


class TestLayoutRoundTrip:
    def test_save_then_load(self, corpus, tmp_path):
        saved = save_sharded(corpus, tmp_path, 3)
        loaded = load_layout(tmp_path)
        assert loaded.n_shards == 3
        assert loaded.scheme == saved.scheme
        assert [spec.shard_id for spec in loaded.shards] == [
            shard_id(i) for i in range(3)
        ]
        assert sorted(loaded.video_names) == sorted(corpus.names())
        # Every shard directory is a complete store with a snapshot.
        for spec in loaded.shards:
            store = loaded.store(spec)
            assert sorted(store.load().database.names()) == sorted(
                spec.videos
            )

    def test_spec_for(self, corpus, tmp_path):
        layout = save_sharded(corpus, tmp_path, 2)
        for spec in layout.shards:
            for name in spec.videos:
                assert layout.spec_for(name) is spec
        with pytest.raises(ShardError):
            layout.spec_for("no-such-video")

    def test_resplit_same_count_adds_snapshots(self, corpus, tmp_path):
        save_sharded(corpus, tmp_path, 2)
        layout = save_sharded(corpus, tmp_path, 2)
        assert layout.n_shards == 2

    def test_resplit_different_count_refused(self, corpus, tmp_path):
        save_sharded(corpus, tmp_path, 2)
        with pytest.raises(ShardError, match="already has 2 shard"):
            save_sharded(corpus, tmp_path, 3)


def _tamper(root, mutate):
    path = os.path.join(root, SHARDS_MANIFEST)
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    mutate(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


class TestLayoutValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShardError, match="no shard layout"):
            load_layout(tmp_path)

    def test_junk_manifest(self, tmp_path):
        (tmp_path / SHARDS_MANIFEST).write_bytes(b"{truncated")
        with pytest.raises(ShardError, match="unreadable"):
            load_layout(tmp_path)

    def test_non_object_manifest(self, tmp_path):
        (tmp_path / SHARDS_MANIFEST).write_text("[1, 2]")
        with pytest.raises(ShardError, match="JSON object"):
            load_layout(tmp_path)

    def test_wrong_format_version(self, corpus, tmp_path):
        save_sharded(corpus, tmp_path, 2)

        def bump(document):
            document["format"] = SHARD_FORMAT_VERSION + 1

        _tamper(tmp_path, bump)
        with pytest.raises(ShardError, match="format"):
            load_layout(tmp_path)

    def test_empty_shard_list(self, tmp_path):
        (tmp_path / SHARDS_MANIFEST).write_text(
            json.dumps({"format": SHARD_FORMAT_VERSION, "shards": []})
        )
        with pytest.raises(ShardError, match="lists no shards"):
            load_layout(tmp_path)

    def test_duplicate_shard_id(self, corpus, tmp_path):
        save_sharded(corpus, tmp_path, 2)

        def duplicate(document):
            document["shards"][1]["id"] = document["shards"][0]["id"]

        _tamper(tmp_path, duplicate)
        with pytest.raises(ShardError, match="duplicate shard id"):
            load_layout(tmp_path)

    def test_overlapping_ownership(self, corpus, tmp_path):
        save_sharded(corpus, tmp_path, 2)

        def overlap(document):
            stolen = document["shards"][0]["videos"][0]
            document["shards"][1]["videos"].append(stolen)

        _tamper(tmp_path, overlap)
        with pytest.raises(ShardError, match="owned by both"):
            load_layout(tmp_path)

    def test_escaping_path_rejected(self, corpus, tmp_path):
        save_sharded(corpus, tmp_path, 2)

        def escape(document):
            document["shards"][0]["path"] = "../outside"

        _tamper(tmp_path, escape)
        with pytest.raises(ShardError, match="escapes"):
            load_layout(tmp_path)

    def test_malformed_entry(self, tmp_path):
        (tmp_path / SHARDS_MANIFEST).write_text(
            json.dumps(
                {"format": SHARD_FORMAT_VERSION, "shards": [{"id": "x"}]}
            )
        )
        with pytest.raises(ShardError, match="malformed shard entry"):
            load_layout(tmp_path)


class TestShardedCorpusConstruction:
    def test_needs_a_shard(self):
        with pytest.raises(ShardError, match="at least one shard"):
            ShardedCorpus([])

    def test_duplicate_ids_rejected(self):
        loader = VideoDatabase
        with pytest.raises(ShardError, match="duplicate shard id"):
            ShardedCorpus(
                [Shard("s0", ["a"], loader), Shard("s0", ["b"], loader)]
            )

    def test_overlapping_videos_rejected(self):
        loader = VideoDatabase
        with pytest.raises(ShardError, match="owned by both"):
            ShardedCorpus(
                [Shard("s0", ["a"], loader), Shard("s1", ["a"], loader)]
            )

    def test_from_database_covers_the_corpus(self):
        corpus = graded_corpus(n_videos=5)
        sharded = ShardedCorpus.from_database(corpus, 2)
        assert sharded.n_shards == 2
        assert len(sharded) == 2
        assert sorted(sharded.video_names) == sorted(corpus.names())

    def test_one_shard_is_the_database_itself(self):
        # No copy: a video added after the corpus was built is ranked.
        corpus = graded_corpus(n_videos=2)
        sharded = ShardedCorpus.from_database(corpus)
        assert sharded.shards[0].database() is corpus
        late = flat_video("late", [SegmentMetadata()] * 3)
        corpus.add(late)
        corpus.register_atomic(
            "P1", "late", SimilarityList.from_entries([((2, 2), 99.0)], 99.0)
        )
        assert "late" in sharded.video_names
        top = sharded.top_k(RetrievalEngine(), parse("$P1"), 1)
        assert [(hit.video, hit.segment_id) for hit in top] == [("late", 2)]

    def test_from_directory_is_lazy(self, corpus, tmp_path):
        save_sharded(corpus, tmp_path, 3)
        sharded = ShardedCorpus.from_directory(tmp_path)
        # No store has been touched yet — only the layout manifest.
        assert all(shard._database is None for shard in sharded.shards)
        assert sorted(sharded.video_names) == sorted(corpus.names())

    def test_ownership_mismatch_surfaces_on_load(self, corpus, tmp_path):
        save_sharded(corpus, tmp_path, 2)

        def rename(document):
            document["shards"][0]["videos"][0] = "phantom"

        _tamper(tmp_path, rename)
        sharded = ShardedCorpus.from_directory(tmp_path)
        with pytest.raises(ShardError, match="assigns"):
            sharded.shards[0].database()
