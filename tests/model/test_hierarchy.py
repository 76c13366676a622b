"""Tests for the hierarchical video model."""

import gc
import weakref

import pytest

from repro.errors import HierarchyError, ModelError, UnknownLevelError
from repro.model.database import VideoDatabase
from repro.core.simlist import SimilarityList
from repro.model.hierarchy import (
    Video,
    VideoNode,
    flat_video,
    standard_level_names,
)
from repro.model.metadata import SegmentMetadata, make_object
from tests.pictures.index_document import index_document


def three_level_video():
    """video -> 2 scenes -> (3, 2) shots."""
    root = VideoNode()
    scene1 = root.add_child(VideoNode())
    scene2 = root.add_child(VideoNode())
    for __ in range(3):
        scene1.add_child(VideoNode())
    for __ in range(2):
        scene2.add_child(VideoNode())
    return Video(
        name="demo", root=root, level_names={1: "video", 2: "scene", 3: "shot"}
    )


class TestVideoConstruction:
    def test_levels_assigned(self):
        video = three_level_video()
        assert video.root.level == 1
        assert video.root.children[0].level == 2
        assert video.root.children[0].children[0].level == 3
        assert video.n_levels == 3

    def test_sibling_indices_one_based(self):
        video = three_level_video()
        assert [child.index for child in video.root.children] == [1, 2]

    def test_uneven_leaves_rejected(self):
        root = VideoNode()
        root.add_child(VideoNode())  # leaf at level 2
        deep = root.add_child(VideoNode())
        deep.add_child(VideoNode())  # leaf at level 3
        with pytest.raises(HierarchyError):
            Video(name="bad", root=root)

    def test_duplicate_level_names_rejected(self):
        root = VideoNode()
        root.add_child(VideoNode())
        with pytest.raises(HierarchyError):
            Video(name="bad", root=root, level_names={1: "a", 2: "a"})

    def test_level_name_out_of_range_rejected(self):
        root = VideoNode()
        with pytest.raises(UnknownLevelError):
            Video(name="bad", root=root, level_names={5: "frame"})


class TestNavigation:
    def test_nodes_at_level(self):
        video = three_level_video()
        assert len(video.nodes_at_level(1)) == 1
        assert len(video.nodes_at_level(2)) == 2
        assert len(video.nodes_at_level(3)) == 5

    def test_nodes_at_level_in_temporal_order(self):
        video = three_level_video()
        shots = video.nodes_at_level(3)
        parents = [shot.parent.index for shot in shots]
        assert parents == [1, 1, 1, 2, 2]

    def test_descendants_at_own_level_is_self(self):
        video = three_level_video()
        scene = video.root.children[0]
        assert scene.descendants_at_level(2) == [scene]

    def test_descendants_above_own_level_rejected(self):
        video = three_level_video()
        scene = video.root.children[0]
        with pytest.raises(UnknownLevelError):
            scene.descendants_at_level(1)

    def test_level_out_of_range(self):
        video = three_level_video()
        with pytest.raises(UnknownLevelError):
            video.nodes_at_level(4)

    def test_level_of_name(self):
        video = three_level_video()
        assert video.level_of("shot") == 3
        with pytest.raises(UnknownLevelError):
            video.level_of("frame")

    def test_a_dropped_video_is_freed_without_the_cycle_collector(self):
        """Parent links are weak, so the tree is acyclic: dropping the
        last reference frees it by reference count."""
        gc.disable()
        try:
            video = three_level_video()
            video.root.pictures_at_level(3)
            shot = video.root.children[0].children[0]
            assert shot.parent.parent is video.root
            assert video.root.parent is None
            alive = [weakref.ref(node) for node in video.segments()]
            del video, shot
            assert not any(ref() is not None for ref in alive)
        finally:
            gc.enable()

    def test_object_universe(self):
        segments = [
            SegmentMetadata(objects=[make_object("a", "t")]),
            SegmentMetadata(objects=[make_object("b", "t"), make_object("a", "t")]),
        ]
        video = flat_video("v", segments)
        assert video.object_universe() == ["a", "b"]


def cold_universe(video):
    """What a walk of the tree yields, whatever the root has cached."""
    seen = {}
    for node in video.root.walk():
        for object_id in node.metadata.object_ids():
            seen.setdefault(object_id, None)
    return list(seen)


def segment_with(*object_ids):
    return SegmentMetadata(
        objects=[make_object(object_id, "t") for object_id in object_ids]
    )


class TestObjectUniverseLifetime:
    """The universe lives on the root beside the picture systems and is
    dropped or extended wherever they are (DESIGN.md §6)."""

    def test_second_call_does_not_walk(self, monkeypatch):
        video = flat_video("v", [segment_with("a"), segment_with("b", "a")])
        first = video.object_universe()
        walks = []
        walk = VideoNode.walk
        monkeypatch.setattr(
            VideoNode, "walk", lambda node: walks.append(node) or walk(node)
        )
        assert video.object_universe() == first == ["a", "b"]
        assert not walks

    def test_the_caller_owns_the_returned_list(self):
        video = flat_video("v", [segment_with("a")])
        video.object_universe().append("intruder")
        assert video.object_universe() == ["a"]

    def test_add_child_at_any_depth_invalidates(self):
        video = three_level_video()
        scene = video.root.children[1]
        scene.children[0].metadata = segment_with("a")
        video.root.invalidate_pictures()
        assert video.object_universe() == ["a"]
        for parent, object_id in ((scene, "deep"), (video.root, "shallow")):
            parent.add_child(VideoNode(metadata=segment_with(object_id, "a")))
            assert object_id in video.object_universe()
            assert video.object_universe() == cold_universe(video)

    def test_in_place_edits_need_invalidate_pictures(self):
        video = flat_video("v", [segment_with("a")])
        assert video.object_universe() == ["a"]
        video.root.children[0].metadata.add_object(make_object("b", "t"))
        assert video.object_universe() == ["a"]  # the documented staleness
        video.root.invalidate_pictures()
        assert video.object_universe() == ["a", "b"] == cold_universe(video)

    def test_append_segments_extends_in_first_seen_order(self):
        video = flat_video("v", [segment_with("b"), segment_with("a", "b")])
        assert video.object_universe() == ["b", "a"]
        video.append_segments([segment_with("a", "new"), segment_with("z", "b")])
        assert video.object_universe() == ["b", "a", "new", "z"]
        assert video.object_universe() == cold_universe(video)
        # A universe never asked for stays unbuilt until the first query.
        fresh = flat_video("w", [segment_with("b")])
        fresh.append_segments([segment_with("c")])
        assert fresh.root._universe is None
        assert fresh.object_universe() == ["b", "c"]

    def test_a_replaced_video_starts_cold(self):
        database = VideoDatabase()
        database.add(flat_video("v", [segment_with("a")]))
        assert database.get("v").object_universe() == ["a"]
        database.replace(flat_video("v", [segment_with("b")]))
        assert database.get("v").root._universe is None
        assert database.get("v").object_universe() == ["b"]

    def test_store_reload_and_wal_recovery_start_cold(self, tmp_path):
        from repro.ingest import initialise, recover
        from repro.store import Store

        database = VideoDatabase()
        video = database.add(flat_video("v", [segment_with("b", "a")]))
        assert video.object_universe() == ["b", "a"]
        store = Store(tmp_path / "store")
        store.save(database)
        reloaded = store.load().database.get("v")
        assert reloaded.root._universe is None
        assert reloaded.object_universe() == ["b", "a"]

        with initialise(tmp_path / "live", database) as ingester:
            ingester.append_segments("v", [segment_with("c", "a")])
            assert ingester.database.get("v").object_universe() == [
                "b", "a", "c",
            ]  # fmt: skip
        state = recover(tmp_path / "live")
        state.wal.close()
        recovered = state.database.get("v")
        assert recovered.root._universe is None
        assert recovered.object_universe() == ["b", "a", "c"]


class TestFlatVideo:
    def test_two_levels(self):
        video = flat_video("v", [SegmentMetadata() for __ in range(4)])
        assert video.n_levels == 2
        assert len(video.nodes_at_level(2)) == 4
        assert video.level_of("shot") == 2

    def test_empty_flat_video(self):
        video = flat_video("v", [])
        assert video.n_levels == 1


class TestAppendSegments:
    def test_append_extends_in_place(self):
        video = flat_video("v", [SegmentMetadata() for __ in range(3)])
        added = video.append_segments([SegmentMetadata(), SegmentMetadata()])
        assert len(added) == 2
        leaves = video.nodes_at_level(2)
        assert len(leaves) == 5
        assert [node.index for node in leaves] == [1, 2, 3, 4, 5]
        assert all(node.parent is video.root for node in added)

    def test_append_to_empty_video_creates_the_leaf_level(self):
        video = flat_video("v", [])
        assert video.n_levels == 1
        video.append_segments([SegmentMetadata()])
        assert video.n_levels == 2
        assert video.level_of("shot") == 2
        assert len(video.nodes_at_level(2)) == 1

    def test_append_nothing_is_a_no_op(self):
        video = flat_video("v", [SegmentMetadata()])
        system = video.root.pictures_at_level(2)
        assert video.append_segments([]) == []
        assert video.root.pictures_at_level(2) is system

    def test_append_keeps_installed_picture_systems_warm(self):
        video = flat_video(
            "v", [SegmentMetadata(objects=[make_object("a", "train")])]
        )
        level_one = video.root.pictures_at_level(1)
        level_two = video.root.pictures_at_level(2)
        video.append_segments(
            [SegmentMetadata(objects=[make_object("b", "person")])]
        )
        # Same system objects, extended — not rebuilt from scratch.
        assert video.root.pictures_at_level(1) is level_one
        assert video.root.pictures_at_level(2) is level_two
        assert len(level_two.segments) == 2
        assert level_two.index.n_segments == 2

    def test_appended_index_equals_rebuilt(self):
        segments = [
            SegmentMetadata(objects=[make_object(f"o{i}", "train")])
            for i in range(4)
        ]
        grown = flat_video("v", segments[:2])
        grown.root.pictures_at_level(2)  # install before appending
        grown.append_segments(segments[2:])
        whole = flat_video("v", segments)
        assert index_document(
            grown.root.pictures_at_level(2).index
        ) == index_document(whole.root.pictures_at_level(2).index)

    def test_deep_video_refuses_append(self):
        video = three_level_video()
        with pytest.raises(HierarchyError, match="flat"):
            video.append_segments([SegmentMetadata()])


class TestStandardLevelNames:
    def test_five_levels(self):
        names = standard_level_names(5)
        assert names == {
            1: "video",
            2: "subplot",
            3: "scene",
            4: "shot",
            5: "frame",
        }

    def test_two_levels(self):
        assert standard_level_names(2) == {1: "video", 2: "frame"}

    def test_out_of_range(self):
        with pytest.raises(HierarchyError):
            standard_level_names(6)


class TestDatabase:
    def test_add_and_get(self):
        database = VideoDatabase()
        video = flat_video("v", [SegmentMetadata()])
        database.add(video)
        assert database.get("v") is video
        assert "v" in database
        assert len(database) == 1

    def test_duplicate_rejected(self):
        database = VideoDatabase()
        database.add(flat_video("v", [SegmentMetadata()]))
        with pytest.raises(ModelError):
            database.add(flat_video("v", [SegmentMetadata()]))

    def test_missing_video(self):
        with pytest.raises(ModelError):
            VideoDatabase().get("ghost")

    def test_atomic_registry(self):
        database = VideoDatabase()
        database.add(flat_video("v", [SegmentMetadata()]))
        sim = SimilarityList.from_entries([((1, 1), 1.0)], 2.0)
        database.register_atomic("P", "v", sim)
        assert database.atomic_list("P", "v") == sim
        assert database.atomic_list("P", "v", level=3) is None
        assert database.atomic_list("Q", "v") is None
        assert database.atomic_names() == ["P"]

    def test_atomic_for_unknown_video_rejected(self):
        database = VideoDatabase()
        sim = SimilarityList.from_entries([((1, 1), 1.0)], 2.0)
        with pytest.raises(ModelError):
            database.register_atomic("P", "ghost", sim)
