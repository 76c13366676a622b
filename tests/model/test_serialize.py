"""Round-trip and trust-boundary tests for JSON persistence.

Two properties: everything the model can express survives
``loads(dumps(db))`` exactly, and every malformed payload a file or
network peer could hand us surfaces as a typed error at the boundary —
never a raw ``KeyError``/``TypeError`` and never a silently corrupt
object.
"""

import json

import pytest

from repro.core.engine import RetrievalEngine
from repro.core.simlist import SimilarityList
from repro.errors import HierarchyError, ModelError, ReproError
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import Video, VideoNode, flat_video
from repro.model.serialize import (
    database_from_dict,
    database_to_dict,
    segment_from_dict,
    segment_to_dict,
    simlist_from_dict,
    simlist_to_dict,
    video_from_dict,
    video_to_dict,
)
from repro.model.metadata import (
    Fact,
    Relationship,
    SegmentMetadata,
    make_object,
)
from repro.workloads.casablanca import casablanca_database, query1
from repro.workloads.movies import gulf_war_video, western_video

from tests.core.test_simlist import similarity_lists
from hypothesis import given, settings
from hypothesis import strategies as st


class TestSimilarityLists:
    def test_round_trip(self):
        sim = SimilarityList.from_entries(
            [((1, 4), 2.595), ((9, 9), 9.787)], 10.0
        )
        assert simlist_from_dict(simlist_to_dict(sim)) == sim

    @given(similarity_lists())
    @settings(max_examples=60)
    def test_round_trip_property(self, sim):
        through_json = json.loads(json.dumps(simlist_to_dict(sim)))
        assert simlist_from_dict(through_json) == sim


class TestSegments:
    def test_round_trip_with_confidences(self):
        segment = SegmentMetadata(
            attributes={"kind": "battle", "length": Fact(90, 0.9)},
            objects=[
                make_object("p1", "plane", height=Fact(300, 0.7)),
                make_object("jw", "person", confidence=0.8),
            ],
            relationships=[Relationship("bombs", ("p1", "t1"), 0.6)],
        )
        rebuilt = segment_from_dict(segment_to_dict(segment))
        assert rebuilt.segment_attribute("kind").value == "battle"
        assert rebuilt.segment_attribute("length").confidence == pytest.approx(0.9)
        assert rebuilt.object("p1").attribute("height").confidence == (
            pytest.approx(0.7)
        )
        assert rebuilt.object("jw").confidence == pytest.approx(0.8)
        assert rebuilt.find_relationship(
            "bombs", ("p1", "t1")
        ).confidence == pytest.approx(0.6)

    def test_full_confidence_compact_form(self):
        segment = SegmentMetadata(attributes={"kind": "talk"})
        document = segment_to_dict(segment)
        assert document["attributes"]["kind"] == "talk"  # no wrapper dict


class TestVideos:
    @pytest.mark.parametrize("builder", [western_video, gulf_war_video])
    def test_hierarchy_round_trip(self, builder):
        video = builder()
        rebuilt = video_from_dict(video_to_dict(video))
        assert rebuilt.name == video.name
        assert rebuilt.level_names == video.level_names
        assert rebuilt.n_levels == video.n_levels
        for level in range(1, video.n_levels + 1):
            assert len(rebuilt.nodes_at_level(level)) == len(
                video.nodes_at_level(level)
            )
        assert rebuilt.object_universe() == video.object_universe()


class TestDatabases:
    def test_casablanca_round_trip_preserves_query_results(self):
        original = casablanca_database()
        restored = database_from_dict(
            json.loads(json.dumps(database_to_dict(original)))
        )

        engine = RetrievalEngine()
        formula = query1()
        before = engine.evaluate_video(
            formula, original.get("making-of-casablanca"), database=original
        )
        after = engine.evaluate_video(
            formula, restored.get("making-of-casablanca"), database=restored
        )
        assert before == after

    def test_atomics_round_trip(self):
        original = casablanca_database()
        restored = database_from_dict(database_to_dict(original))
        assert restored.atomic_names() == original.atomic_names()
        assert restored.atomic_list(
            "Moving-Train", "making-of-casablanca"
        ) == original.atomic_list("Moving-Train", "making-of-casablanca")

    def test_unknown_format_rejected(self):
        with pytest.raises(ModelError):
            database_from_dict({"format": 99})

    def test_json_is_plain(self):
        document = database_to_dict(casablanca_database())
        json.dumps(document)  # must not raise


# ---------------------------------------------------------------------------
# adversarial payloads at the trust boundary
# ---------------------------------------------------------------------------
class TestAdversarialPayloads:
    """Malformed input raises typed errors, never raw Python ones."""

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # no keys at all
            {"maximum": 10.0},  # entries missing
            {"entries": []},  # maximum missing
            {"maximum": "ten", "entries": []},  # non-numeric maximum
            {"maximum": 10.0, "entries": [[1, 2]]},  # short entry
            {"maximum": 10.0, "entries": [[1, 2, "high"]]},  # junk actual
            {"maximum": 10.0, "entries": 7},  # entries not a list
            {"maximum": 10.0, "entries": [None]},  # entry not a triple
            "just a string",  # not even a dict
            None,
        ],
    )
    def test_simlist_structural_junk(self, payload):
        with pytest.raises(ModelError):
            simlist_from_dict(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            # Out-of-range actuals must hit the SimilarityValue gate.
            {"maximum": 10.0, "entries": [[1, 2, -1.0]]},
            {"maximum": 10.0, "entries": [[1, 2, 11.0]]},
            # Invariant violations: overlapping and inverted intervals.
            # (Out-of-order entries are canonicalized by from_entries,
            # not rejected — order in the payload carries no meaning.)
            {"maximum": 10.0, "entries": [[1, 5, 1.0], [3, 8, 1.0]]},
            {"maximum": 10.0, "entries": [[5, 1, 1.0]]},
        ],
    )
    def test_simlist_semantic_junk_is_typed(self, payload):
        with pytest.raises(ReproError):
            simlist_from_dict(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"attributes": 7},  # attributes not a mapping
            {"attributes": {"kind": [1, 2]}},  # list-valued attribute
            {"attributes": {"kind": {"value": [1]}}},  # wrapped non-scalar
            {"objects": [{"type": "person"}]},  # object without id
            {"objects": [{"id": "p1"}]},  # object without type
            {"objects": 13},  # objects not a list
            {"relationships": [{"args": ["a"]}]},  # relationship, no name
            {"relationships": [{"name": "r", "args": 5}]},  # junk args
        ],
    )
    def test_segment_structural_junk(self, payload):
        with pytest.raises(ModelError):
            segment_from_dict(payload)

    def test_duplicate_object_ids_rejected(self):
        payload = {
            "objects": [
                {"id": "p1", "type": "person"},
                {"id": "p1", "type": "plane"},
            ]
        }
        with pytest.raises(ReproError):
            segment_from_dict(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # nameless
            {"name": "", "root": {}},  # empty name
            {"name": 7, "root": {}},  # non-string name
            {"name": "v"},  # no root
            {"name": "v", "root": []},  # root not a node document
            {"name": "v", "root": {"children": 3}},  # junk children
            {"name": "v", "root": {}, "level_names": {"one": "x"}},
        ],
    )
    def test_video_structural_junk(self, payload):
        with pytest.raises(ModelError):
            video_from_dict(payload)

    def test_video_ragged_leaves_hit_hierarchy_gate(self):
        payload = {
            "name": "ragged",
            "root": {
                "children": [
                    {"children": [{}]},  # leaf at level 3
                    {},  # leaf at level 2
                ]
            },
        }
        with pytest.raises(HierarchyError):
            video_from_dict(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"format": 1, "videos": 7, "atomics": []},
            {"format": 1, "videos": [], "atomics": {}},
            {"format": 1, "videos": [None], "atomics": []},
            {
                "format": 1,
                "videos": [],
                # atomic referencing a video that does not exist
                "atomics": [
                    {
                        "predicate": "P1",
                        "video": "ghost",
                        "list": {"maximum": 1.0, "entries": []},
                    }
                ],
            },
            {
                "format": 1,
                "videos": [{"name": "v", "root": {"children": [{}]}}],
                "atomics": [{"predicate": "P1"}],  # no video, no list
            },
        ],
    )
    def test_database_structural_junk(self, payload):
        with pytest.raises(ModelError):
            database_from_dict(payload)


# ---------------------------------------------------------------------------
# whole-database round-trip property (hypothesis)
# ---------------------------------------------------------------------------
attr_values = st.one_of(
    st.text(min_size=1, max_size=8),
    st.integers(-100, 100),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)
confidences = st.one_of(
    st.just(1.0), st.floats(0.1, 1.0, allow_nan=False)
)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6
)
# make_object() takes attributes as keywords next to these parameters.
object_attr_names = names.filter(
    lambda name: name not in ("object_id", "type", "confidence")
)


@st.composite
def segment_metadata(draw):
    """Random segment metadata, including the empty segment."""
    attributes = {
        name: Fact(draw(attr_values), draw(confidences))
        for name in draw(st.lists(names, max_size=3, unique=True))
    }
    object_ids = draw(st.lists(names, max_size=3, unique=True))
    objects = []
    for object_id in object_ids:
        attrs = {
            name: Fact(draw(attr_values), draw(confidences))
            for name in draw(
                st.lists(object_attr_names, max_size=2, unique=True)
            )
        }
        objects.append(
            make_object(
                object_id,
                draw(st.sampled_from(["person", "plane", "train"])),
                confidence=draw(confidences),
                **attrs,
            )
        )
    relationships = []
    if object_ids and draw(st.booleans()):
        relationships.append(
            Relationship(
                draw(names),
                tuple(
                    draw(
                        st.lists(
                            st.sampled_from(object_ids),
                            min_size=1,
                            max_size=2,
                        )
                    )
                ),
                draw(confidences),
            )
        )
    return SegmentMetadata(
        attributes=attributes, objects=objects, relationships=relationships
    )


@st.composite
def video_databases(draw):
    """Random databases: flat and 3-level videos, atomics, empty nodes."""
    database = VideoDatabase()
    n_videos = draw(st.integers(1, 2))
    for position in range(n_videos):
        if draw(st.booleans()):  # flat two-level video
            segments = draw(
                st.lists(segment_metadata(), min_size=1, max_size=4)
            )
            video = flat_video(f"v{position}", segments)
        else:  # uniform three-level video, some nodes empty
            root = VideoNode(metadata=draw(segment_metadata()))
            for __ in range(draw(st.integers(1, 2))):
                scene = root.add_child(VideoNode())  # empty interior node
                for ___ in range(draw(st.integers(1, 3))):
                    scene.add_child(
                        VideoNode(metadata=draw(segment_metadata()))
                    )
            video = Video(name=f"v{position}", root=root)
        database.add(video)
        for predicate in draw(
            st.lists(st.sampled_from(["P1", "P2"]), max_size=2, unique=True)
        ):
            database.register_atomic(
                predicate,
                video.name,
                draw(similarity_lists()),
                level=draw(st.sampled_from([1, 2])),
            )
    return database


class TestDatabaseRoundTripProperty:
    @given(video_databases())
    @settings(max_examples=40, deadline=None)
    def test_loads_dumps_identity(self, database):
        document = database_to_dict(database)
        through_json = json.loads(json.dumps(document))
        restored = database_from_dict(through_json)
        assert database_to_dict(restored) == document

    @given(video_databases())
    @settings(max_examples=15, deadline=None)
    def test_round_trip_preserves_structure(self, database):
        restored = database_from_dict(
            json.loads(json.dumps(database_to_dict(database)))
        )
        assert restored.names() == database.names()
        assert restored.atomic_names() == database.atomic_names()
        for video in database.videos():
            rebuilt = restored.get(video.name)
            assert rebuilt.n_levels == video.n_levels
            assert rebuilt.object_universe() == video.object_universe()
