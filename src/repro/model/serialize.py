"""JSON document shapes for videos, meta-data and similarity lists.

The paper assumes a database "that contains the meta-data describing the
contents of the various videos"; this module gives its parts stable,
round-trip safe JSON-compatible schemas (``from_dict(to_dict(x)) == x``
structurally), checked at the trust boundary on the way in.  Files are
not written here: a :class:`repro.store.Store` snapshot, which writes
these documents atomically and checksummed, is the one persistence
format, and the ingest WAL logs the same shapes.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.core.simlist import SimilarityList, SimilarityValue
from repro.errors import ModelError, ReproError
from repro.model.database import VideoDatabase
from repro.model.hierarchy import Video, VideoNode
from repro.model.metadata import (
    Fact,
    ObjectInstance,
    Relationship,
    SegmentMetadata,
)

FORMAT_VERSION = 1

#: JSON values an attribute may carry (bool is admitted as an int).
_SCALAR_TYPES = (str, int, float)


@contextmanager
def _trust_boundary(what: str) -> Iterator[None]:
    """Convert structural junk into a typed :class:`ModelError`.

    The ``*_from_dict`` constructors accept payloads from outside the
    process (files, network); a missing key, wrong type, or malformed
    nesting must surface as a typed error, never as a raw ``KeyError``
    or a silently corrupt object.  Typed :class:`ReproError` subclasses
    (metadata/hierarchy/similarity invariant violations) pass through
    untouched.
    """
    try:
        yield
    except ReproError:
        raise
    except Exception as error:
        raise ModelError(f"malformed {what} payload: {error!r}") from error


# ---------------------------------------------------------------------------
# similarity lists
# ---------------------------------------------------------------------------
def simlist_to_dict(sim: SimilarityList) -> Dict[str, Any]:
    return {
        "maximum": sim.maximum,
        "entries": [list(run) for run in sim.runs()],
    }


def simlist_from_dict(payload: Dict[str, Any]) -> SimilarityList:
    """Rebuild a similarity list from an untrusted payload.

    Every entry is routed through the :class:`SimilarityValue` range
    gate (so a negative or above-maximum actual raises instead of being
    silently normalised away); :meth:`SimilarityList.from_entries` then
    checks the maximum, each interval and disjointness.
    """
    with _trust_boundary("similarity-list"):
        maximum = float(payload["maximum"])
        entries = []
        for begin, end, actual in payload["entries"]:
            SimilarityValue(float(actual), maximum)  # range gate
            entries.append(((int(begin), int(end)), float(actual)))
    return SimilarityList.from_entries(entries, maximum)


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------
def _fact_to_json(fact: Fact) -> Any:
    if fact.confidence == 1.0:
        return fact.value
    return {"value": fact.value, "confidence": fact.confidence}


def _fact_from_json(payload: Any) -> Any:
    if isinstance(payload, dict) and "value" in payload:
        value = payload["value"]
        if not isinstance(value, _SCALAR_TYPES):
            raise ModelError(
                f"attribute value must be a string or number, got "
                f"{type(value).__name__}"
            )
        return Fact(value, float(payload.get("confidence", 1.0)))
    if not isinstance(payload, _SCALAR_TYPES):
        raise ModelError(
            f"attribute value must be a string or number, got "
            f"{type(payload).__name__}"
        )
    return payload


def segment_to_dict(segment: SegmentMetadata) -> Dict[str, Any]:
    document: Dict[str, Any] = {}
    if segment.attributes:
        document["attributes"] = {
            name: _fact_to_json(fact)
            for name, fact in segment.attributes.items()
        }
    objects = []
    for instance in segment.objects():
        item: Dict[str, Any] = {"id": instance.object_id, "type": instance.type}
        if instance.confidence != 1.0:
            item["confidence"] = instance.confidence
        if instance.attributes:
            item["attributes"] = {
                name: _fact_to_json(fact)
                for name, fact in instance.attributes.items()
            }
        objects.append(item)
    if objects:
        document["objects"] = objects
    relationships = []
    for relationship in segment.relationships:
        item = {"name": relationship.name, "args": list(relationship.args)}
        if relationship.confidence != 1.0:
            item["confidence"] = relationship.confidence
        relationships.append(item)
    if relationships:
        document["relationships"] = relationships
    if segment.signature is not None:
        document["signature"] = list(segment.signature)
    return document


def segment_from_dict(document: Dict[str, Any]) -> SegmentMetadata:
    with _trust_boundary("segment-metadata"):
        attributes = {
            str(name): _fact_from_json(value)
            for name, value in document.get("attributes", {}).items()
        }
        objects = [
            ObjectInstance(
                str(item["id"]),
                str(item["type"]),
                {
                    str(name): _fact_from_json(value)
                    for name, value in item.get("attributes", {}).items()
                },
                float(item.get("confidence", 1.0)),
            )
            for item in document.get("objects", [])
        ]
        relationships = [
            Relationship(
                str(item["name"]),
                tuple(item["args"]),
                float(item.get("confidence", 1.0)),
            )
            for item in document.get("relationships", [])
        ]
        signature = document.get("signature")
        if signature is not None:
            if not isinstance(signature, list):
                raise ModelError(
                    f"segment signature must be a list of numbers, got "
                    f"{type(signature).__name__}"
                )
            # SegmentMetadata validates the value domain (finite,
            # non-negative) so a corrupt artifact raises a typed error.
            signature = [float(bin_value) for bin_value in signature]
        return SegmentMetadata(
            attributes=attributes,
            objects=objects,
            relationships=relationships,
            signature=signature,
        )


# ---------------------------------------------------------------------------
# hierarchy
# ---------------------------------------------------------------------------
def _node_to_dict(node: VideoNode) -> Dict[str, Any]:
    document: Dict[str, Any] = {"metadata": segment_to_dict(node.metadata)}
    if node.children:
        document["children"] = [
            _node_to_dict(child) for child in node.children
        ]
    return document


def _node_from_dict(document: Dict[str, Any]) -> VideoNode:
    node = VideoNode(metadata=segment_from_dict(document.get("metadata", {})))
    for child in document.get("children", []):
        node.add_child(_node_from_dict(child))
    return node


def video_to_dict(video: Video) -> Dict[str, Any]:
    return {
        "name": video.name,
        "level_names": {
            str(level): name for level, name in video.level_names.items()
        },
        "root": _node_to_dict(video.root),
    }


def video_from_dict(document: Dict[str, Any]) -> Video:
    with _trust_boundary("video"):
        name = document["name"]
        if not isinstance(name, str) or not name:
            raise ModelError(
                f"video name must be a non-empty string, got {name!r}"
            )
        root = _node_from_dict(document["root"])
        level_names = {
            int(level): str(level_name)
            for level, level_name in document.get("level_names", {}).items()
        }
        # Video construction runs the hierarchy invariant checks
        # (uniform leaf depth, level-name consistency).
        return Video(name=name, root=root, level_names=level_names)


# ---------------------------------------------------------------------------
# whole databases
# ---------------------------------------------------------------------------
def videos_to_list(database: VideoDatabase) -> List[Dict[str, Any]]:
    """The video documents of a database, in insertion order."""
    return [video_to_dict(video) for video in database.videos()]


def atomics_to_list(database: VideoDatabase) -> List[Dict[str, Any]]:
    """The registered atomic similarity lists of a database, as documents."""
    atomics = []
    for name in database.atomic_names():
        for video in database.videos():
            for level in range(1, video.n_levels + 1):
                sim = database.atomic_list(name, video.name, level)
                if sim is not None:
                    atomics.append(
                        {
                            "predicate": name,
                            "video": video.name,
                            "level": level,
                            "list": simlist_to_dict(sim),
                        }
                    )
    return atomics


def database_to_dict(database: VideoDatabase) -> Dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "videos": videos_to_list(database),
        "atomics": atomics_to_list(database),
    }


def database_from_parts(
    videos: List[Dict[str, Any]], atomics: List[Dict[str, Any]]
) -> VideoDatabase:
    """Rebuild a database from separate video and atomic documents.

    The store persists the two as independent artifacts (so each can be
    verified and quarantined on its own); this is their common loader.
    """
    database = VideoDatabase()
    with _trust_boundary("video-database"):
        for video_document in videos:
            database.add(video_from_dict(video_document))
        for atomic in atomics:
            database.register_atomic(
                str(atomic["predicate"]),
                str(atomic["video"]),
                simlist_from_dict(atomic["list"]),
                level=int(atomic.get("level", 2)),
            )
    return database


def database_from_dict(document: Dict[str, Any]) -> VideoDatabase:
    with _trust_boundary("video-database"):
        version = document.get("format")
        if version != FORMAT_VERSION:
            raise ModelError(
                f"unsupported database format {version!r}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        videos = document.get("videos", [])
        atomics = document.get("atomics", [])
        if not isinstance(videos, list) or not isinstance(atomics, list):
            raise ModelError(
                "database payload must carry 'videos' and 'atomics' lists"
            )
    return database_from_parts(videos, atomics)

