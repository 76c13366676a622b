"""Typed ingest operations: the WAL's payload vocabulary.

Three operations cover everything the streaming path can do to a
corpus — register a new flat video, append segments to one, and attach
an atomic-predicate similarity list:

* validation (:func:`validate`) runs *before* a record reaches the WAL,
  so the log never persists a poison operation that replay would choke
  on;
* application (:func:`apply`) is the single mutation path shared by the
  live ingester and crash recovery, so a replayed log reproduces the
  in-memory state byte-for-byte;
* encoding (:func:`encode_op` / :func:`decode_op`) reuses the store's
  JSON serializers, is round-trip exact (property-tested), and decodes
  through a trust boundary — structural junk surfaces as a typed
  :class:`~repro.errors.IngestError`, never a ``KeyError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple, Union

from repro.core.simlist import SimilarityList
from repro.errors import IngestError, ReproError
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata
from repro.model.serialize import (
    segment_from_dict,
    segment_to_dict,
    simlist_from_dict,
    simlist_to_dict,
)

OP_ADD_VIDEO = "add-video"
OP_APPEND_SEGMENTS = "append-segments"
OP_ADD_ANNOTATIONS = "add-annotations"


@dataclass(frozen=True)
class AddVideo:
    """Register a new flat video (optionally already carrying segments)."""

    name: str
    segments: Tuple[SegmentMetadata, ...] = ()
    child_level_name: str = "shot"

    kind = OP_ADD_VIDEO


@dataclass(frozen=True)
class AppendSegments:
    """Append leaf segments to the end of an existing flat video."""

    video: str
    segments: Tuple[SegmentMetadata, ...]

    kind = OP_APPEND_SEGMENTS


@dataclass(frozen=True)
class AddAnnotations:
    """Attach an atomic-predicate similarity list to one video level."""

    video: str
    predicate: str
    sim: SimilarityList
    level: int = 2

    kind = OP_ADD_ANNOTATIONS


IngestOp = Union[AddVideo, AppendSegments, AddAnnotations]


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------
def encode_op(op: IngestOp) -> Dict[str, Any]:
    """A JSON-safe document of one operation (the WAL record payload)."""
    if isinstance(op, AddVideo):
        return {
            "kind": OP_ADD_VIDEO,
            "name": op.name,
            "segments": [segment_to_dict(s) for s in op.segments],
            "child_level_name": op.child_level_name,
        }
    if isinstance(op, AppendSegments):
        return {
            "kind": OP_APPEND_SEGMENTS,
            "video": op.video,
            "segments": [segment_to_dict(s) for s in op.segments],
        }
    if isinstance(op, AddAnnotations):
        return {
            "kind": OP_ADD_ANNOTATIONS,
            "video": op.video,
            "predicate": op.predicate,
            "level": op.level,
            "list": simlist_to_dict(op.sim),
        }
    raise IngestError(f"unknown ingest operation {type(op).__name__!r}")


def decode_op(document: Dict[str, Any]) -> IngestOp:
    """Rebuild an operation from an untrusted document.

    Structural junk — a missing key, a wrong type, a malformed nested
    payload — raises :class:`~repro.errors.IngestError`; model-level
    invariant violations inside the nested serializers keep their own
    typed errors.
    """
    try:
        kind = document["kind"]
        if kind == OP_ADD_VIDEO:
            return AddVideo(
                name=str(document["name"]),
                segments=tuple(
                    segment_from_dict(s) for s in document["segments"]
                ),
                child_level_name=str(document["child_level_name"]),
            )
        if kind == OP_APPEND_SEGMENTS:
            return AppendSegments(
                video=str(document["video"]),
                segments=tuple(
                    segment_from_dict(s) for s in document["segments"]
                ),
            )
        if kind == OP_ADD_ANNOTATIONS:
            return AddAnnotations(
                video=str(document["video"]),
                predicate=str(document["predicate"]),
                sim=simlist_from_dict(document["list"]),
                level=int(document["level"]),
            )
    except ReproError:
        raise
    except Exception as error:
        raise IngestError(
            f"malformed ingest-op payload: {error!r}"
        ) from error
    raise IngestError(f"unknown ingest-op kind {document.get('kind')!r}")


# ---------------------------------------------------------------------------
# validate / apply
# ---------------------------------------------------------------------------
def validate(op: IngestOp, database: VideoDatabase) -> None:
    """Reject an operation *before* it reaches the WAL.

    Anything that passes here is guaranteed to :func:`apply` cleanly
    against the state the database will be in when the record replays —
    the WAL must never persist an operation recovery cannot apply.
    """
    if isinstance(op, AddVideo):
        if not op.name:
            raise IngestError("a video needs a non-empty name")
        if op.name in database:
            raise IngestError(
                f"video {op.name!r} already in the database"
            )
        return
    if isinstance(op, AppendSegments):
        if not op.segments:
            raise IngestError(
                f"append to {op.video!r} carries no segments"
            )
        if op.video not in database:
            raise IngestError(f"no video named {op.video!r}")
        video = database.get(op.video)
        if video.depth > 2:
            raise IngestError(
                f"video {op.video!r} has {video.depth} levels; streaming "
                "appends support the paper's flat (two-level) shape only"
            )
        return
    if isinstance(op, AddAnnotations):
        if op.video not in database:
            raise IngestError(f"no video named {op.video!r}")
        video = database.get(op.video)
        if op.level < 1 or op.level > video.n_levels:
            raise IngestError(
                f"video {op.video!r} has levels 1..{video.n_levels}, "
                f"annotation targets level {op.level}"
            )
        n_segments = len(video.nodes_at_level(op.level))
        last = op.sim.last_id()
        if last > n_segments:
            raise IngestError(
                f"annotation {op.predicate!r} covers segments up to "
                f"{last}, but video {op.video!r} has {n_segments} at "
                f"level {op.level}"
            )
        return
    raise IngestError(f"unknown ingest operation {type(op).__name__!r}")


def apply(op: IngestOp, database: VideoDatabase) -> str:
    """Apply one operation to the live database; returns the video name.

    The single mutation path of both the ingester and recovery replay.
    Index maintenance is incremental throughout: appends extend the
    cached picture systems in place
    (:meth:`~repro.model.hierarchy.Video.append_segments`) and stamp the
    video's generation so caches invalidate only its entries.
    """
    validate(op, database)
    if isinstance(op, AddVideo):
        database.add(
            flat_video(
                op.name,
                list(op.segments),
                child_level_name=op.child_level_name,
            )
        )
        return op.name
    if isinstance(op, AppendSegments):
        video = database.get(op.video)
        video.append_segments(list(op.segments))
        database.touch(op.video)
        return op.video
    database.register_atomic(
        op.predicate, op.video, op.sim, level=op.level
    )
    return op.video
