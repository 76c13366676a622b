"""Hierarchical video model and meta-data database (paper §2.1)."""

from repro.model.database import VideoDatabase
from repro.model.hierarchy import Video, VideoNode, flat_video, standard_level_names
from repro.model.serialize import (
    database_from_dict,
    database_to_dict,
    video_from_dict,
    video_to_dict,
)
from repro.model.metadata import (
    Fact,
    ObjectInstance,
    Relationship,
    SegmentMetadata,
    make_object,
)

__all__ = [
    "Video",
    "VideoNode",
    "VideoDatabase",
    "flat_video",
    "standard_level_names",
    "SegmentMetadata",
    "ObjectInstance",
    "Relationship",
    "Fact",
    "make_object",
    "database_to_dict",
    "database_from_dict",
    "video_to_dict",
    "video_from_dict",
]
