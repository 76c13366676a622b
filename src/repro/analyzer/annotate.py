"""The video analyzer: frames → shots → annotated two-level video.

This closes the Fig. 1 loop: the analyzer "generates the meta-data; this
may itself consist of systems for segmentation, editing of video data as
well as algorithms for analysis of the video".  Given a synthetic frame
stream and an annotation rule base (object appearances keyed by shot
label), it cut-detects the stream and produces the
:class:`~repro.model.hierarchy.Video` + metadata that the retrieval
systems consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analyzer.cutdetect import CutDetectorConfig, Shot, detect_cuts
from repro.analyzer.features import FrameStream
from repro.core import resilience, trace
from repro.errors import ReproError
from repro.model.hierarchy import Video, flat_video
from repro.model.metadata import (
    ObjectInstance,
    Relationship,
    SegmentMetadata,
)
from repro.pictures.signature import average_histograms

#: An annotation rule: shot label → metadata fragments for that shot.
@dataclass
class AnnotationRule:
    objects: List[ObjectInstance] = field(default_factory=list)
    relationships: List[Relationship] = field(default_factory=list)
    attributes: Dict[str, object] = field(default_factory=dict)


class VideoAnalyzer:
    """Cut detection plus rule-driven annotation."""

    def __init__(
        self,
        config: CutDetectorConfig = CutDetectorConfig(),
        rules: Optional[Dict[str, AnnotationRule]] = None,
    ):
        self.config = config
        self.rules = rules or {}

    def segment(self, stream: FrameStream) -> List[Shot]:
        """Detected shots of the stream."""
        return detect_cuts(stream.frames, self.config)

    def dominant_label(self, stream: FrameStream, shot: Shot) -> str:
        """The ground-truth label covering most of a detected shot.

        Real systems would run recognition models here; the synthetic
        substitute reads the stream's ground truth, which exercises the
        same downstream paths (DESIGN.md §3).
        """
        best_label = ""
        best_overlap = 0
        starts = list(stream.boundaries) + [len(stream.frames)]
        for position, label in enumerate(stream.labels):
            true_first = starts[position]
            true_last = starts[position + 1] - 1
            overlap = min(shot.last, true_last) - max(shot.first, true_first) + 1
            if overlap > best_overlap:
                best_overlap = overlap
                best_label = label
        return best_label

    def signature_of(self, stream: FrameStream, shot: Shot) -> tuple:
        """The shot's content signature: its mass-normalised mean histogram.

        This is the ``signature-build`` fault site; callers that can
        degrade (``annotate``) catch the typed errors, direct callers see
        them.
        """
        resilience.fault(resilience.SITE_SIGNATURE_BUILD)
        return average_histograms(
            [
                frame.histogram
                for frame in stream.frames[shot.first : shot.last + 1]
            ]
        )

    def annotate(
        self,
        stream: FrameStream,
        name: str,
        root_attributes: Optional[Dict[str, object]] = None,
    ) -> Video:
        """Produce the annotated two-level video for a stream.

        Each shot carries its content signature (DESIGN.md §16) next to
        the rule-driven annotation metadata.  A failing signature build —
        a degenerate shot, or an injected ``signature-build`` fault —
        degrades that shot to annotation-only metadata (``signature=None``)
        and bumps the :data:`~repro.core.trace.SIGNATURE_DEGRADED`
        counter rather than aborting the analysis: annotation retrieval
        must survive a broken feature extractor.
        """
        shots = self.segment(stream)
        segments: List[SegmentMetadata] = []
        for number, shot in enumerate(shots, start=1):
            label = self.dominant_label(stream, shot)
            rule = self.rules.get(label, AnnotationRule())
            attributes: Dict[str, object] = {
                "first_frame": shot.first,
                "last_frame": shot.last,
                "n_frames": len(shot),
            }
            if label:
                attributes["label"] = label
            attributes.update(rule.attributes)
            signature: Optional[tuple]
            try:
                signature = self.signature_of(stream, shot)
            except ReproError:
                trace.METRICS.count(trace.SIGNATURE_DEGRADED)
                signature = None
            segments.append(
                SegmentMetadata(
                    attributes=attributes,
                    objects=[
                        ObjectInstance(
                            instance.object_id,
                            instance.type,
                            dict(instance.attributes),
                            instance.confidence,
                        )
                        for instance in rule.objects
                    ],
                    relationships=list(rule.relationships),
                    signature=signature,
                )
            )
        root_metadata = SegmentMetadata(attributes=root_attributes or {})
        return flat_video(
            name, segments, root_metadata=root_metadata, child_level_name="shot"
        )
