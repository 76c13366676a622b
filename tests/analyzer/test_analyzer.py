"""Tests for the video analyzer substrate: features, cut detection,
annotation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import (
    AnnotationRule,
    CutDetectorConfig,
    Frame,
    ShotSpec,
    VideoAnalyzer,
    boundary_accuracy,
    detect_cuts,
    detect_stream,
    histogram_difference,
    synthesize_stream,
)
from repro.analyzer.features import N_BINS
from repro.core import resilience, trace
from repro.errors import ReproError, WorkloadError
from repro.model.metadata import Relationship, make_object
from repro.testing.faults import RAISE, FaultSpec, inject


class TestFeatures:
    def test_histograms_normalised(self):
        stream = synthesize_stream([ShotSpec(5)], seed=1)
        for frame in stream.frames:
            assert sum(frame.histogram) == pytest.approx(1.0)
            assert len(frame.histogram) == N_BINS

    def test_boundaries_recorded(self):
        stream = synthesize_stream(
            [ShotSpec(4, "a"), ShotSpec(6, "b")], seed=1
        )
        assert stream.boundaries == [0, 4]
        assert stream.labels == ["a", "b"]
        assert len(stream) == 10

    def test_within_shot_differences_small(self):
        stream = synthesize_stream([ShotSpec(10)], seed=2, noise=0.005)
        diffs = [
            histogram_difference(a, b)
            for a, b in zip(stream.frames, stream.frames[1:])
        ]
        assert max(diffs) < 0.2

    def test_cross_shot_difference_large(self):
        stream = synthesize_stream([ShotSpec(5), ShotSpec(5)], seed=3)
        boundary_diff = histogram_difference(
            stream.frames[4], stream.frames[5]
        )
        assert boundary_diff > 0.4

    def test_empty_plan_rejected(self):
        with pytest.raises(WorkloadError):
            synthesize_stream([])

    def test_zero_length_shot_rejected(self):
        with pytest.raises(WorkloadError):
            synthesize_stream([ShotSpec(0)])

    def test_bad_histogram_size_rejected(self):
        with pytest.raises(WorkloadError):
            Frame((0.5, 0.5))

    def test_negative_histogram_entries_rejected(self):
        histogram = [0.0] * N_BINS
        histogram[3] = -0.25
        with pytest.raises(WorkloadError, match="non-negative"):
            Frame(tuple(histogram))

    def test_non_finite_histogram_entries_rejected(self):
        for poison in (float("nan"), float("inf"), -float("inf")):
            histogram = [1.0 / N_BINS] * N_BINS
            histogram[0] = poison
            with pytest.raises(WorkloadError, match="finite"):
                Frame(tuple(histogram))

    def test_non_numeric_histogram_entries_rejected(self):
        histogram = [1.0 / N_BINS] * N_BINS
        histogram[0] = True  # bool is not a histogram mass
        with pytest.raises(WorkloadError, match="must be a number"):
            Frame(tuple(histogram))

    def test_zero_total_frames_rejected_at_comparison(self):
        blank = Frame((0.0,) * N_BINS)  # a blank frame is representable…
        lit = Frame((1.0 / N_BINS,) * N_BINS)
        with pytest.raises(WorkloadError, match="zero-total"):
            histogram_difference(blank, lit)  # …but never comparable
        with pytest.raises(WorkloadError, match="zero-total"):
            histogram_difference(lit, blank)


class TestCutDetection:
    def test_single_shot_no_cuts(self):
        stream = synthesize_stream([ShotSpec(20)], seed=4)
        shots = detect_stream(stream)
        assert len(shots) == 1
        assert (shots[0].first, shots[0].last) == (0, 19)

    def test_clean_cuts_found(self):
        stream = synthesize_stream(
            [ShotSpec(15, "a"), ShotSpec(10, "b"), ShotSpec(25, "c")], seed=5
        )
        shots = detect_stream(stream)
        recall, precision = boundary_accuracy(shots, stream.boundaries)
        assert recall == 1.0
        assert precision == 1.0

    def test_shots_partition_the_stream(self):
        stream = synthesize_stream(
            [ShotSpec(8), ShotSpec(9), ShotSpec(7)], seed=6
        )
        shots = detect_stream(stream)
        covered = []
        for shot in shots:
            covered.extend(range(shot.first, shot.last + 1))
        assert covered == list(range(len(stream)))

    def test_min_shot_length_respected(self):
        stream = synthesize_stream(
            [ShotSpec(5), ShotSpec(5)], seed=7
        )
        config = CutDetectorConfig(min_shot_length=8)
        shots = detect_cuts(stream.frames, config)
        assert all(len(shot) >= 1 for shot in shots)
        assert len(shots) == 1  # cut suppressed by the length constraint

    def test_empty_input(self):
        assert detect_cuts([]) == []

    def test_config_validation(self):
        with pytest.raises(WorkloadError):
            CutDetectorConfig(hard_threshold=0.0)
        with pytest.raises(WorkloadError):
            CutDetectorConfig(window=0)
        with pytest.raises(WorkloadError):
            CutDetectorConfig(min_shot_length=0)

    @given(
        st.lists(
            st.integers(6, 20).map(lambda n: ShotSpec(n)),
            min_size=1,
            max_size=6,
        ),
        st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_detectable_boundaries_found_on_clean_streams(self, shots, seed):
        """Every boundary whose histogram jump clears the hard threshold
        must be detected.  (Two random shot signatures can occasionally be
        near-identical; such boundaries are inherently invisible to
        histogram differencing, so they are excluded from the claim.)"""
        stream = synthesize_stream(shots, seed=seed, noise=0.004)
        detected = detect_stream(stream)
        detected_starts = {shot.first for shot in detected}
        threshold = CutDetectorConfig().hard_threshold
        for boundary in stream.boundaries[1:]:
            jump = histogram_difference(
                stream.frames[boundary - 1], stream.frames[boundary]
            )
            if jump >= threshold:
                assert boundary in detected_starts, (
                    f"missed detectable boundary at {boundary} (jump {jump:.2f})"
                )


class TestAnnotation:
    def rules(self):
        return {
            "train": AnnotationRule(
                objects=[make_object("t1", "train")],
                relationships=[Relationship("moving", ("t1",))],
                attributes={"scenery": "rails"},
            )
        }

    def test_annotate_builds_two_level_video(self):
        stream = synthesize_stream(
            [ShotSpec(10, "talk"), ShotSpec(10, "train")], seed=8
        )
        analyzer = VideoAnalyzer(rules=self.rules())
        video = analyzer.annotate(stream, "clip", {"type": "news"})
        assert video.n_levels == 2
        shots = video.nodes_at_level(2)
        assert len(shots) == 2
        assert video.root.metadata.segment_attribute("type").value == "news"

    def test_rule_metadata_attached(self):
        stream = synthesize_stream(
            [ShotSpec(10, "talk"), ShotSpec(10, "train")], seed=9
        )
        analyzer = VideoAnalyzer(rules=self.rules())
        video = analyzer.annotate(stream, "clip")
        train_shot = video.nodes_at_level(2)[1].metadata
        assert train_shot.has_object("t1")
        assert train_shot.segment_attribute("scenery").value == "rails"
        assert train_shot.segment_attribute("label").value == "train"
        talk_shot = video.nodes_at_level(2)[0].metadata
        assert not talk_shot.has_object("t1")

    def test_frame_bookkeeping(self):
        stream = synthesize_stream([ShotSpec(12, "talk")], seed=10)
        analyzer = VideoAnalyzer()
        video = analyzer.annotate(stream, "clip")
        shot = video.nodes_at_level(2)[0].metadata
        assert shot.segment_attribute("first_frame").value == 0
        assert shot.segment_attribute("last_frame").value == 11
        assert shot.segment_attribute("n_frames").value == 12

    def test_annotated_video_is_queryable(self):
        from repro.core.engine import RetrievalEngine
        from repro.htl import parse

        stream = synthesize_stream(
            [ShotSpec(10, "talk"), ShotSpec(10, "train"), ShotSpec(8, "talk")],
            seed=11,
        )
        analyzer = VideoAnalyzer(rules=self.rules())
        video = analyzer.annotate(stream, "clip")
        engine = RetrievalEngine()
        result = engine.evaluate_video(
            parse("eventually exists t . moving(t)"), video
        )
        assert result.actual_at(1) == pytest.approx(1.0)
        assert result.actual_at(2) == pytest.approx(1.0)
        assert result.actual_at(3) == 0.0


class TestSignatureAttachment:
    def test_every_shot_carries_its_mean_histogram(self):
        from repro.pictures.signature import average_histograms

        stream = synthesize_stream(
            [ShotSpec(10, "a"), ShotSpec(12, "b")], seed=21
        )
        video = VideoAnalyzer().annotate(stream, "clip")
        shots = video.nodes_at_level(2)
        assert len(shots) == 2
        for node in shots:
            metadata = node.metadata
            first = metadata.segment_attribute("first_frame").value
            last = metadata.segment_attribute("last_frame").value
            expected = average_histograms(
                [f.histogram for f in stream.frames[first : last + 1]]
            )
            assert metadata.signature == expected

    def test_annotated_video_answers_looks_like(self):
        from repro.core.engine import RetrievalEngine
        from repro.htl import parse
        from repro.pictures.signature import resolve_clips

        stream = synthesize_stream(
            [ShotSpec(10, "a"), ShotSpec(10, "b")], seed=22
        )
        video = VideoAnalyzer().annotate(stream, "clip")
        shots = [node.metadata for node in video.nodes_at_level(2)]
        formula = resolve_clips(
            parse("looks_like('first', 0.99)"),
            {"first": [shots[0].signature]},
        )
        result = RetrievalEngine().evaluate_video(formula, video)
        assert result.actual_at(1) == 1.0  # the example itself
        assert result.actual_at(2) == 0.0  # an unrelated shot


class TestSignatureBuildChaos:
    """The ``signature-build`` fault site: a broken feature extractor
    degrades shots to annotation-only metadata, never aborts analysis."""

    def stream(self):
        return synthesize_stream(
            [ShotSpec(10, "talk"), ShotSpec(10, "train")], seed=23
        )

    def rules(self):
        return {
            "train": AnnotationRule(objects=[make_object("t1", "train")])
        }

    def test_direct_caller_sees_the_typed_error(self):
        analyzer = VideoAnalyzer()
        stream = self.stream()
        shot = analyzer.segment(stream)[0]
        spec = FaultSpec(resilience.SITE_SIGNATURE_BUILD, mode=RAISE)
        with inject(spec):
            with pytest.raises(ReproError):
                analyzer.signature_of(stream, shot)

    def test_annotation_survives_with_named_degradation(self):
        analyzer = VideoAnalyzer(rules=self.rules())
        stream = self.stream()
        fault_free = analyzer.annotate(stream, "clip")
        trace.METRICS.reset()
        spec = FaultSpec(resilience.SITE_SIGNATURE_BUILD, mode=RAISE)
        with inject(spec):
            degraded = analyzer.annotate(stream, "clip")
        shots = [node.metadata for node in degraded.nodes_at_level(2)]
        # Every shot was produced, signature-less, and the degradation
        # is named: one counter bump per degraded shot.
        assert len(shots) == len(fault_free.nodes_at_level(2)) == 2
        assert all(shot.signature is None for shot in shots)
        assert (
            trace.METRICS.counters()[trace.SIGNATURE_DEGRADED] == 2
        )

    def test_annotation_retrieval_unaffected_by_degradation(self):
        from repro.core.engine import RetrievalEngine
        from repro.htl import parse
        from repro.pictures.signature import resolve_clips

        analyzer = VideoAnalyzer(rules=self.rules())
        stream = self.stream()
        fault_free = analyzer.annotate(stream, "clip")
        spec = FaultSpec(resilience.SITE_SIGNATURE_BUILD, mode=RAISE)
        with inject(spec):
            degraded = analyzer.annotate(stream, "clip")
        engine = RetrievalEngine()
        annotation_query = parse("eventually exists t . present(t)")
        # Annotation-only retrieval: exactly the fault-free ranking.
        assert engine.evaluate_video(
            annotation_query, degraded
        ) == engine.evaluate_video(annotation_query, fault_free)
        # Content retrieval degrades soundly: signature-less segments
        # score 0 — an empty ranking, never a wrong one.
        clip = [
            node.metadata.signature for node in fault_free.nodes_at_level(2)
        ]
        content_query = resolve_clips(
            parse("looks_like('q', 0.5)"), {"q": clip}
        )
        empty = engine.evaluate_video(content_query, degraded)
        assert all(
            empty.actual_at(position) == 0.0
            for position in (1, 2)
        )
        full = engine.evaluate_video(content_query, fault_free)
        assert full.actual_at(1) == 1.0
