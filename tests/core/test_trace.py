"""Per-query tracing and the metrics registry (repro.core.trace).

Covers the observability layer of DESIGN.md §10 in four tiers:

* registry unit semantics — nested stages, mid-block toggles, histogram
  percentiles, atomic drain;
* concurrency — N threads hammering spans + counters + histograms while
  the registry is drained/reset, with exact conservation asserted;
* span trees — parentage, events, counter deltas, error recording,
  export;
* integration — a traced top-k whose per-stage span rollup
  reconciles with ``trace.METRICS.totals()``, and a chaos run whose
  fault-injected fallbacks surface as span events with correct
  parentage.
"""

import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.testing.faults import FaultSpec, inject


@pytest.fixture(autouse=True)
def clean_registry():
    trace.METRICS.disable()
    trace.METRICS.reset()
    yield
    trace.METRICS.disable()
    trace.METRICS.reset()


def tiny_database(n_videos=4, n_segments=10, seed=7):
    rng = random.Random(seed)
    database = VideoDatabase()
    for position in range(n_videos):
        segments = []
        for index in range(n_segments):
            objects = []
            if rng.random() < 0.5:
                objects.append(make_object(f"t{index}", "train"))
            if rng.random() < 0.4:
                objects.append(make_object(f"p{index}", "person"))
            segments.append(SegmentMetadata(objects=objects))
        # An object-free tail keeps every support under the density
        # cutoff, so QUERY's atoms stay on the index-driven path.
        segments.extend(SegmentMetadata() for __ in range(n_segments))
        database.add(flat_video(f"v{position}", segments))
    return database


QUERY = (
    "(exists x . present(x) and type(x) = 'train') "
    "and eventually (exists y . present(y))"
)


# ---------------------------------------------------------------------------
# registry semantics
# ---------------------------------------------------------------------------
class TestStageSemantics:
    def test_nested_same_name_counts_once(self):
        trace.METRICS.enable()
        with trace.METRICS.stage("s"):
            with trace.METRICS.stage("s"):
                with trace.METRICS.stage("s"):
                    pass
        totals = trace.METRICS.totals()
        assert totals["s"].calls == 1

    def test_nested_different_names_both_count(self):
        trace.METRICS.enable()
        with trace.METRICS.stage("outer"):
            with trace.METRICS.stage("inner"):
                pass
        totals = trace.METRICS.totals()
        assert totals["outer"].calls == 1
        assert totals["inner"].calls == 1

    def test_sequential_same_name_counts_each(self):
        trace.METRICS.enable()
        for __ in range(3):
            with trace.METRICS.stage("s"):
                pass
        assert trace.METRICS.totals()["s"].calls == 3

    def test_disable_mid_block_drops_the_inflight_block(self):
        # A block is credited only when collection is enabled at both
        # entry and exit: its timing would otherwise be torn across the
        # toggle.
        trace.METRICS.enable()
        with trace.METRICS.stage("s"):
            trace.METRICS.disable()
        assert trace.METRICS.totals().get("s") is None

    def test_enable_mid_block_takes_effect_next_entry(self):
        with trace.METRICS.stage("s"):
            trace.METRICS.enable()
        assert trace.METRICS.totals().get("s") is None
        with trace.METRICS.stage("s"):
            pass
        assert trace.METRICS.totals()["s"].calls == 1

    def test_nested_depth_survives_inner_disable_enable(self):
        trace.METRICS.enable()
        with trace.METRICS.stage("s"):
            with trace.METRICS.stage("s"):
                pass
        with trace.METRICS.stage("s"):
            pass
        assert trace.METRICS.totals()["s"].calls == 2


class TestHistogram:
    def test_percentiles_nearest_rank(self):
        histogram = trace.Histogram()
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary.count == 100
        assert summary.minimum == 1.0
        assert summary.maximum == 100.0
        assert 49.0 <= summary.p50 <= 52.0
        assert 94.0 <= summary.p95 <= 97.0
        assert 98.0 <= summary.p99 <= 100.0
        assert summary.mean == pytest.approx(50.5)

    def test_empty_summary_is_zeroed(self):
        summary = trace.Histogram().summary()
        assert summary.count == 0
        assert summary.minimum == 0.0
        assert summary.maximum == 0.0
        assert summary.p50 == 0.0
        assert summary.mean == 0.0

    def test_decimation_bounds_memory_but_keeps_exact_count(self):
        histogram = trace.Histogram()
        n = 5 * trace._HISTOGRAM_CAP
        for value in range(n):
            histogram.observe(float(value))
        assert histogram.count == n
        assert histogram.total == pytest.approx(sum(range(n)))
        assert len(histogram._values) < trace._HISTOGRAM_CAP
        # Percentiles stay spread over the whole stream, not the tail.
        assert histogram.percentile(50) == pytest.approx(n / 2, rel=0.05)

    def test_observe_requires_enabled(self):
        trace.METRICS.observe("lat", 0.5)
        assert trace.METRICS.histograms() == {}
        trace.METRICS.enable()
        trace.METRICS.observe("lat", 0.5)
        assert trace.METRICS.histograms()["lat"].count == 1


# ---------------------------------------------------------------------------
# concurrency: the reset-race regression and drain conservation
# ---------------------------------------------------------------------------
class TestConcurrency:
    def test_no_lost_counts_across_enable_reset_cycles(self):
        """The PR 1 regression: enable(reset=True)/reset() used to rebind
        the dicts without the lock, stranding concurrent updates in a
        discarded dict.  Drain snapshots-and-clears atomically, so every
        update lands in exactly one drained snapshot (or the final one):
        the sum across >= 100 cycles is conserved exactly."""
        n_threads, n_increments = 8, 4000
        start = threading.Barrier(n_threads + 1)
        done = threading.Event()

        def worker():
            start.wait()
            for __ in range(n_increments):
                trace.METRICS.count("hits")
                trace.METRICS.add("stage", 0.001)

        threads = [
            threading.Thread(target=worker) for __ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        start.wait()

        drained_counts = 0
        drained_calls = 0
        cycles = 0
        while any(thread.is_alive() for thread in threads) or cycles < 100:
            snapshot = trace.METRICS.drain()
            drained_counts += snapshot["counters"].get("hits", 0)
            stage = snapshot["stages"].get("stage")
            drained_calls += stage.calls if stage else 0
            cycles += 1
            if cycles > 100000:  # safety valve, never expected
                break
        for thread in threads:
            thread.join()
        final = trace.METRICS.drain()
        drained_counts += final["counters"].get("hits", 0)
        stage = final["stages"].get("stage")
        drained_calls += stage.calls if stage else 0
        done.set()

        assert cycles >= 100
        assert drained_counts == n_threads * n_increments
        assert drained_calls == n_threads * n_increments

    def test_enable_reset_cycles_never_corrupt_the_registry(self):
        """enable(reset=True) racing stage timers must neither raise nor
        leave the registry in a torn state."""
        stop = threading.Event()

        def worker():
            while not stop.is_set():
                trace.METRICS.count("c")
                with trace.METRICS.stage("s"):
                    pass

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for __ in range(100):
                trace.METRICS.enable(reset=True)
                trace.METRICS.reset()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        snapshot = trace.METRICS.snapshot()
        assert set(snapshot) == {"stages", "counters", "histograms"}
        for total in snapshot["stages"].values():
            assert total.calls >= 0 and total.seconds >= 0.0

    def test_threaded_spans_counters_histograms_cohere(self):
        """The TraceRecorder/registry concurrency suite: N threads each
        record spans, counters and latency samples; afterwards the
        recorder holds every root and the snapshot is coherent."""
        trace.METRICS.enable()
        n_threads, n_spans = 8, 50
        recorder = trace.TraceRecorder()
        start = threading.Barrier(n_threads)

        def worker(tid):
            start.wait()
            with trace.recording(recorder):
                for index in range(n_spans):
                    with trace.staged_span(
                        trace.TOP_K, trace.KIND_TOPK, f"w{tid}-{index}"
                    ):
                        trace.METRICS.count("visits")
                        trace.METRICS.observe("lat", 0.001)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(worker, range(n_threads)))

        assert len(recorder.roots) == n_threads * n_spans
        snapshot = trace.METRICS.snapshot()
        assert snapshot["counters"]["visits"] == n_threads * n_spans
        assert snapshot["stages"][trace.TOP_K].calls == n_threads * n_spans
        assert snapshot["histograms"]["lat"].count == n_threads * n_spans
        # Every span carries exactly its own counter delta.
        deltas = sum(
            node.counters.get("visits", 0) for node in recorder.roots
        )
        assert deltas == n_threads * n_spans


# ---------------------------------------------------------------------------
# span trees
# ---------------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_aggregation(self):
        with trace.recording() as recorder:
            with recorder.span(trace.KIND_QUERY, "q") as root:
                with recorder.span(trace.KIND_VIDEO, "v"):
                    with trace.staged_span(
                        trace.ATOM_SCORING, trace.KIND_ATOM_SWEEP, "a"
                    ):
                        trace.bump("rows", 3)
                    trace.event("note", "merged")
        assert recorder.roots == [root]
        kinds = [node.kind for node in root.walk()]
        assert kinds == [
            trace.KIND_QUERY, trace.KIND_VIDEO, trace.KIND_ATOM_SWEEP
        ]
        assert root.total_counters() == {"rows": 3}
        events = root.all_events()
        assert len(events) == 1
        owner, emitted = events[0]
        assert owner.kind == trace.KIND_VIDEO
        assert emitted.name == "note" and emitted.detail == "merged"
        rollup = root.stage_totals()
        assert set(rollup) == {trace.ATOM_SCORING}
        assert rollup[trace.ATOM_SCORING].calls == 1

    def test_exception_recorded_and_reraised(self):
        with trace.recording() as recorder:
            with pytest.raises(ValueError):
                with recorder.span(trace.KIND_EVALUATE, "boom"):
                    raise ValueError("nope")
        assert recorder.roots[0].attrs["error"] == "ValueError"
        assert recorder.roots[0].seconds >= 0.0

    def test_helpers_are_noops_without_recorder(self):
        assert trace.current() is None
        assert trace.current_span() is None
        assert trace.event("x") is None
        trace.bump("c")
        trace.annotate(a=1)
        with trace.span(trace.KIND_LIST_OP, "noop"):
            pass  # shared null context

    def test_orphan_events_are_kept(self):
        with trace.recording() as recorder:
            trace.event("loose", "no span open")
        assert [e.name for e in recorder.orphan_events] == ["loose"]

    def test_to_dict_is_json_safe_and_render_text_nests(self):
        with trace.recording() as recorder:
            with recorder.span(trace.KIND_QUERY, "q", obj=object()) as root:
                with recorder.span(trace.KIND_VIDEO, "v"):
                    trace.event("ping")
        payload = json.dumps(root.to_dict())  # must not raise
        assert "ping" in payload
        text = trace.render_text(root)
        lines = text.splitlines()
        assert lines[0].startswith("q  (query)")
        assert any(line.startswith("  v  (video)") for line in lines)
        assert any("! ping" in line for line in lines)


class TestStagedSpanBridge:
    def test_single_measurement_feeds_both_sinks(self):
        trace.METRICS.enable()
        with trace.recording() as recorder:
            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "merge"
            ) as opened:
                assert opened is not None
        totals = trace.METRICS.totals()
        assert totals[trace.LIST_ALGEBRA].calls == 1
        # Exact reconciliation: the stage credit IS the span duration.
        assert totals[trace.LIST_ALGEBRA].seconds == pytest.approx(
            recorder.roots[0].seconds, abs=0.0
        )

    def test_metrics_disabled_still_produces_span(self):
        with trace.recording() as recorder:
            with trace.staged_span(
                trace.ATOM_SCORING, trace.KIND_ATOM_SWEEP, "a"
            ):
                pass
        assert len(recorder.roots) == 1
        assert trace.METRICS.totals() == {}

    def test_no_recorder_no_metrics_is_passthrough(self):
        with trace.staged_span(
            trace.ATOM_SCORING, trace.KIND_ATOM_SWEEP, "a"
        ) as opened:
            assert opened is None
        assert trace.METRICS.totals() == {}

    def test_nested_same_stage_spans_count_stage_once(self):
        trace.METRICS.enable()
        with trace.recording() as recorder:
            with trace.staged_span(
                trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "outer"
            ):
                with trace.staged_span(
                    trace.LIST_ALGEBRA, trace.KIND_LIST_OP, "inner"
                ):
                    pass
        # Two spans in the tree, one stage credit (outermost frame only).
        assert len(list(recorder.roots[0].walk())) == 2
        assert trace.METRICS.totals()[trace.LIST_ALGEBRA].calls == 1


# ---------------------------------------------------------------------------
# integration: traced retrieval
# ---------------------------------------------------------------------------
class TestTracedRetrieval:
    def test_traced_video_returns_matching_result_and_tree(self):
        database = tiny_database()
        video = next(iter(database.videos()))
        formula = parse(QUERY)
        engine = RetrievalEngine()
        plain = engine.evaluate_video(formula, video, database=database)
        with trace.recording() as recorder:
            traced = RetrievalEngine().evaluate_video(
                formula, video, database=database
            )
        root = recorder.roots[-1]
        assert traced == plain
        assert root.kind == trace.KIND_EVALUATE
        kinds = {node.kind for node in root.walk()}
        assert trace.KIND_SUBFORMULA in kinds
        assert trace.KIND_ATOM_SWEEP in kinds
        assert trace.KIND_LIST_OP in kinds

    def test_profiled_topk_matches_unprofiled(self):
        database = tiny_database()
        formula = parse(QUERY)
        plain = top_k_across_videos(RetrievalEngine(), formula, database, k=5)
        profiled = top_k_across_videos(
            RetrievalEngine(), formula, database, k=5, profile=True
        )
        assert profiled.segments == plain.segments
        assert plain.profile is None
        root = profiled.profile
        assert root is not None and root.kind == trace.KIND_QUERY
        videos = [
            node for node in root.walk() if node.kind == trace.KIND_VIDEO
        ]
        assert {node.name for node in videos} == {
            video.name for video in database.videos()
        }
        assert all(node.attrs.get("status") == "ok" for node in videos)

    def test_span_rollup_reconciles_with_instrument_totals(self):
        """The acceptance criterion: per-stage totals from the span tree
        reconcile (within 5%; exactly, by construction) with the legacy
        trace.METRICS.totals() for the same run."""
        database = tiny_database(n_videos=6)
        formula = parse(QUERY)
        trace.METRICS.enable()
        result = top_k_across_videos(
            RetrievalEngine(), formula, database, k=5, profile=True
        )
        trace.METRICS.disable()
        legacy = trace.METRICS.totals()
        rollup = result.profile.stage_totals()
        for stage in (trace.ATOM_SCORING, trace.LIST_ALGEBRA, trace.TOP_K):
            assert stage in rollup, f"missing {stage} in span rollup"
            assert stage in legacy, f"missing {stage} in legacy totals"
            assert rollup[stage].calls == legacy[stage].calls
            assert rollup[stage].seconds == pytest.approx(
                legacy[stage].seconds, rel=0.05
            )

    def test_query_and_video_latency_histograms_populate(self):
        database = tiny_database()
        formula = parse(QUERY)
        trace.METRICS.enable()
        top_k_across_videos(
            RetrievalEngine(), formula, database, k=3, profile=True
        )
        trace.METRICS.disable()
        summaries = trace.METRICS.histograms()
        assert summaries[trace.QUERY_LATENCY].count == 1
        assert summaries[trace.VIDEO_LATENCY].count == len(
            list(database.videos())
        )

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_query_is_one_query_latency_sample(self, shards):
        """Regression: sharded queries never reached
        ``query-seconds``.  One sharded query is one sample — not one per
        shard — plus one ``video-seconds`` sample per evaluated video."""
        from repro.shard import ShardedCorpus

        database = tiny_database(n_videos=4)
        corpus = ShardedCorpus.from_database(database, shards)
        trace.METRICS.enable()
        result = corpus.top_k(RetrievalEngine(), parse(QUERY), k=3)
        trace.METRICS.disable()
        summaries = trace.METRICS.histograms()
        assert summaries[trace.QUERY_LATENCY].count == 1
        assert summaries[trace.VIDEO_LATENCY].count == sum(
            outcome.ok for outcome in result.outcomes
        )

    def test_chaos_fallbacks_appear_as_span_events(self):
        """Fault-injected index failures must surface as atom-fallback
        events on the atom-sweep span that absorbed them, with the span
        correctly parented under its video and query spans."""
        database = tiny_database()
        formula = parse(QUERY)
        with resilience.scope():
            with inject(
                FaultSpec(resilience.SITE_INDEX_LOOKUP), seed=3
            ):
                result = top_k_across_videos(
                    RetrievalEngine(), formula, database, k=5, profile=True
                )
        root = result.profile
        fallbacks = [
            (owner, emitted)
            for owner, emitted in root.all_events()
            if emitted.name == trace.ATOM_FALLBACK
        ]
        assert fallbacks, "no atom-fallback events recorded"
        parents = {}
        for node in root.walk():
            for child in node.children:
                parents[id(child)] = node
        for owner, emitted in fallbacks:
            assert owner.kind == trace.KIND_ATOM_SWEEP
            assert owner.attrs.get("path") == "naive-fallback"
            assert "redoing with the naive oracle scorer" in emitted.detail
            kinds = set()
            node = owner
            while id(node) in parents:
                node = parents[id(node)]
                kinds.add(node.kind)
            assert trace.KIND_VIDEO in kinds
            assert trace.KIND_QUERY in kinds
        # The fallback also bumped the global counter, as before.
        assert trace.METRICS.counters().get(trace.ATOM_FALLBACK, 0) >= len(
            fallbacks
        )
