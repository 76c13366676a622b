"""Per-query tracing and the counter registry (repro.core.trace).

Covers the observability layer of DESIGN.md §10 in four tiers:

* histogram unit semantics — percentiles, decimation;
* concurrency — N threads hammering spans + counters while the registry
  is drained/reset, with exact conservation asserted;
* span trees — parentage, events, counter deltas, error recording,
  export;
* integration — a traced top-k whose per-stage rollup is exactly the
  sum of its leaf spans, one ``query`` span per query at any shard
  count, span-only planner counters, and a chaos run whose
  fault-injected fallbacks surface as span events with correct
  parentage.
"""

import json
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.e2e.workloads import K, LEVEL, SMOKE, WORKLOADS, rows
from repro.core import resilience, trace
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object
from repro.pictures.signature import resolve_clips
from repro.testing.faults import FaultSpec, inject


@pytest.fixture(autouse=True)
def clean_registry():
    trace.METRICS.reset()
    yield
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
# histogram semantics
# ---------------------------------------------------------------------------
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

# ---------------------------------------------------------------------------
# concurrency: the reset-race regression and drain conservation
# ---------------------------------------------------------------------------
class TestConcurrency:
    def test_no_lost_counts_across_drain_cycles(self):
        """Regression: reset() used to rebind the dicts without the lock,
        stranding concurrent updates in a discarded dict.  Drain
        snapshots-and-clears atomically, so every update lands in exactly
        one drained snapshot (or the final one): the sum across >= 100
        cycles is conserved exactly."""
        n_threads, n_increments = 8, 4000
        start = threading.Barrier(n_threads + 1)

        def worker():
            start.wait()
            for __ in range(n_increments):
                trace.METRICS.count("hits")

        threads = [
            threading.Thread(target=worker) for __ in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        start.wait()

        drained_counts = 0
        cycles = 0
        while any(thread.is_alive() for thread in threads) or cycles < 100:
            drained_counts += trace.METRICS.drain().get("hits", 0)
            cycles += 1
            if cycles > 100000:  # safety valve, never expected
                break
        for thread in threads:
            thread.join()
        drained_counts += trace.METRICS.drain().get("hits", 0)

        assert cycles >= 100
        assert drained_counts == n_threads * n_increments

    def test_reset_cycles_never_corrupt_the_registry(self):
        """reset() racing counters and spans must neither raise nor leave
        the registry in a torn state."""
        stop = threading.Event()

        def worker():
            with trace.recording():
                while not stop.is_set():
                    with trace.span(trace.KIND_TOPK, "s"):
                        trace.METRICS.count("c")

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for __ in range(100):
                trace.METRICS.reset()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        counters = trace.METRICS.counters()
        assert set(counters) <= {"c"}
        assert all(value >= 0 for value in counters.values())

    def test_threaded_spans_and_counters_cohere(self):
        """The TraceRecorder/registry concurrency suite: N threads each
        record spans and counters; afterwards the recorder holds every
        root, the registry every count, and each span its own delta."""
        n_threads, n_spans = 8, 50
        recorder = trace.TraceRecorder()
        start = threading.Barrier(n_threads)

        def worker(tid):
            start.wait()
            with trace.recording(recorder):
                for index in range(n_spans):
                    with trace.span(trace.KIND_TOPK, f"w{tid}-{index}"):
                        trace.METRICS.count("visits")

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            list(pool.map(worker, range(n_threads)))

        assert len(recorder.roots) == n_threads * n_spans
        assert trace.METRICS.counters()["visits"] == n_threads * n_spans
        stage_calls = sum(
            root.stage_totals()[trace.TOP_K].calls for root in recorder.roots
        )
        assert stage_calls == n_threads * n_spans
        # Every span carries exactly its own counter delta.
        assert all(
            node.counters == {"visits": 1} for node in recorder.roots
        )


# ---------------------------------------------------------------------------
# span trees
# ---------------------------------------------------------------------------
class TestSpans:
    def test_nesting_and_aggregation(self):
        with trace.recording() as recorder:
            with recorder.span(trace.KIND_QUERY, "q") as root:
                with recorder.span(trace.KIND_VIDEO, "v"):
                    with trace.span(trace.KIND_ATOM_SWEEP, "a"):
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

    @pytest.mark.parametrize("name", ["dense", "sparse", "temporal"])
    def test_disabled_tracing_builds_no_spans(
        self, name, tmp_path, monkeypatch
    ):
        """With no recorder installed a span site is one thread-local
        read: the smoke stream builds no ``Span``.  Profiled, the same
        requests rank alike and build exactly the spans their trees
        hold."""
        database, clips, stream = WORKLOADS[name](
            7, SMOKE, str(tmp_path)
        ).inputs()
        built = []

        class CountedSpan(trace.Span):
            def __init__(self, *args, **kwargs):
                built.append(args[0])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(trace, "Span", CountedSpan)

        def ranked(text, profile):
            return top_k_across_videos(
                RetrievalEngine(), resolve_clips(parse(text), clips),
                database, K, level=LEVEL, prune=False, profile=profile,
            )

        assert trace.current() is None
        bare = [rows(ranked(text, False)) for text in stream]
        assert built == []
        in_trees = 0
        for text, expected in zip(stream, bare):
            profiled = ranked(text, True)
            assert rows(profiled) == expected
            in_trees += sum(1 for __ in profiled.profile.walk())
        assert len(built) == in_trees > len(stream)

    def test_span_rollup_reconciles_with_instrument_totals(self):
        """The span tree is the one timing source: each stage of the
        rollup is exactly the count and the sum of its leaf spans, and
        only the three leaf kinds contribute."""
        database = tiny_database(n_videos=6)
        formula = parse(QUERY)
        result = top_k_across_videos(
            RetrievalEngine(), formula, database, k=5, profile=True
        )
        rollup = result.profile.stage_totals()
        assert set(rollup) == {
            trace.ATOM_SCORING, trace.LIST_ALGEBRA, trace.TOP_K
        }
        for kind, stage in trace.KIND_TO_STAGE.items():
            leaves = [
                node.seconds
                for node in result.profile.walk()
                if node.kind == kind
            ]
            assert leaves, f"no {kind} span"
            assert rollup[stage].calls == len(leaves)
            assert rollup[stage].seconds == sum(leaves)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_sharded_query_is_one_query_latency_sample(self, shards):
        """Regression: sharded queries once lost their query latency.  A
        query's latency is its ``query`` span: one per sharded query —
        not one per shard — with one ``video`` span per video, each ok
        outcome's marked ``status=ok``."""
        from repro.shard import ShardedCorpus

        database = tiny_database(n_videos=4)
        corpus = ShardedCorpus.from_database(database, shards)
        result = corpus.top_k(
            RetrievalEngine(), parse(QUERY), k=3, profile=True
        )
        nodes = list(result.profile.walk())
        queries = [node for node in nodes if node.kind == trace.KIND_QUERY]
        videos = [node for node in nodes if node.kind == trace.KIND_VIDEO]
        assert queries == [result.profile]
        assert len(videos) == len(result.outcomes) == 4
        ok = [node for node in videos if node.attrs["status"] == "ok"]
        assert len(ok) == sum(outcome.ok for outcome in result.outcomes)

    def test_planner_counters_reach_spans_not_the_registry(self):
        """``trace.bump`` counters live on spans only: a profiled planned
        query shows ``plan-built`` in its tree's counters and never in
        ``METRICS.counters()``."""
        from repro.core.planner import PLAN_BUILT

        database = tiny_database()
        # Only a join with an operand that may have no rows is planned.
        formula = parse(
            "exists x . (present(x) and (eventually type(x) = 'person'))"
        )
        result = top_k_across_videos(
            RetrievalEngine(), formula, database, k=3, profile=True
        )
        assert result.profile.total_counters().get(PLAN_BUILT, 0) >= 1
        assert PLAN_BUILT not in trace.METRICS.counters()

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
