"""The counter registry (trace.METRICS) and the per-stage text report of
a span tree (repro.bench.reporting)."""

import threading

import pytest

from repro.bench.reporting import stage_report_text
from repro.core import trace
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.htl.parser import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object


@pytest.fixture(autouse=True)
def clean_counters():
    trace.METRICS.reset()
    yield
    trace.METRICS.reset()


def test_pipeline_attributes_all_three_stages():
    segments = [
        SegmentMetadata(objects=[make_object("o1", "person")]),
        SegmentMetadata(),
        SegmentMetadata(objects=[make_object("o1", "person")]),
    ]
    database = VideoDatabase()
    database.add(flat_video("v", segments))
    query = parse(
        "(exists x . present(x)) and eventually (exists x . present(x))"
    )
    results = top_k_across_videos(
        RetrievalEngine(), query, database, k=2, profile=True
    )
    assert results
    totals = results.profile.stage_totals()
    assert totals[trace.ATOM_SCORING].calls >= 1
    assert totals[trace.LIST_ALGEBRA].calls >= 1
    assert totals[trace.TOP_K].calls >= 1


def test_reset_race_loses_no_updates():
    """Regression: reset() used to rebind the dicts without the lock, so
    a thread-pool worker mid-update wrote into a discarded dict.  With
    in-place clearing and atomic drain, every count lands in exactly one
    drained snapshot."""
    n_threads, n_each = 6, 2000
    barrier = threading.Barrier(n_threads + 1)

    def worker():
        barrier.wait()
        for __ in range(n_each):
            trace.METRICS.count("events")
            trace.METRICS.count("pairs", 2)

    threads = [threading.Thread(target=worker) for __ in range(n_threads)]
    for thread in threads:
        thread.start()
    barrier.wait()
    seen_events = seen_pairs = cycles = 0
    while any(thread.is_alive() for thread in threads) or cycles < 100:
        drained = trace.METRICS.drain()
        seen_events += drained.get("events", 0)
        seen_pairs += drained.get("pairs", 0)
        cycles += 1
    for thread in threads:
        thread.join()
    drained = trace.METRICS.drain()
    seen_events += drained.get("events", 0)
    seen_pairs += drained.get("pairs", 0)
    assert cycles >= 100
    assert seen_events == n_threads * n_each
    assert seen_pairs == 2 * n_threads * n_each
    assert trace.METRICS.counters() == {}


def test_stage_report_text():
    with trace.recording() as recorder:
        with trace.span(trace.KIND_QUERY, "q"):
            with trace.span(trace.KIND_ATOM_SWEEP, "present(x)"):
                pass
            with trace.span(trace.KIND_ATOM_SWEEP, "present(y)"):
                pass
    text = stage_report_text(recorder.roots[-1])
    assert "atom-scoring" in text
    assert "Seconds" in text
    row = next(line for line in text.splitlines() if "atom-scoring" in line)
    assert row.split()[-1] == "2"
    with trace.recording() as recorder:
        with trace.span(trace.KIND_QUERY, "empty"):
            pass
    assert "(no stages recorded)" in stage_report_text(recorder.roots[-1])
