"""Per-stage timing counters (trace.METRICS) and their text reports
(repro.bench.reporting)."""

import threading

import pytest

from repro.bench.reporting import latency_report_text, stage_report_text
from repro.core import trace
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.htl.parser import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata, make_object


@pytest.fixture(autouse=True)
def clean_timers():
    trace.METRICS.disable()
    trace.METRICS.reset()
    yield
    trace.METRICS.disable()
    trace.METRICS.reset()


def test_disabled_records_nothing():
    with trace.METRICS.stage("anything"):
        pass
    assert trace.METRICS.totals() == {}


def test_enable_collects_and_counts():
    trace.METRICS.enable()
    for __ in range(3):
        with trace.METRICS.stage("atom-scoring"):
            pass
    totals = trace.METRICS.totals()
    assert totals["atom-scoring"].calls == 3
    assert totals["atom-scoring"].seconds >= 0.0
    trace.METRICS.disable()
    with trace.METRICS.stage("atom-scoring"):
        pass
    assert trace.METRICS.totals()["atom-scoring"].calls == 3


def test_enable_resets_by_default():
    trace.METRICS.enable()
    with trace.METRICS.stage("s"):
        pass
    trace.METRICS.enable()
    assert trace.METRICS.totals() == {}
    trace.METRICS.enable(reset=False)
    with trace.METRICS.stage("s"):
        pass
    trace.METRICS.enable(reset=False)
    assert trace.METRICS.totals()["s"].calls == 1


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
    trace.METRICS.enable()
    results = top_k_across_videos(RetrievalEngine(), query, database, k=2)
    trace.METRICS.disable()
    assert results
    totals = trace.METRICS.totals()
    assert totals[trace.ATOM_SCORING].calls >= 1
    assert totals[trace.LIST_ALGEBRA].calls >= 1
    assert totals[trace.TOP_K].calls >= 1


def test_reset_race_loses_no_updates():
    """Regression: enable(reset=True)/reset() used to rebind the dicts
    without the lock, so a thread-pool worker mid-update wrote into a
    discarded dict.  With in-place clearing and atomic drain, every
    add/count lands in exactly one drained snapshot."""
    n_threads, n_each = 6, 2000
    barrier = threading.Barrier(n_threads + 1)

    def worker():
        barrier.wait()
        for __ in range(n_each):
            trace.METRICS.count("events")
            trace.METRICS.add("work", 0.0001)

    threads = [threading.Thread(target=worker) for __ in range(n_threads)]
    for thread in threads:
        thread.start()
    barrier.wait()
    seen_counts = seen_calls = cycles = 0
    while any(thread.is_alive() for thread in threads) or cycles < 100:
        drained = trace.METRICS.drain()
        seen_counts += drained["counters"].get("events", 0)
        stage = drained["stages"].get("work")
        seen_calls += stage.calls if stage else 0
        cycles += 1
    for thread in threads:
        thread.join()
    drained = trace.METRICS.drain()
    seen_counts += drained["counters"].get("events", 0)
    stage = drained["stages"].get("work")
    seen_calls += stage.calls if stage else 0
    assert cycles >= 100
    assert seen_counts == n_threads * n_each
    assert seen_calls == n_threads * n_each


def test_stage_report_text():
    trace.METRICS.enable()
    with trace.METRICS.stage("atom-scoring"):
        pass
    text = stage_report_text()
    assert "atom-scoring" in text
    assert "Seconds" in text
    trace.METRICS.reset()
    assert "(no stages recorded)" in stage_report_text()


def test_latency_report_text():
    assert latency_report_text() == ""
    trace.METRICS.enable()
    trace.METRICS.observe(trace.QUERY_LATENCY, 0.25)
    text = latency_report_text()
    assert trace.QUERY_LATENCY in text
    assert "250.000" in text
