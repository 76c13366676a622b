"""Serving under overload: SLA compliance, priority shedding, conservation.

Not a paper table — this drives the concurrent retrieval service
(:mod:`repro.serve`, DESIGN.md §14) with a closed-loop load generator
and gates the three claims the serving layer makes:

* **Identity** — a served, non-degraded ranking is byte-identical to
  the direct (unserved) ``top_k_across_videos`` scan.
* **SLA under overload** — with twice as many closed-loop clients as
  pooled workers, the p99 latency of *completed interactive* requests
  stays inside the interactive deadline.  Strict-priority dispatch is
  what buys this: interactive work overtakes the standard/batch
  backlog instead of queueing behind it.
* **Shedding is priority-ordered** — when a burst overruns the queue
  capacity, every shed request is batch-class.  Interactive and
  standard work is never sacrificed to make room, and the conservation
  ledger still balances (shed requests terminate with a retry hint;
  nothing is silently dropped).

Deadlines are anchored to a measured serial service time rather than
wall-clock constants, so the gates hold on fast and slow machines
alike.  Emits ``BENCH_serve.json``.  Set ``BENCH_QUICK=1`` for a
seconds-scale run.
"""

import os
import random
import threading
import time
from pathlib import Path

import pytest

from repro.bench.reporting import write_report_json
from repro.core.engine import RetrievalEngine
from repro.core.topk import top_k_across_videos
from repro.errors import ServeRejected
from repro.htl import parse
from repro.model.database import VideoDatabase
from repro.model.hierarchy import flat_video
from repro.model.metadata import SegmentMetadata
from repro.serve import EnginePool, RetrievalServer, SLAClass
from repro.serve.request import (
    STATUS_COMPLETED,
    STATUS_SHED,
    QueryRequest,
)
from repro.shard import ShardedCorpus
from repro.workloads.synthetic import random_similarity_list

QUICK = bool(os.environ.get("BENCH_QUICK"))
N_VIDEOS = 4 if QUICK else 8
N_SEGMENTS = 60 if QUICK else 200
K = 10
FORMULA_TEXT = "$P1 and $P2"
FORMULA = parse(FORMULA_TEXT)
N_WORKERS = 2
#: Closed-loop clients per worker — 2x is the overload the gate demands.
LOAD_FACTOR = 2
REQUESTS_PER_CLIENT = 6 if QUICK else 16
#: Interactive deadline as a multiple of the measured serial service
#: time.  Strict priority means an interactive request waits for at
#: most the jobs already *running* plus its own class's queue, so this
#: headroom absorbs scheduler jitter without making the SLA vacuous.
INTERACTIVE_HEADROOM = 25.0

RESULTS_PATH = Path("BENCH_serve.json")

CLASS_CYCLE = ("interactive", "standard", "batch")


def graded_corpus(seed=1997):
    rng = random.Random(seed)
    database = VideoDatabase()
    for position in range(N_VIDEOS):
        video = flat_video(
            f"vid{position:03d}",
            [SegmentMetadata() for __ in range(N_SEGMENTS)],
        )
        database.add(video)
        for name in ("P1", "P2"):
            database.register_atomic(
                name,
                video.name,
                random_similarity_list(
                    N_SEGMENTS,
                    satisfy_fraction=0.2,
                    maximum=2.0 + 2.5 * position,
                    rng=rng,
                ),
            )
    return database


def percentile(samples, fraction):
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = min(
        len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1)))
    )
    return ordered[position]


def measured_classes(serial_ms):
    """An SLA ladder anchored to the measured serial service time."""
    interactive_ms = max(100.0, INTERACTIVE_HEADROOM * serial_ms)
    return {
        "interactive": SLAClass(
            "interactive", deadline_ms=interactive_ms, queue_limit=32,
            priority=2,
        ),
        "standard": SLAClass(
            "standard", deadline_ms=4.0 * interactive_ms, queue_limit=64,
            priority=1,
        ),
        "batch": SLAClass(
            "batch", deadline_ms=12.0 * interactive_ms, queue_limit=128,
            priority=0,
        ),
    }


def closed_loop(server, n_clients, requests_per_client):
    """Each client submits its next request when the previous finishes."""
    results = []
    rejected = []
    lock = threading.Lock()

    def client(offset):
        for position in range(requests_per_client):
            sla = CLASS_CYCLE[(offset + position) % len(CLASS_CYCLE)]
            try:
                result = server.query(FORMULA_TEXT, K, sla=sla)
            except ServeRejected as rejection:
                with lock:
                    rejected.append((sla, rejection.reason))
                continue
            with lock:
                results.append(result)

    threads = [
        threading.Thread(target=client, args=(offset,))
        for offset in range(n_clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return results, rejected, elapsed


def shed_burst(corpus, classes):
    """Overrun a tiny queue with batch work, then demand interactive room.

    Returns every ticket's terminal result plus the closing stats; the
    caller checks that shedding happened, hit only batch, and balanced.
    """
    pool = EnginePool(ShardedCorpus.from_database(corpus), N_WORKERS)
    capacity = 4
    server = RetrievalServer(pool, classes=classes, capacity=capacity)
    tickets = []
    rejected = 0
    with server:
        for __ in range(3 * capacity):
            try:
                tickets.append(
                    server.submit(QueryRequest(FORMULA_TEXT, K, sla="batch"))
                )
            except ServeRejected:
                rejected += 1
        for __ in range(capacity):
            try:
                tickets.append(
                    server.submit(
                        QueryRequest(FORMULA_TEXT, K, sla="interactive")
                    )
                )
            except ServeRejected:
                rejected += 1
        stats = server.close()
    return [ticket.result(60.0) for ticket in tickets], rejected, stats


@pytest.fixture(scope="module")
def corpus():
    return graded_corpus()


def test_serve_overload_sla_and_shedding(corpus, report):
    engine = RetrievalEngine()
    # -- serial baseline: the reference ranking and the SLA anchor ------
    serial_ms = None
    reference = None
    for __ in range(3):
        start = time.perf_counter()
        reference = top_k_across_videos(
            engine, FORMULA, corpus, K, prune=False
        )
        elapsed = (time.perf_counter() - start) * 1_000.0
        if serial_ms is None or elapsed < serial_ms:
            serial_ms = elapsed
    expected = [(r.video, r.segment_id, r.actual, r.maximum) for r in reference]
    classes = measured_classes(serial_ms)
    interactive_deadline = classes["interactive"].deadline_ms

    # -- overload phase: 2x closed-loop clients vs pooled workers -------
    pool = EnginePool(ShardedCorpus.from_database(corpus), N_WORKERS)
    server = RetrievalServer(pool, classes=classes)
    with server:
        results, rejected, elapsed_s = closed_loop(
            server, N_WORKERS * LOAD_FACTOR, REQUESTS_PER_CLIENT
        )
        overload_stats = server.close()
    assert overload_stats.conserved, "overload phase ledger out of balance"

    by_class = {name: [] for name in CLASS_CYCLE}
    for result in results:
        by_class[result.sla].append(result)
    interactive_done = [
        r for r in by_class["interactive"] if r.status == STATUS_COMPLETED
    ]
    assert interactive_done, "no interactive request completed under load"
    # Identity: a served, non-degraded ranking is the direct scan's.
    for result in interactive_done:
        if not result.degraded:
            served = [
                (r.video, r.segment_id, r.actual, r.maximum)
                for r in result.topk
            ]
            assert served == expected, "served ranking diverged from direct"
    interactive_p99 = percentile(
        [r.total_ms for r in interactive_done], 0.99
    )
    assert interactive_p99 <= interactive_deadline, (
        f"interactive p99 {interactive_p99:.1f}ms blew the "
        f"{interactive_deadline:.1f}ms deadline under {LOAD_FACTOR}x load"
    )
    # Under overload nothing shed may outrank batch.
    for result in results:
        if result.status == STATUS_SHED:
            assert result.sla == "batch", (
                f"{result.sla} request shed under overload"
            )

    # -- shed phase: burst past a tiny capacity, watch who pays ---------
    shed_results, shed_rejected, shed_stats = shed_burst(corpus, classes)
    assert shed_stats.conserved, "shed phase ledger out of balance"
    shed = [r for r in shed_results if r.status == STATUS_SHED]
    assert shed, "capacity burst shed nothing — eviction path never ran"
    assert all(r.sla == "batch" for r in shed), (
        "shedding was not confined to batch"
    )
    for result in shed:
        assert result.retry_after_ms is not None
        assert result.retry_after_ms >= 0.0

    # -- report ---------------------------------------------------------
    latencies = {
        name: [r.total_ms for r in rs if r.status == STATUS_COMPLETED]
        for name, rs in by_class.items()
    }
    for name in CLASS_CYCLE:
        done = latencies[name]
        report(
            "Serving under 2x overload (per-class latency, ms)",
            {
                "Class": name,
                "Deadline": f"{classes[name].deadline_ms:.0f}",
                "Completed": len(done),
                "p50": f"{percentile(done, 0.50):.1f}",
                "p95": f"{percentile(done, 0.95):.1f}",
                "p99": f"{percentile(done, 0.99):.1f}",
                "Within SLA": (
                    "yes"
                    if percentile(done, 0.99) <= classes[name].deadline_ms
                    else "no"
                ),
            },
        )
    report(
        "Serving shed burst (capacity 4, 12 batch + 4 interactive)",
        {
            "Shed": len(shed),
            "Shed classes": ",".join(sorted({r.sla for r in shed})) or "-",
            "Rejected": shed_rejected,
            "Completed": sum(
                1 for r in shed_results if r.status == STATUS_COMPLETED
            ),
            "Conserved": "yes" if shed_stats.conserved else "NO",
        },
    )

    write_report_json(
        RESULTS_PATH,
        {
            "quick": QUICK,
            "n_videos": N_VIDEOS,
            "n_segments_per_video": N_SEGMENTS,
            "k": K,
            "n_workers": N_WORKERS,
            "load_factor": LOAD_FACTOR,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "serial_ms": serial_ms,
            "deadlines_ms": {
                name: sla.deadline_ms for name, sla in classes.items()
            },
            "overload": {
                "elapsed_s": elapsed_s,
                "served": len(results),
                "rejected": len(rejected),
                "rejected_reasons": sorted({reason for __, reason in rejected}),
                "stats": overload_stats.to_payload(),
                "latency_ms": {
                    name: {
                        "completed": len(samples),
                        "p50": percentile(samples, 0.50),
                        "p95": percentile(samples, 0.95),
                        "p99": percentile(samples, 0.99),
                    }
                    for name, samples in latencies.items()
                },
            },
            "shed_burst": {
                "shed": len(shed),
                "shed_classes": sorted({r.sla for r in shed}),
                "rejected": shed_rejected,
                "stats": shed_stats.to_payload(),
            },
            "gates": {
                "identity": "served non-degraded ranking == direct scan",
                "sla": (
                    "interactive p99 <= interactive deadline at "
                    f"{LOAD_FACTOR}x load"
                ),
                "shedding": "shed requests are batch-class only",
                "conservation": "both phases' ledgers balance",
            },
        },
    )
