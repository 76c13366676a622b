"""The five workloads: inputs, the measured loop, the staged pass, the oracle.

Every workload follows one shape.  A *round* regenerates its inputs from
the seed (untimed), sets the system up (timed: ``setup_s``) and executes
one fixed request sequence (timed: latencies, wall clock).  Rounds are
independent — fresh corpus, fresh engine, fresh directories — so a round
in a long-lived process does the work a fresh process would, and a
cache added by a later change cannot carry answers from one round into
the next.  ``traced`` is the same sequence with a span around each
layer call (``layers.py``); ``check`` compares a round's answers with
the oracle.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.engine import EngineConfig, RetrievalEngine
from repro.core.planner import Planner
from repro.core.topk import OUTCOME_PRUNED, TopKResult, top_k_across_videos
from repro.errors import ReproError, ServeRejected
from repro.htl import parse
from repro.ingest import IngestLayout, initialise, recover
from repro.model.database import VideoDatabase
from repro.model.serialize import database_to_dict
from repro.pictures.signature import resolve_clips
from repro.serve import EnginePool, QueryRequest, RetrievalServer
from repro.shard import ShardedCorpus
from repro.store import Store, save_sharded

from benchmarks.e2e import corpora, streams
from benchmarks.e2e.layers import Tracer, staged_metrics, staged_request

K = 10
LEVEL = 2
N_SHARDS = 2
N_WORKERS = 2
SLA_CYCLE = ("interactive", "standard", "batch")

Rows = List[Tuple[str, int, float, float]]


@dataclass(frozen=True)
class Sizes:
    """Everything that differs between the benchmark and its smoke test."""

    sparse: Tuple[int, int]  #: (videos, segments per video)
    dense: Tuple[int, int]
    temporal: Tuple[int, int]
    served: Tuple[int, int]  #: sparse-shaped, like ``live``
    live: Tuple[int, int]
    requests: int  #: per round, every workload but ``live``
    setup_repeats: int  #: extra set-ups per run, for a steady ``setup_s``
    serve_rate: float  #: open-loop requests per second
    overhead_requests: int  #: requests timed sharded-vs-direct
    live_cycles: int
    live_batch: int  #: segments appended per cycle
    checkpoint_every: int


#: Sized so one round takes 3–8 s on a 2-core box and the driver's 36 s
#: run holds eleven rounds of a library workload (best-of needs about
#: ten: README, *Noise*): a request costs ~16 ms on ``sparse``, ``dense``
#: and ``temporal``.  200 requests per round leave ten beyond the 95th
#: percentile.  ``served`` and
#: ``live`` use half the videos: at 25 requests/s the server is then
#: ~20% busy and requests rarely overlap — at 50% the tail depended on
#: which requests happened to collide and did not repeat within 25%.
FULL = Sizes(
    sparse=(8, 320),
    dense=(2, 250),
    temporal=(4, 8000),
    served=(4, 320),
    live=(4, 320),
    requests=200,
    setup_repeats=8,
    serve_rate=25.0,
    overhead_requests=50,
    live_cycles=100,
    live_batch=20,
    checkpoint_every=40,
)

SMOKE = Sizes(
    sparse=(3, 40),
    dense=(2, 30),
    temporal=(4, 200),
    served=(3, 40),
    live=(3, 40),
    requests=12,
    setup_repeats=1,
    serve_rate=100.0,
    overhead_requests=4,
    live_cycles=6,
    live_batch=5,
    checkpoint_every=3,
)


@dataclass
class Round:
    """What one round measured."""

    setup_s: float
    latencies_ms: List[float]
    wall_s: float
    attempted: int
    #: raised, rejected, shed, timed out, degraded or partial — and, for
    #: closed loops, a repeat whose ranking differs from its first answer
    failed: int = 0
    #: query text → ranking rows of its first answer (oracle input)
    answers: Dict[str, Rows] = field(default_factory=dict)
    #: workload-specific metrics by their final name
    extras: Dict[str, float] = field(default_factory=dict)
    #: one client, nothing between requests: the wall clock is the sum
    #: of the latencies (the closed-loop library workloads)
    sequential: bool = False


def rows(result: Sequence) -> Rows:
    return [(s.video, s.segment_id, s.actual, s.maximum) for s in result]


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest rank: with 200 values, ten lie beyond the 95th."""
    ordered = sorted(values)
    return ordered[math.ceil(share * len(ordered)) - 1]


def answer(engine, database, clips, text: str) -> TopKResult:
    """Query text in → ranked answer out, as the CLI and the library
    default do it: no result cache, serial, pruning on."""
    formula = resolve_clips(parse(text), clips)
    return top_k_across_videos(engine, formula, database, K, level=LEVEL)


def warm(database: VideoDatabase, tracer: Optional[Tracer] = None) -> None:
    """Build every video's picture index at the query level."""
    for video in database.videos():
        if tracer is None:
            video.root.pictures_at_level(LEVEL)
        else:
            with tracer.span("pictures.index_build"):
                video.root.pictures_at_level(LEVEL)


def closed_loop(
    request: Callable[[str], TopKResult],
    stream,
    shadow: Optional[Callable[[int, str], TopKResult]] = None,
) -> Round:
    """One client; the next request leaves when the last one returned.

    ``shadow`` (the traced pass) answers each request a second time
    right after it, outside the timed span; its ranking must agree.
    """
    latencies: List[float] = []
    answers: Dict[str, Rows] = {}
    failed = pruned = 0
    started = time.perf_counter()
    for number, text in enumerate(stream):
        sent = time.perf_counter()
        try:
            result = request(text)
        except ReproError:
            failed += 1
            continue
        latencies.append((time.perf_counter() - sent) * 1000.0)
        got = rows(result)
        if result.partial or answers.setdefault(text, got) != got:
            failed += 1
        pruned += sum(o.status == OUTCOME_PRUNED for o in result.outcomes)
        if shadow is not None and rows(shadow(number, text)) != got:
            failed += 1
    wall = time.perf_counter() - started
    return Round(
        setup_s=0.0,
        latencies_ms=latencies,
        wall_s=wall,
        attempted=len(stream),
        failed=failed,
        answers=answers,
        extras={"topk.pruned_videos": pruned},
        sequential=True,
    )


def directory_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(folder, name))
        for folder, __, names in os.walk(root)
        for name in names
    )


def file_bytes(path: str) -> int:
    """Size of a file that may not exist yet (an unwritten WAL)."""
    return os.path.getsize(path) if os.path.exists(path) else 0


def segment_count(database: VideoDatabase) -> int:
    return sum(len(video.root.children) for video in database.videos())


class Workload:
    """Base: seeded inputs and the oracle bookkeeping."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self._oracle: Optional[Dict[str, Rows]] = None

    def rng(self) -> random.Random:
        # One stream of randomness per (seed, workload); string seeds
        # hash stably, unlike hash().
        return random.Random(f"{self.seed}:{self.name}")

    def scratch(self, label: str) -> str:
        """A fresh empty directory inside the work directory."""
        path = os.path.join(self.workdir, f"{self.name}-{label}")
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def setup_seconds(self) -> float:
        """Fresh inputs and one timed set-up, torn down again."""
        raise NotImplementedError

    def round(self) -> Round:
        """Fresh inputs, timed set-up, the timed request sequence."""
        raise NotImplementedError

    def traced(self, tracer: Tracer) -> Tuple[Dict[str, float], Round]:
        """Per-layer metrics of one traced pass, plus the round whose
        answers the caller checks against the oracle."""
        raise NotImplementedError

    def oracle(self) -> Dict[str, Rows]:
        raise NotImplementedError

    def check(self, measured: Round) -> int:
        """Distinct queries of the round whose ranking ≠ the oracle's."""
        if self._oracle is None:
            self._oracle = self.oracle()
        return sum(
            self._oracle[text] != got for text, got in measured.answers.items()
        )


class LibraryWorkload(Workload):
    """Closed loop, one client, straight into the library."""

    def inputs(self):
        """``(database, clips, stream)`` — fresh objects, same values."""
        raise NotImplementedError

    def _setup(self):
        database, clips, stream = self.inputs()
        started = time.perf_counter()
        warm(database)
        return time.perf_counter() - started, database, clips, stream

    def setup_seconds(self) -> float:
        return self._setup()[0]

    def round(self) -> Round:
        setup_s, database, clips, stream = self._setup()
        engine = RetrievalEngine()
        measured = closed_loop(
            lambda text: answer(engine, database, clips, text), stream
        )
        measured.setup_s = setup_s
        measured.extras["stream.repeats"] = streams.repeats(stream)
        return measured

    def traced(self, tracer: Tracer) -> Tuple[Dict[str, float], Round]:
        """Untraced and staged in lockstep, each on its own corpus and
        engine: request *i* runs untraced, then staged.  A slow spell of
        the machine then slows both alike, so the ratio between them
        (``trace.reconcile_ratio``) is not at its mercy."""
        __, database, clips, stream = self._setup()
        staged_db = self.inputs()[0]
        warm(staged_db, tracer)
        plain_engine = RetrievalEngine()
        engine, twin = RetrievalEngine(), Planner()
        plain = closed_loop(
            lambda text: answer(plain_engine, database, clips, text),
            stream,
            shadow=lambda number, text: staged_request(
                tracer, number, text, clips, engine, twin, staged_db, K, LEVEL
            ),
        )
        plain.extras["stream.repeats"] = streams.repeats(stream)
        metrics = staged_metrics(tracer, engine, plain.latencies_ms)
        metrics["pictures.index_build_ms"] = tracer.total_ms(
            "pictures.index_build"
        )
        return {**plain.extras, **metrics}, plain

    def oracle(self) -> Dict[str, Rows]:
        """The paper's semantics the slow way: naive full-scan atoms,
        structural evaluation order, every video evaluated."""
        database, clips, stream = self.inputs()
        engine = RetrievalEngine(EngineConfig(naive_atoms=True, plan=False))
        return {
            text: rows(
                top_k_across_videos(
                    engine,
                    resolve_clips(parse(text), clips),
                    database,
                    K,
                    level=LEVEL,
                    prune=False,
                )
            )
            for text in dict.fromkeys(stream)
        }


class Sparse(LibraryWorkload):
    name = "sparse"

    def inputs(self):
        rng = self.rng()
        database, clips = corpora.sparse_corpus(rng, *self.sizes.sparse)
        return database, clips, streams.mix_a(rng, self.sizes.requests)


class Dense(LibraryWorkload):
    name = "dense"

    def inputs(self):
        rng = self.rng()
        database, clips = corpora.dense_corpus(rng, *self.sizes.dense)
        return database, clips, streams.mix_a(rng, self.sizes.requests)


class Temporal(LibraryWorkload):
    name = "temporal"

    def inputs(self):
        rng = self.rng()
        database = corpora.temporal_corpus(rng, *self.sizes.temporal)
        return database, {}, streams.temporal_stream(rng, self.sizes.requests)


@dataclass
class _Sent:
    """One open-loop request: the generator's clock readings."""

    number: int
    text: str
    due: float
    woke: float
    parsed: float
    resolved: float
    admitted: float
    ticket: object


class Served(Workload):
    """The sparse corpus through shard stores, the pool and the server."""

    name = "served"

    def inputs(self):
        rng = self.rng()
        database, clips = corpora.sparse_corpus(rng, *self.sizes.served)
        return database, clips, streams.mix_a(rng, self.sizes.requests)

    def _setup(self):
        database, clips, stream = self.inputs()
        root = self.scratch("shards")
        save_sharded(database, root, N_SHARDS)
        started = time.perf_counter()
        pool = EnginePool.from_shard_layout(root, n_workers=N_WORKERS)
        server = RetrievalServer(pool)
        server.start(warm=True)
        setup_s = time.perf_counter() - started
        return setup_s, server, pool, root, database, clips, stream

    def setup_seconds(self) -> float:
        setup_s, server, __, root, *__ = self._setup()
        server.close()
        shutil.rmtree(root)
        return setup_s

    def round(self, tracer: Optional[Tracer] = None) -> Round:
        setup_s, server, pool, root, database, clips, stream = self._setup()
        try:
            measured = self._open_loop(server, clips, stream, tracer)
        finally:
            stats = server.close()
        measured.setup_s = setup_s
        planners = [worker.engine.planner.stats for worker in pool.workers]
        lookups = sum(p.cache_hits + p.cache_misses for p in planners)
        measured.extras.update(
            {
                "disk_bytes_per_segment": directory_bytes(root)
                / segment_count(database),
                "stream.repeats": streams.repeats(stream),
                "serve.shed": stats.shed,
                "serve.timed_out": stats.timed_out,
                "serve.rejected": stats.rejected_total,
                "serve.degraded": stats.degraded,
                "serve.requeued": stats.requeued,
                "planner.plans_built": sum(p.plans_built for p in planners),
                "planner.cache_hit_share": (
                    sum(p.cache_hits for p in planners) / lookups
                    if lookups
                    else 0.0
                ),
            }
        )
        shutil.rmtree(root)
        return measured

    def _open_loop(self, server, clips, stream, tracer) -> Round:
        """Requests leave on a schedule whether or not earlier ones are
        back.  Latency runs from when a request was *due*, so time the
        generator spent stalled counts against the system that stalled
        it."""
        interval = 1.0 / self.sizes.serve_rate
        clock = time.monotonic  # the server's clock: one timeline
        sent: List[_Sent] = []
        late: List[float] = []
        rejected = 0
        first_due = clock() + interval
        for number, text in enumerate(stream):
            due = first_due + number * interval
            delay = due - clock()
            if delay > 0:
                time.sleep(delay)
            woke = clock()
            late.append((woke - due) * 1000.0)
            formula = parse(text)
            parsed = clock()
            formula = resolve_clips(formula, clips)
            resolved = clock()
            request = QueryRequest(
                formula, K, level=LEVEL, sla=SLA_CYCLE[number % len(SLA_CYCLE)]
            )
            try:
                ticket = server.submit(request)
            except ServeRejected:
                rejected += 1
                continue
            sent.append(
                _Sent(number, text, due, woke, parsed, resolved, clock(), ticket)
            )
        latencies: List[float] = []
        queue: List[float] = []
        service: List[float] = []
        answers: Dict[str, Rows] = {}
        failed = rejected
        staged_ms = 0.0
        finished = first_due
        for item in sent:
            result = item.ticket.result(timeout=60.0)
            submitted = item.ticket.submitted_at
            waited_ms = (submitted - item.due) * 1000.0
            latencies.append(waited_ms + result.total_ms)
            finished = max(finished, submitted + result.total_ms / 1000.0)
            queue.append(result.queue_ms)
            service.append(result.service_ms)
            staged_ms += waited_ms + result.queue_ms + result.service_ms
            if not result.completed or result.degraded:
                failed += 1
                continue
            answers.setdefault(item.text, rows(result.topk))
            if tracer is not None:
                dispatched = submitted + result.queue_ms / 1000.0
                served = dispatched + result.service_ms / 1000.0
                for name, start, end in (
                    ("serve.generator", item.due, item.woke),
                    ("htl.parse", item.woke, item.parsed),
                    ("htl.resolve", item.parsed, item.resolved),
                    ("serve.admission", item.resolved, item.admitted),
                    ("serve.queue", submitted, dispatched),
                    ("serve.service", dispatched, served),
                ):
                    tracer.add(name, start, end, item.number)
        n_sent = max(1, len(sent))
        return Round(
            setup_s=0.0,
            latencies_ms=latencies,
            wall_s=finished - first_due,
            attempted=len(stream),
            failed=failed,
            answers=answers,
            extras={
                "htl.parse_ms": 1000.0
                * sum(item.parsed - item.woke for item in sent)
                / n_sent,
                "htl.resolve_ms": 1000.0
                * sum(item.resolved - item.parsed for item in sent)
                / n_sent,
                "serve.queue_ms_p50": statistics.median(queue),
                "serve.queue_ms_p95": percentile(queue, 0.95),
                "serve.service_ms_p50": statistics.median(service),
                "serve.admission_us": statistics.median(
                    (item.admitted - item.resolved) * 1e6 for item in sent
                ),
                "serve.generator_late_ms_max": max(late),
                # due→submit + queue + service against the due-time
                # latency: what the server's own timing triple leaves
                # unexplained is scheduling slop.
                "trace.reconcile_ratio": staged_ms / sum(latencies),
            },
        )

    def traced(self, tracer: Tracer) -> Tuple[Dict[str, float], Round]:
        """The server hides its interior, so its stages are rebuilt from
        the timestamps each ticket and ``ServeResult`` report (no second
        pass: ``trace.overhead_share`` is 0 by construction).  The store
        and shard layers are timed on their own around the same corpus."""
        measured = self.round(tracer)
        database, clips, stream = self.inputs()
        warm(database, tracer)
        root = self.scratch("layers")
        store = Store(os.path.join(root, "store"))
        with tracer.span("store.save"):
            store.save(database)
        with tracer.span("store.load"):
            store.load(verify=True)
        layout = os.path.join(root, "shards")
        save_sharded(database, layout, N_SHARDS)
        with tracer.span("shard.load"):
            corpus = ShardedCorpus.from_directory(layout)
            for shard in corpus.shards:
                shard.database()
        # The same request sharded, then direct, each on its own engine.
        sharded_engine, direct_engine = RetrievalEngine(), RetrievalEngine()
        overhead: List[float] = []
        direct: List[float] = []
        for text in stream[: self.sizes.overhead_requests]:
            formula = resolve_clips(parse(text), clips)
            t0 = time.perf_counter()
            corpus.top_k(sharded_engine, formula, K, level=LEVEL)
            t1 = time.perf_counter()
            top_k_across_videos(direct_engine, formula, database, K, level=LEVEL)
            t2 = time.perf_counter()
            overhead.append(((t1 - t0) - (t2 - t1)) * 1000.0)
            direct.append((t2 - t1) * 1000.0)
        metrics = {
            **measured.extras,
            "store.save_ms": tracer.total_ms("store.save"),
            "store.load_ms": tracer.total_ms("store.load"),
            "shard.load_ms": tracer.total_ms("shard.load"),
            "shard.overhead_ms": statistics.median(overhead),
            "pictures.index_build_ms": tracer.total_ms("pictures.index_build"),
            # Service time against the same requests answered directly
            # in this process: what the serving path itself costs.
            "serve.overhead_ms": measured.extras["serve.service_ms_p50"]
            - statistics.median(direct),
            "serve.capacity_qps": self._capacity(layout, clips, stream),
        }
        shutil.rmtree(root)
        return metrics, measured

    def _capacity(self, layout, clips, stream) -> float:
        """Closed loop, two clients: the rate the server sustains."""
        pool = EnginePool.from_shard_layout(layout, n_workers=N_WORKERS)
        pending = iter(stream)
        lock = threading.Lock()

        def client() -> None:
            while True:
                with lock:
                    text = next(pending, None)
                if text is None:
                    return
                formula = resolve_clips(parse(text), clips)
                server.submit(QueryRequest(formula, K, level=LEVEL)).result(
                    timeout=60.0
                )

        with RetrievalServer(pool) as server:
            clients = [threading.Thread(target=client) for __ in range(2)]
            started = time.perf_counter()
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            return len(stream) / (time.perf_counter() - started)

    def oracle(self) -> Dict[str, Rows]:
        """The same queries answered directly on the unsharded corpus."""
        database, clips, stream = self.inputs()
        engine = RetrievalEngine()
        return {
            text: rows(answer(engine, database, clips, text))
            for text in dict.fromkeys(stream)
        }


class Live(Workload):
    """Writes beside reads over one ingest directory."""

    name = "live"

    def inputs(self):
        rng = self.rng()
        database, clips = corpora.sparse_corpus(rng, *self.sizes.live)
        stream = streams.mix_a(rng, self.sizes.live_cycles)
        batches = corpora.append_batches(
            rng, self.sizes.live_cycles, self.sizes.live_batch
        )
        return database, clips, stream, batches

    def _setup(self):
        database, clips, stream, batches = self.inputs()
        root = self.scratch("ingest")
        started = time.perf_counter()
        ingester = initialise(root, database)
        return time.perf_counter() - started, ingester, root, clips, stream, batches

    def setup_seconds(self) -> float:
        setup_s, ingester, root, *__ = self._setup()
        ingester.close()
        shutil.rmtree(root)
        return setup_s

    def round(self) -> Round:
        return self._cycles(None)[0]

    def _cycles(
        self, tracer: Optional[Tracer]
    ) -> Tuple[Round, RetrievalEngine]:
        setup_s, ingester, root, clips, stream, batches = self._setup()
        # The traced pass also times Video.append_segments on its own,
        # on a twin corpus the ingester never sees.
        twin_db = None
        if tracer is not None:
            twin_db = self.inputs()[0]
            warm(twin_db)
        wal_path = IngestLayout(root).wal_log_path
        engine, twin = RetrievalEngine(), Planner()
        names = ingester.database.names()
        fresh: List[float] = []
        lag: List[float] = []
        checkpoints: List[float] = []
        append_s = commit_s = 0.0
        wal_bytes = failed = 0
        loop_started = time.perf_counter()
        try:
            for cycle, (text, batch) in enumerate(zip(stream, batches)):
                video = names[cycle % len(names)]
                log_before = file_bytes(wal_path)
                t0 = time.perf_counter()
                ingester.append_segments(video, batch)
                t1 = time.perf_counter()
                ingester.commit()
                t2 = time.perf_counter()
                append_s += t1 - t0
                commit_s += t2 - t1
                wal_bytes += file_bytes(wal_path) - log_before
                live_db = ingester.database
                asked = time.perf_counter()
                try:
                    if tracer is None:
                        first = answer(engine, live_db, clips, text)
                    else:
                        first = staged_request(
                            tracer, cycle, text, clips, engine, twin,
                            live_db, K, LEVEL,
                        )
                    t3 = time.perf_counter()
                    again = answer(engine, live_db, clips, text)
                    t4 = time.perf_counter()
                except ReproError:
                    failed += 1
                    continue
                fresh.append((t3 - asked) * 1000.0)
                lag.append(((t3 - asked) - (t4 - t3)) * 1000.0)
                if first.partial or rows(first) != rows(again):
                    failed += 1
                if twin_db is not None:
                    with tracer.span("pictures.append"):
                        twin_db.get(video).append_segments(batch)
                if (cycle + 1) % self.sizes.checkpoint_every == 0:
                    t5 = time.perf_counter()
                    ingester.checkpoint()
                    checkpoints.append((time.perf_counter() - t5) * 1000.0)
            wall = time.perf_counter() - loop_started
        finally:
            ingester.close()
        appended = len(batches) * self.sizes.live_batch
        disk = directory_bytes(root)
        started = time.perf_counter()
        recovered = recover(root)
        recover_s = time.perf_counter() - started
        recovered.wal.close()
        if database_to_dict(recovered.database) != database_to_dict(live_db):
            failed += 1
        shutil.rmtree(root)
        measured = Round(
            setup_s=setup_s,
            latencies_ms=fresh,
            wall_s=wall,
            attempted=len(stream),
            failed=failed,
            # What the incrementally maintained system ranks once every
            # append has landed; the oracle rebuilds that state cold.
            answers={
                text: rows(answer(engine, live_db, clips, text))
                for text in dict.fromkeys(stream)
            },
            extras={
                "ingest_segments_per_s": appended / (append_s + commit_s),
                "recover_s": recover_s,
                "disk_bytes_per_segment": disk / segment_count(live_db),
                "stream.repeats": streams.repeats(stream),
                "ingest.append_ms": append_s * 1000.0 / len(batches),
                "ingest.commit_ms": commit_s * 1000.0 / len(batches),
                "ingest.checkpoint_ms": statistics.mean(checkpoints),
                "ingest.recover_ms": recover_s * 1000.0,
                "ingest.wal_bytes_per_segment": wal_bytes / appended,
                "ingest.freshness_lag_ms": statistics.median(lag),
            },
        )
        return measured, engine

    def traced(self, tracer: Tracer) -> Tuple[Dict[str, float], Round]:
        plain = self.round()
        staged, engine = self._cycles(tracer)
        # Each staged answer was compared with its untraced repeat.
        plain.failed += staged.failed
        metrics = staged_metrics(tracer, engine, plain.latencies_ms)
        metrics["pictures.append_ms"] = tracer.total_ms(
            "pictures.append"
        ) / len(staged.latencies_ms)
        return {**plain.extras, **metrics}, plain

    def oracle(self) -> Dict[str, Rows]:
        """The final corpus built with no ingest path at all — plain
        appends on a cold database, no WAL, no incrementally maintained
        index — ranked by a fresh engine."""
        database, clips, stream, batches = self.inputs()
        names = database.names()
        for cycle, batch in enumerate(batches):
            database.get(names[cycle % len(names)]).append_segments(batch)
        engine = RetrievalEngine()
        return {
            text: rows(answer(engine, database, clips, text))
            for text in dict.fromkeys(stream)
        }


WORKLOADS = {
    workload.name: workload
    for workload in (Sparse, Dense, Temporal, Served, Live)
}
