"""Outside-in layer trace: spans around the benchmark's own calls.

Nothing here reaches inside the program.  A *staged* request replays the
library's request path one public function at a time — ``parse`` →
``resolve_clips`` → per video ``evaluate_video`` → ``top_k_segments`` →
``TopKResult.merge`` — and records a span around each call.  Those four
stages are what an untraced ``top_k_across_videos`` does, so their sum
must reconcile with the untraced wall clock (``trace.reconcile_ratio``).

The engine's interior is attributed by calling the layers it calls,
again, on their own and outside the reconciled stages: the planner
(``Planner.plan_for`` on a twin planner that sees the same request
sequence, so its cache warms the same way), the picture layer
(``atom_support`` and ``similarity_table`` per atomic subformula) and,
for registered-list queries, the list algebra (``combine_lists``).
Counts are read from public counters (``PictureRetrievalSystem.stats``,
``Planner.stats``) at the boundaries of the *real* engine call, so they
are the request's exact work, not the attribution calls'.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.core.engine import RetrievalEngine
from repro.core.planner import Planner, has_picture_atoms
from repro.core.topk import (
    OUTCOME_OK,
    TopKResult,
    VideoOutcome,
    top_k_segments,
)
from repro.htl import (
    ast,
    atomic_subformulas,
    free_object_vars,
    paper_class,
    parse,
)
from repro.model.database import VideoDatabase
from repro.pictures.scoring import exists_pool
from repro.pictures.signature import resolve_clips

#: The stages whose sum is the staged request (reconciles with the
#: untraced wall clock).
RECONCILED_STAGES = ("htl.parse", "htl.resolve", "core.engine", "topk.rank")

PICTURE_COUNTERS = (
    "segments_scored",
    "fingerprint_hits",
    "candidate_segments",
    "dense_bindings",
)


class Tracer:
    """Spans ``{name, start, end, parent, request}``, kept in memory.

    Single-threaded by design: every span is opened by the benchmark's
    own thread around a call it makes itself.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = {}
        self._open: List[int] = []
        self._request: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "request": self._request,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextmanager
    def request(self, number: int) -> Iterator[None]:
        """The root span of one request; its children share ``number``."""
        self._request = number
        try:
            with self.span("request"):
                yield
        finally:
            self._request = None

    def add(
        self, name: str, start: float, end: float, request: int
    ) -> None:
        """A span reconstructed from timestamps the program reported."""
        self.spans.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": None,
                "request": request,
            }
        )

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total_ms(self, *names: str) -> float:
        return 1000.0 * sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] in names
        )

    def write_jsonl(self, handle, workload: str) -> None:
        for span in self.spans:
            handle.write(json.dumps({"workload": workload, **span}) + "\n")


def _probe_binding(atom, pictures) -> Dict[str, str]:
    """Bind an open atom's variables to the sequence's first object, so
    ``atom_support`` can be timed on its own."""
    universe = pictures.universe
    return {
        name: universe[0] for name in sorted(free_object_vars(atom)) if universe
    }


def staged_request(
    tracer: Tracer,
    number: int,
    text: str,
    clips,
    engine: RetrievalEngine,
    twin: Planner,
    database: VideoDatabase,
    k: int,
    level: int,
) -> TopKResult:
    """One request, one public call per layer, a span around each."""
    with tracer.request(number):
        with tracer.span("htl.parse"):
            formula = parse(text)
        with tracer.span("htl.resolve"):
            formula = resolve_clips(formula, clips)
            paper_class(formula)
        pictured = has_picture_atoms(formula)
        atoms = atomic_subformulas(formula) if pictured else []
        ranked: List[TopKResult] = []
        for video in database.videos():
            pictures = video.root.pictures_at_level(level)
            before = [getattr(pictures.stats, c) for c in PICTURE_COUNTERS]
            with tracer.span("core.engine"):
                sim = engine.evaluate_video(
                    formula, video, level=level, database=database
                )
            for counter, start in zip(PICTURE_COUNTERS, before):
                tracer.count(
                    f"pictures.{counter}",
                    getattr(pictures.stats, counter) - start,
                )
            with tracer.span("topk.rank"):
                ranked.append(
                    TopKResult(
                        top_k_segments(sim, k, video.name),
                        [VideoOutcome(video.name, OUTCOME_OK)],
                    )
                )
            entries = len(sim.entries)
            with tracer.span("attribution"):
                if pictured:
                    with tracer.span("planner.plan"):
                        plan = twin.plan_for(
                            formula,
                            pictures,
                            level,
                            engine.config,
                            generation=database.video_generation(video.name),
                            video=video.name,
                        )
                    universe = tuple(exists_pool(video.object_universe()))
                    for atom in atoms:
                        binding = _probe_binding(atom, pictures)
                        with tracer.span("pictures.support"):
                            pictures.atom_support(
                                atom, binding, universe, charge=False
                            )
                        # The engine scores each atom the way its plan
                        # says (indexed or naive); so does this call.
                        choice = plan.atom_use_index(ast.structural_key(atom))
                        with tracer.span("pictures.atoms"):
                            table = pictures.similarity_table(
                                atom,
                                universe=universe,
                                use_index=choice is not False,
                            )
                        entries += sum(
                            len(row.sim.entries) for row in table.rows
                        )
                else:
                    lists = {
                        name: database.atomic_list(name, video.name, level)
                        for name in database.atomic_names()
                    }
                    entries += sum(len(given.entries) for given in lists.values())
                    with tracer.span("core.algebra"):
                        engine.combine_lists(formula, lists)
            tracer.count("core.list_entries", entries)
        with tracer.span("topk.rank"):
            return TopKResult.merge(*ranked, k=k)


def staged_metrics(
    tracer: Tracer, engine: RetrievalEngine, untraced_ms: Sequence[float]
) -> Dict[str, float]:
    """Per-layer metrics of one staged pass: mean ms per request for
    times, round totals for counts.  ``untraced_ms`` are the latencies
    of the same requests with tracing off — the whole the parts must
    reconcile with."""
    per_request = 1.0 / len(untraced_ms)
    untraced_wall = sum(untraced_ms)

    def mean_ms(*names: str) -> float:
        return tracer.total_ms(*names) * per_request

    engine_ms = mean_ms("core.engine")
    plan_ms = mean_ms("planner.plan")
    atoms_ms = mean_ms("pictures.atoms")
    planner = engine.planner.stats
    lookups = planner.cache_hits + planner.cache_misses
    scored = tracer.counts.get("pictures.segments_scored", 0)
    hits = tracer.counts.get("pictures.fingerprint_hits", 0)
    # Self time of the engine: what is left once the layers it calls are
    # taken out.  Registered-list queries call no picture layer, so
    # their list algebra is timed directly through ``combine_lists``.
    algebra_ms = (
        mean_ms("core.algebra")
        if tracer.total_ms("core.algebra")
        else engine_ms - atoms_ms - plan_ms
    )
    metrics = {
        "htl.parse_ms": mean_ms("htl.parse"),
        "htl.resolve_ms": mean_ms("htl.resolve"),
        "planner.plan_ms": plan_ms,
        "planner.plans_built": planner.plans_built,
        "planner.cache_hit_share": (
            planner.cache_hits / lookups if lookups else 0.0
        ),
        "pictures.support_ms": mean_ms("pictures.support"),
        "pictures.atoms_ms": atoms_ms,
        "pictures.memo_hit_share": (
            hits / (hits + scored) if hits + scored else 0.0
        ),
        "core.engine_ms": engine_ms,
        "core.algebra_ms": algebra_ms,
        "core.list_entries": tracer.counts.get("core.list_entries", 0),
        "topk.rank_ms": mean_ms("topk.rank"),
        "trace.reconcile_ratio": tracer.total_ms(*RECONCILED_STAGES)
        / untraced_wall,
        "trace.overhead_share": tracer.total_ms("request") / untraced_wall
        - 1.0,
    }
    for counter in PICTURE_COUNTERS:
        name = f"pictures.{counter}"
        metrics[name] = tracer.counts.get(name, 0)
    return metrics
