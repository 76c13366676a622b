"""Run one workload in this process: rounds, the oracle check, aggregation.

A run is a number of independent rounds — a fixed count (``rounds``) or
as many as fit in ``seconds`` — of one identical request sequence.
Because the sequence is identical, request *i* of every round is the
same work, and its reported latency is the **best of the rounds**; the
percentiles are then taken across the requests.  Measured on this
2-vCPU VM: whole rounds run 10–45% slower for seconds at a time with
CPU time up as well (a neighbour, not the program), and one request
varies 1.1× (library) to 1.5× (threaded server) around its minimum.
That noise only ever adds time, so the minimum is the steady estimator:
over ten runs the quartile range of ``latency_p95_ms`` on ``sparse`` was
14% of the median for median-of-round-p95s and 7% for best-of-rounds.
Busy spells come in phases of minutes, so a run needs enough rounds for
every request to meet a quiet moment: across recorded rounds the full
range of best-of-N p50s fell from 66% of the median at N = 3 to 14% at
N = 8, which is why ``BENCHMARK.json`` gives a run 36 s (README, *Noise*).
Per-round values and their quartiles are reported next to it, and
``setup_s`` — set up ``setup_repeats`` extra times per run — is the
lower quartile of the run's set-ups.
"""

from __future__ import annotations

import resource
import statistics
import time
from typing import Dict, List, Optional

from benchmarks.e2e.layers import Tracer
from benchmarks.e2e.workloads import WORKLOADS, Round, Sizes, percentile

#: Best-of needs a few rounds to find a quiet one.
MIN_ROUNDS = 3


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (kilobytes on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    name: str,
    seed: int,
    sizes: Sizes,
    workdir: str,
    *,
    rounds: Optional[int] = None,
    seconds: float = 0.0,
    trace: bool = False,
    spans_out=None,
) -> dict:
    """Measure one workload and check its answers.

    With ``trace`` off each round yields latencies and end-to-end
    values; with it on each pass yields the per-layer values (and
    appends its spans to the open file ``spans_out``).  Rounds repeat
    until ``rounds`` are done or, when ``rounds`` is None, until another
    would overrun ``seconds`` — but never fewer than :data:`MIN_ROUNDS`
    untraced rounds or one traced pass.
    """
    workload = WORKLOADS[name](seed, sizes, workdir)
    fewest = rounds if rounds is not None else (1 if trace else MIN_ROUNDS)
    setups = [] if trace else [
        workload.setup_seconds() for __ in range(sizes.setup_repeats)
    ]
    measured: List[Round] = []
    layers: List[Dict[str, float]] = []
    started = time.perf_counter()
    while True:
        if trace:
            tracer = Tracer()
            values, checked = workload.traced(tracer)
            if spans_out is not None:
                tracer.write_jsonl(spans_out, name)
            layers.append(values)
        else:
            checked = workload.round()
        measured.append(checked)
        elapsed = time.perf_counter() - started
        if len(measured) < fewest:
            continue
        if rounds is not None or elapsed + elapsed / len(measured) > seconds:
            break
    # Before the oracle pass: its naive engines and second corpus are
    # the benchmark's memory, not the system's.
    rss = peak_rss_mb()
    mismatched = sum(workload.check(one) for one in measured)
    attempted = sum(one.attempted for one in measured)
    failed = sum(one.failed for one in measured) + mismatched
    return {
        "workload": name,
        "seed": seed,
        "attempted": attempted,
        "failed": failed,
        "mismatched": mismatched,
        "peak_rss_mb": rss,
        "setups": setups + [one.setup_s for one in measured],
        "rounds": [
            {
                "latencies_ms": one.latencies_ms,
                "wall_s": one.wall_s,
                "sequential": one.sequential,
                "extras": one.extras,
            }
            for one in measured
        ],
        "layers": layers,
    }


def round_values(one: dict) -> Dict[str, float]:
    """The end-to-end statistics of a single round."""
    return {
        "latency_p50_ms": statistics.median(one["latencies_ms"]),
        "latency_p95_ms": percentile(one["latencies_ms"], 0.95),
        "throughput_qps": len(one["latencies_ms"]) / one["wall_s"],
        **one["extras"],
    }


def end_to_end(results: List[dict], better: Dict[str, str]) -> Dict[str, dict]:
    """Aggregate runs of one workload (one driver run, or the whole
    benchmark's child runs) into ``{metric: {value, rounds, q1, q3}}``.

    ``better`` maps metric names to ``lower``/``higher``; only names it
    knows are reported.
    """
    rounds = [one for result in results for one in result["rounds"]]
    per_round = [round_values(one) for one in rounds]
    # Request i is the same work in every round: keep its best time.
    best = [min(times) for times in zip(*(r["latencies_ms"] for r in rounds))]
    attempted = sum(result["attempted"] for result in results)
    series = {
        name: [values[name] for values in per_round]
        for name in per_round[0]
        if name in better
    }
    cells = {
        name: {
            "value": (min if better[name] == "lower" else max)(values),
            "rounds": values,
        }
        for name, values in series.items()
    }
    cells["latency_p50_ms"]["value"] = statistics.median(best)
    cells["latency_p95_ms"]["value"] = percentile(best, 0.95)
    if all(one["sequential"] for one in rounds):
        # One client and nothing between requests: the loop's wall clock
        # is the sum of its latencies, so the same best times give the
        # throughput (a whole quiet round is rarer than a quiet request).
        cells["throughput_qps"]["value"] = 1000.0 * len(best) / sum(best)
    setups = [value for result in results for value in result["setups"]]
    # Noise only adds time, and a busy phase lifts the median of a run's
    # set-ups by up to a quarter; their lower quartile moved 7%.
    cells["setup_s"] = {
        "value": statistics.quantiles(setups, n=4)[0]
        if len(setups) > 1
        else setups[0],
        "rounds": setups,
    }
    rss = [result["peak_rss_mb"] for result in results]
    cells["peak_rss_mb"] = {"value": statistics.median(rss), "rounds": rss}
    failed = sum(result["failed"] for result in results)
    cells["failed_share"] = {"value": failed / attempted, "rounds": [failed]}
    for cell in cells.values():
        if len(cell["rounds"]) >= 2:
            cell["q1"], __, cell["q3"] = statistics.quantiles(
                cell["rounds"], n=4
            )
    return cells


def per_layer(result: dict) -> Dict[str, float]:
    """Median over the traced passes of one run (usually one)."""
    passes = result["layers"]
    return {
        name: statistics.median(values[name] for values in passes)
        for name in passes[0]
    }
