"""The metric catalogue: ``BENCHMARK.json`` plus what its schema cannot hold.

``BENCHMARK.json`` (repo root) is the source for every name, unit,
direction and bound the driver gates on.  Its schema wants each
end-to-end metric reported on every workload, so only the five that are
defined everywhere live in its ``end_to_end`` list.  The other four of
the benchmark's nine end-to-end metrics — defined on some workloads
only, or legitimately zero — are listed under its ``per_layer`` (so a
``--trace 1`` run prints them) and get their bounds here, for the
benchmark's own ``--compare``.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from benchmarks.e2e import ROOT

WORKLOAD_NAMES = ("sparse", "dense", "temporal", "served", "live")

#: Workloads the whole command runs and ``--compare`` gates but
#: ``BENCHMARK.json`` does not list, with their one-line reason.  The
#: driver's time limit is shared by every workload it lists, and a run
#: needs about ten rounds to find each request a quiet moment (README,
#: *Noise*): three workloads get 36 s each, five got 15 s and were
#: refused as too noisy.  These two have the longest rounds (8 s and
#: 5 s) and add thread scheduling and the disk to the processor's noise.
UNLISTED = {
    "served": "The sparse queries through shard stores, admission, queue, "
    "worker pick, scatter-gather and merge, open loop at a fixed rate: "
    "serving overhead and lock effects show here only.",
    "live": "Appends, commits and checkpoints beside fresh queries, then "
    "recovery: a read-path win that slows index maintenance, freshness "
    "or recovery shows here.",
}

#: End-to-end metrics the driver cannot gate: name → (bound, workloads).
#: ``failed_share`` may not rise at all.
PARTIAL_END_TO_END: Dict[str, Tuple[float, Tuple[str, ...]]] = {
    "failed_share": (0.0, WORKLOAD_NAMES),
    "ingest_segments_per_s": (0.15, ("live",)),
    "recover_s": (0.20, ("live",)),
    "disk_bytes_per_segment": (0.10, ("served", "live")),
}

#: ``setup_s`` is tens of milliseconds on the library workloads; below
#: this many seconds a relative bound only measures timer noise.
SETUP_FLOOR_S = 0.05

#: Which end-to-end metric each layer metric should move, and where it
#: should show (README has the prose).
MOVES = {
    "htl.": "latency_p50_ms everywhere (<1%: a tripwire, not a target)",
    "planner.": "latency_p50_ms on sparse; zero on temporal",
    "pictures.index_build_ms": "setup_s",
    "pictures.append_ms": "ingest_segments_per_s, live latency_p50_ms",
    "pictures.support_ms": "latency_p50_ms, throughput_qps on sparse",
    "pictures.": "latency_p50_ms, throughput_qps on dense (counts: sparse)",
    "core.": "latency_p50_ms on temporal, then sparse and dense",
    "topk.": "latency_p50_ms on temporal and served",
    "shard.load_ms": "setup_s on served",
    "shard.": "latency_p50_ms on served",
    "store.": "setup_s on served and live",
    "serve.": "latency_p95_ms, then latency_p50_ms, on served",
    "ingest.recover_ms": "recover_s on live",
    "ingest.": "ingest_segments_per_s on live",
    "trace.": "checks the decomposition itself",
    "stream.": "input property, not a target",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workloads(spec: dict) -> List[dict]:
    """``{name, why}`` of all five, ``BENCHMARK.json``'s first."""
    return spec["workloads"] + [
        {"name": name, "why": why} for name, why in UNLISTED.items()
    ]


def moves(name: str) -> str:
    """Longest-prefix match into :data:`MOVES` ('' for end-to-end names)."""
    best = max(
        (prefix for prefix in MOVES if name.startswith(prefix)),
        key=len,
        default="",
    )
    return MOVES.get(best, "")


def end_to_end_rows(spec: dict) -> List[dict]:
    """The benchmark's nine end-to-end metrics, one dict each:
    ``name, unit, better, bound, workloads``."""
    rows = [
        {**metric, "workloads": WORKLOAD_NAMES}
        for metric in spec["end_to_end"]
    ]
    listed = {metric["name"]: metric for metric in spec["per_layer"]}
    for name, (bound, workloads) in PARTIAL_END_TO_END.items():
        rows.append({**listed[name], "bound": bound, "workloads": workloads})
    return rows
