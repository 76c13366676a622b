"""Paper-style report rendering for experiment outputs.

The paper presents similarity tables as ``Start-id / End-id /
Similarity-value`` rows (Tables 1–4) and performance results as ``Size /
Direct Approach / SQL-based`` rows (Tables 5–6); these helpers print the
same shapes so a run of the benchmark harness can be eyeballed against
the paper.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Optional, Sequence, Union

from repro.core import trace
from repro.core.simlist import SimilarityList
from repro.core.topk import ranked_entries


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Plain aligned ASCII table."""
    materialised = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for position, cell in enumerate(row):
            widths[position] = max(widths[position], len(cell))
    def line(cells: Sequence[str]) -> str:
        return "  ".join(
            cell.ljust(widths[position]) for position, cell in enumerate(cells)
        ).rstrip()

    separator = "  ".join("-" * width for width in widths)
    body = [line(headers), separator]
    body.extend(line(row) for row in materialised)
    return "\n".join(body)


def write_report_json(
    path: Union[str, "os.PathLike[str]"], payload: Any
) -> None:
    """Write a ``BENCH_*.json`` report atomically.

    Benchmarks accumulate into their report file across tests; a crash
    (or a CI timeout) mid-write must never leave a truncated JSON file
    that poisons the next merge-and-rewrite.  Goes through the store's
    temp + rename primitive; reports skip the fsync — they are
    regenerable, the atomicity is what matters.
    """
    from repro.store.atomic import atomic_write_bytes

    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(
        "utf-8"
    )
    atomic_write_bytes(path, data, fsync=False)


def metrics_payload() -> dict:
    """The metrics registry as a JSON-safe dict (for ``BENCH_*.json``):
    its event counters.  Timing lives in span trees (DESIGN.md §10)."""
    return {"counters": trace.METRICS.counters()}


def trace_payload(root: trace.Span) -> dict:
    """One span tree as a JSON-safe dict, with its per-stage rollup."""
    return {
        "spans": root.to_dict(),
        "stage_breakdown": {
            name: {"seconds": total.seconds, "calls": total.calls}
            for name, total in root.stage_totals().items()
        },
    }


def observability_payload(root: Optional[trace.Span] = None) -> dict:
    """The full observability export: registry metrics + optional trace."""
    payload = {"metrics": metrics_payload()}
    if root is not None:
        payload["trace"] = trace_payload(root)
    return payload


def stage_report_text(
    root: trace.Span, title: str = "Per-stage timing"
) -> str:
    """One span tree's per-stage rollup as an aligned text table."""
    rows = [
        (name, f"{total.seconds:.4f}", total.calls)
        for name, total in sorted(root.stage_totals().items())
    ]
    if not rows:
        rows = [("(no stages recorded)", "-", "-")]
    table = format_table(("Stage", "Seconds", "Calls"), rows)
    return f"{title}\n{table}"


def similarity_table_text(
    sim: SimilarityList, title: str = "", ranked: bool = False
) -> str:
    """A similarity list in the paper's table layout.

    ``ranked=True`` orders rows by descending similarity (the Table 4
    presentation); otherwise rows appear in id order (Tables 1–3).
    """
    if ranked:
        triples = ranked_entries(sim)
    else:
        triples = [(entry.begin, entry.end, entry.actual) for entry in sim]
    rows = [
        (begin, end, f"{actual:.3f}".rstrip("0").rstrip("."))
        for begin, end, actual in triples
    ]
    table = format_table(("Start-id", "End-id", "Similarity-value"), rows)
    if title:
        return f"{title}\n{table}"
    return table
