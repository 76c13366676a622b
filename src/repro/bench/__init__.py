"""Benchmark harness and paper-style reporting."""

from repro.bench.harness import (
    ComparisonRow,
    Measurement,
    compare_systems,
    run_direct,
    run_sql,
    time_call,
)
from repro.bench.reporting import (
    format_table,
    similarity_table_text,
)

__all__ = [
    "Measurement",
    "ComparisonRow",
    "time_call",
    "run_direct",
    "run_sql",
    "compare_systems",
    "format_table",
    "similarity_table_text",
]
