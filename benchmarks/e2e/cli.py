"""``python -m benchmarks.e2e`` — the one command.

Three ways in:

* no ``--workload``: the whole benchmark.  ``--rounds`` rounds (default
  5); in each round every workload runs once in its own child process,
  so a noisy minute costs each workload one round, not one workload all
  of its rounds.  Then one traced pass per workload.  Prints every
  metric by name, writes ``--out`` and the span JSONL, exits non-zero
  if any answer was wrong.
* ``--workload NAME --seed N --seconds S --trace 0|1``: one workload in
  this process — what each child runs and what the benchmark driver
  calls (``BENCHMARK.json``).  The last line of stdout is one JSON
  object ``{correct, attempted, failed, metrics}``.
* ``--compare A.json B.json``: gate report B against report A.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
from contextlib import nullcontext
from typing import Dict, List, Optional

from repro.bench.reporting import write_report_json

from benchmarks.e2e import ROOT, metrics as catalogue
from benchmarks.e2e.runner import end_to_end, per_layer, run_workload
from benchmarks.e2e.workloads import FULL, SMOKE

DEFAULT_SEED = 1997
DEFAULT_ROUNDS = 5
DEFAULT_OUT = "BENCH_e2e.json"
DEFAULT_SPANS = "BENCH_e2e_spans.jsonl"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=catalogue.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=0.0,
        help="with --workload: keep starting rounds while one more fits",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        help="rounds per workload (whole benchmark: default 5; with "
        "--workload: run exactly this many instead of filling --seconds)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny corpora, 12 requests"
    )
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--trace-out",
        help=f"span JSONL (whole benchmark: default {DEFAULT_SPANS}; with "
        "--workload --trace 1: appended to when given)",
    )
    parser.add_argument(
        "--workdir",
        help="where shard stores and ingest directories are written "
        "(default: .bench_e2e_work/ in the checkout; removed afterwards)",
    )
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument(
        "--detail",
        action="store_true",
        help="with --workload: add per-round values to the result line",
    )
    return parser.parse_args(argv)


def _directions(spec: dict) -> Dict[str, str]:
    return {
        metric["name"]: metric["better"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


# ---------------------------------------------------------------------------
# one workload (driver and child mode)
# ---------------------------------------------------------------------------
def run_one(args: argparse.Namespace, spec: dict, workdir: str) -> int:
    with (
        open(args.trace_out, "a", encoding="utf-8")
        if args.trace and args.trace_out
        else nullcontext()
    ) as spans:
        result = run_workload(
            args.workload,
            args.seed,
            SMOKE if args.smoke else FULL,
            workdir,
            rounds=args.rounds,
            seconds=args.seconds,
            trace=bool(args.trace),
            spans_out=spans,
        )
    if args.trace:
        values = per_layer(result)
        values["failed_share"] = result["failed"] / result["attempted"]
    else:
        values = {
            name: cell["value"]
            for name, cell in end_to_end([result], _directions(spec)).items()
        }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric["name"]: {
                # A layer that is idle on this workload reports 0.
                "value": values.get(metric["name"], 0.0),
                "unit": metric["unit"],
            }
            for metric in wanted
        },
    }
    if args.detail:
        line["detail"] = result
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ---------------------------------------------------------------------------
# the whole benchmark
# ---------------------------------------------------------------------------
def _child(args, workload: str, trace: int, workdir: str, spans: str) -> dict:
    command = [
        sys.executable, "-m", "benchmarks.e2e",
        "--workload", workload,
        "--seed", str(args.seed),
        "--rounds", "1",
        "--trace", str(trace),
        "--workdir", workdir,
        "--trace-out", spans,
        "--detail",
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False
    )
    lines = done.stdout.strip().splitlines()
    # Exit 1 with a result line is a wrong answer, reported below; any
    # other failure is the child crashing.
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            f"{workload} (trace {trace}) exited {done.returncode} "
            "without a result"
        )
    return json.loads(lines[-1])


def run_all(args: argparse.Namespace, spec: dict, workdir: str) -> int:
    n_rounds = args.rounds or (1 if args.smoke else DEFAULT_ROUNDS)
    spans = os.path.abspath(args.trace_out or DEFAULT_SPANS)
    open(spans, "w", encoding="utf-8").close()
    workloads = catalogue.workloads(spec)
    names = [workload["name"] for workload in workloads]
    plain: Dict[str, List[dict]] = {name: [] for name in names}
    for number in range(n_rounds):
        for name in names:
            print(f"round {number + 1}/{n_rounds}: {name}", file=sys.stderr)
            plain[name].append(_child(args, name, 0, workdir, spans))
    report = {
        "benchmark": "benchmarks.e2e",
        "seed": args.seed,
        "smoke": args.smoke,
        "rounds": n_rounds,
        "python": platform.python_version(),
        "sizes": dataclasses.asdict(SMOKE if args.smoke else FULL),
        "workloads": {},
    }
    rows = catalogue.end_to_end_rows(spec)
    for workload in workloads:
        name = workload["name"]
        print(f"traced pass: {name}", file=sys.stderr)
        traced = _child(args, name, 1, workdir, spans)
        runs = plain[name] + [traced]
        cells = end_to_end(
            [run["detail"] for run in plain[name]], _directions(spec)
        )
        samples = len(plain[name][0]["detail"]["rounds"][0]["latencies_ms"])
        report["workloads"][name] = {
            "why": workload["why"],
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "requests_per_round": samples,
            "end_to_end": {
                row["name"]: {
                    **cells[row["name"]],
                    "unit": row["unit"],
                    "better": row["better"],
                    "bound": row["bound"],
                }
                for row in rows
                if name in row["workloads"]
            },
            "per_layer": {
                metric: {**entry, "moves": catalogue.moves(metric)}
                for metric, entry in traced["metrics"].items()
                if metric not in catalogue.PARTIAL_END_TO_END
            },
        }
    print_report(report)
    write_report_json(args.out, report)
    print(f"wrote {args.out} and {spans}", file=sys.stderr)
    return int(any(entry["failed"] for entry in report["workloads"].values()))


def print_report(report: dict) -> None:
    for name, entry in report["workloads"].items():
        print(
            f"\n== {name}: {report['rounds']} round(s) of "
            f"{entry['requests_per_round']} requests, attempted "
            f"{entry['attempted']}, failed {entry['failed']}"
        )
        print(f"   {entry['why']}")
        print("  end-to-end (best of rounds; setup_s lower quartile; tracing off)")
        for metric, cell in entry["end_to_end"].items():
            spread = (
                f"per-round q1..q3 {cell['q1']:.6g}..{cell['q3']:.6g}"
                if "q1" in cell
                else ""
            )
            samples = str(len(cell["rounds"]))
            if metric.startswith("latency"):
                samples = f"{entry['requests_per_round']}x{samples}"
            print(
                f"    {metric:<28}{cell['value']:>14.6g} {cell['unit']:<6}"
                f"n={samples:<7} bound {cell['bound']:.0%}  {spread}"
            )
        print("  per-layer (one traced pass)")
        for metric, cell in entry["per_layer"].items():
            print(f"    {metric:<28}{cell['value']:>14.6g} {cell['unit']}")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def verdict(row: dict, before: dict, after: dict) -> str:
    """``ok``, ``worse`` or ``unresolved`` for one (metric, workload)."""
    if row["name"] == "failed_share":
        return "worse" if after["value"] > before["value"] else "ok"
    worsening = after["value"] - before["value"]
    if row["better"] == "higher":
        worsening = -worsening
    allowed = row["bound"] * abs(before["value"])
    if row["name"] == "setup_s":
        allowed = max(allowed, catalogue.SETUP_FLOOR_S)
    spread = max(
        (cell["q3"] - cell["q1"]) if "q1" in cell else float("inf")
        for cell in (before, after)
    )
    if worsening > allowed and worsening > spread:
        return "worse"
    # Runs of one commit differ by more than the bound: the comparison
    # cannot tell a regression from noise, so it may not say "ok".
    return "unresolved" if spread > allowed else "ok"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a, encoding="utf-8") as handle:
        report_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        report_b = json.load(handle)
    print(
        f"{'metric':<24}{'workload':<10}{'A':>12}{'B':>12}"
        f"{'A q1..q3':>24}{'B q1..q3':>24}{'bound':>7}  verdict"
    )
    worse = 0
    for row in catalogue.end_to_end_rows(spec):
        for name in row["workloads"]:
            before = report_a["workloads"][name]["end_to_end"][row["name"]]
            after = report_b["workloads"][name]["end_to_end"][row["name"]]
            outcome = verdict(row, before, after)
            worse += outcome == "worse"
            ranges = [
                f"{cell['q1']:.5g}..{cell['q3']:.5g}" if "q1" in cell else "-"
                for cell in (before, after)
            ]
            print(
                f"{row['name']:<24}{name:<10}{before['value']:>12.5g}"
                f"{after['value']:>12.5g}{ranges[0]:>24}{ranges[1]:>24}"
                f"{row['bound']:>7.0%}  {outcome}"
            )
    return int(worse > 0)


# ---------------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec = catalogue.load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    # Everything the program writes (shard stores, ingest directories)
    # stays inside the checkout, in a directory of this process's own.
    base = os.path.abspath(args.workdir or ROOT / ".bench_e2e_work")
    workdir = os.path.join(base, str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.workload:
            return run_one(args, spec, workdir)
        return run_all(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not args.workdir:
            try:
                os.rmdir(base)  # only when no other run is using it
            except OSError:
                pass
