"""Tier-1 smoke test of ``python -m benchmarks.e2e`` (tiny corpora, one
round, 12 requests): the command, its contract with ``BENCHMARK.json``,
the oracle, determinism under a seed, and ``--compare``."""

import copy
import json
import math
import os
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import ROOT, metrics as catalogue
from benchmarks.e2e.cli import compare, main, verdict
from benchmarks.e2e.runner import run_workload
from benchmarks.e2e.workloads import SMOKE, WORKLOADS, Sparse

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 7


@pytest.fixture(scope="module")
def spec():
    return catalogue.load_spec()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The whole command, once: ``(report, stdout, span records, what
    is left in its work directory)``."""
    tmp = tmp_path_factory.mktemp("e2e")
    out, spans = tmp / "BENCH_e2e.json", tmp / "spans.jsonl"
    done = subprocess.run(
        [
            sys.executable, "-m", "benchmarks.e2e", "--smoke",
            "--seed", str(SEED), "--out", str(out),
            "--trace-out", str(spans), "--workdir", str(tmp / "work"),
        ],  # fmt: skip
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    left = os.listdir(tmp / "work")
    return json.loads(out.read_text()), done.stdout, records, left


def _driver_line(capsys, tmp_path, *extra):
    code = main(
        ["--smoke", "--seed", str(SEED), "--workdir", str(tmp_path), *extra]
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestBenchmarkJson:
    def test_shape_and_limits(self, spec):
        assert set(spec) == {
            "command", "paths", "run_seconds", "workloads",
            "end_to_end", "per_layer",
        }  # fmt: skip
        assert 1 <= spec["run_seconds"] <= 60
        assert 2 <= len(spec["workloads"]) <= 8
        for workload in spec["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names = [w["name"] for w in spec["workloads"]]
        for metric in spec["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in spec["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in spec["end_to_end"] + spec["per_layer"]:
            names.append(metric["name"])
            assert UNIT.fullmatch(metric["unit"])
            assert metric["better"] in ("lower", "higher")
        assert all(NAME.fullmatch(name) for name in names)
        assert len(names) == len(set(names))
        assert {
            "name": "setup_s", "unit": "s", "better": "lower"
        }.items() <= next(
            m for m in spec["end_to_end"] if m["name"] == "setup_s"
        ).items()  # fmt: skip

    def test_paths_hold_the_benchmark(self, spec):
        assert spec["paths"] == ["benchmarks/e2e", "tests/bench_e2e"]
        assert all((ROOT / path).is_dir() for path in spec["paths"])
        # The driver's three, then the two only the whole command runs.
        assert [w["name"] for w in spec["workloads"]] == [
            "sparse", "dense", "temporal",
        ]  # fmt: skip
        assert tuple(w["name"] for w in catalogue.workloads(spec)) == (
            catalogue.WORKLOAD_NAMES
        )
        for workload in catalogue.workloads(spec):
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert set(WORKLOADS) == set(catalogue.WORKLOAD_NAMES)


class TestWholeCommand:
    def test_every_metric_by_name_unit_and_finite_value(self, spec, smoke):
        report, stdout, *__ = smoke
        layer_names = {m["name"] for m in spec["per_layer"]} - set(
            catalogue.PARTIAL_END_TO_END
        )
        assert set(report["workloads"]) == set(catalogue.WORKLOAD_NAMES)
        for name, entry in report["workloads"].items():
            assert entry["failed"] == 0 and entry["attempted"] > 0
            expected = {
                row["name"]
                for row in catalogue.end_to_end_rows(spec)
                if name in row["workloads"]
            }
            assert set(entry["end_to_end"]) == expected
            assert set(entry["per_layer"]) == layer_names
            cells = {**entry["end_to_end"], **entry["per_layer"]}
            for metric, cell in cells.items():
                assert NAME.fullmatch(metric)
                assert UNIT.fullmatch(cell["unit"])
                assert math.isfinite(cell["value"]), (name, metric)
                assert metric in stdout
            assert entry["end_to_end"]["failed_share"]["value"] == 0

    def test_nine_end_to_end_metrics(self, spec):
        assert [row["name"] for row in catalogue.end_to_end_rows(spec)] == [
            "latency_p50_ms", "latency_p95_ms", "throughput_qps",
            "peak_rss_mb", "setup_s", "failed_share",
            "ingest_segments_per_s", "recover_s", "disk_bytes_per_segment",
        ]  # fmt: skip

    def test_layers_show_where_predicted(self, smoke):
        layers = {
            name: {m: c["value"] for m, c in entry["per_layer"].items()}
            for name, entry in smoke[0]["workloads"].items()
        }
        assert layers["sparse"]["pictures.atoms_ms"] > 0
        assert layers["sparse"]["planner.plans_built"] > 0
        assert layers["temporal"]["planner.plans_built"] == 0
        assert layers["temporal"]["pictures.atoms_ms"] == 0
        assert layers["temporal"]["core.algebra_ms"] > 0
        assert layers["served"]["serve.service_ms_p50"] > 0
        assert layers["served"]["shard.load_ms"] > 0
        assert layers["served"]["serve.capacity_qps"] > 0
        assert layers["live"]["ingest.commit_ms"] > 0
        assert layers["live"]["pictures.append_ms"] > 0
        assert layers["sparse"]["ingest.commit_ms"] == 0
        for name in ("sparse", "dense", "temporal", "live"):
            assert 0.5 < layers[name]["trace.reconcile_ratio"] < 1.5

    def test_spans_are_written(self, smoke):
        records = smoke[2]
        assert {r["workload"] for r in records} == set(catalogue.WORKLOAD_NAMES)
        assert all(
            set(r) == {"workload", "name", "start", "end", "parent", "request"}
            and r["end"] >= r["start"]
            for r in records
        )
        engine = [
            r for r in records
            if r["workload"] == "sparse" and r["name"] == "core.engine"
        ]  # fmt: skip
        assert engine and all(r["request"] is not None for r in engine)

    def test_run_cleans_its_work_directory(self, smoke):
        assert smoke[3] == []


class TestDriverMode:
    @pytest.mark.parametrize("workload", ["temporal", "served"])
    def test_last_line_is_the_contract(self, spec, capsys, tmp_path, workload):
        for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
            code, line = _driver_line(
                capsys, tmp_path,
                "--workload", workload, "--seconds", "0", "--trace", str(trace),
            )  # fmt: skip
            assert code == 0
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0
            assert isinstance(line["attempted"], int) and line["attempted"] >= 1
            assert {
                name: cell["unit"] for name, cell in line["metrics"].items()
            } == {m["name"]: m["unit"] for m in spec[listed]}
            if not trace:
                assert all(c["value"] > 0 for c in line["metrics"].values())
        assert not os.listdir(tmp_path)

    def test_wrong_ranking_fails_the_command(
        self, capsys, tmp_path, monkeypatch
    ):
        honest = Sparse.oracle

        def off_by_one(self):
            answers = honest(self)
            text = next(t for t, ranking in answers.items() if ranking)
            video, segment, actual, maximum = answers[text][0]
            answers[text][0] = (video, segment + 1, actual, maximum)
            return answers

        monkeypatch.setattr(Sparse, "oracle", off_by_one)
        code, line = _driver_line(
            capsys, tmp_path, "--workload", "sparse", "--rounds", "1"
        )
        assert code != 0
        assert line["correct"] is False and line["failed"] == 1


class TestOracleAndDeterminism:
    def test_oracle_fires_on_a_perturbed_answer(self, tmp_path):
        for name in ("dense", "live"):
            workload = WORKLOADS[name](SEED, SMOKE, str(tmp_path))
            measured = workload.round()
            assert measured.failed == 0 and workload.check(measured) == 0
            text = next(t for t, rows in measured.answers.items() if len(rows) > 1)
            measured.answers[text].reverse()
            assert workload.check(measured) == 1

    def test_same_seed_same_requests_and_counts(self, tmp_path):
        def counts(seed):
            result = run_workload(
                "sparse", seed, SMOKE, str(tmp_path), rounds=1, trace=True
            )
            return {
                name: value
                for name, value in result["layers"][0].items()
                # Not planner.*: adaptive re-planning reacts to observed
                # wall-clock, so plans_built may differ by a few.
                if name.startswith(("pictures.", "core.list", "stream."))
                and not name.endswith("_ms")
            }

        def stream(seed):
            return Sparse(seed, SMOKE, str(tmp_path)).inputs()[2]

        assert stream(SEED) == stream(SEED)
        assert stream(SEED) != stream(SEED + 1)
        first = counts(SEED)
        assert first == counts(SEED)
        assert first["pictures.segments_scored"] > 0
        assert first != counts(SEED + 1)


class TestCompare:
    ROW = {"name": "latency_p50_ms", "better": "lower", "bound": 0.10}

    @staticmethod
    def cell(value, spread=0.01):
        return {"value": value, "q1": value - spread / 2, "q3": value + spread / 2}

    def test_verdicts(self):
        cell = self.cell
        assert verdict(self.ROW, cell(10), cell(10.9)) == "ok"
        assert verdict(self.ROW, cell(10), cell(11.5)) == "worse"
        assert verdict(self.ROW, cell(10), cell(5)) == "ok"
        # Spread wider than the bound: cannot call it unchanged.
        assert verdict(self.ROW, cell(10, 3), cell(10.2, 3)) == "unresolved"
        assert verdict(self.ROW, cell(10, 3), cell(12, 3)) == "unresolved"
        assert verdict(self.ROW, cell(10, 3), cell(15, 3)) == "worse"
        assert verdict(self.ROW, {"value": 10}, {"value": 10}) == "unresolved"
        higher = {"name": "throughput_qps", "better": "higher", "bound": 0.1}
        assert verdict(higher, cell(60), cell(50)) == "worse"
        assert verdict(higher, cell(60), cell(70)) == "ok"
        setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
        assert verdict(setup, cell(0.01, 0), cell(0.05, 0)) == "ok"  # < floor
        assert verdict(setup, cell(0.2, 0), cell(0.3, 0)) == "worse"
        failed = {"name": "failed_share", "better": "lower", "bound": 0.0}
        assert verdict(failed, {"value": 0}, {"value": 0}) == "ok"
        assert verdict(failed, {"value": 0}, {"value": 0.01}) == "worse"

    def test_exit_code_and_rows(self, spec, smoke, tmp_path, capsys):
        before = copy.deepcopy(smoke[0])
        for entry in before["workloads"].values():
            for cell in entry["end_to_end"].values():
                cell.update(q1=cell["value"] * 0.99, q3=cell["value"] * 1.01)
        after = copy.deepcopy(before)
        path_a, path_b = tmp_path / "A.json", tmp_path / "B.json"
        path_a.write_text(json.dumps(before))
        path_b.write_text(json.dumps(after))
        assert compare(str(path_a), str(path_b), spec) == 0
        table = capsys.readouterr().out
        n_rows = sum(
            len(row["workloads"]) for row in catalogue.end_to_end_rows(spec)
        )
        assert len(table.strip().splitlines()) == 1 + n_rows
        assert "worse" not in table

        slow = after["workloads"]["dense"]["end_to_end"]["latency_p95_ms"]
        for key in ("value", "q1", "q3"):
            slow[key] *= 1.5
        path_b.write_text(json.dumps(after))
        assert main(["--compare", str(path_a), str(path_b)]) == 1
        worse = [
            line for line in capsys.readouterr().out.splitlines()
            if line.endswith("worse")
        ]  # fmt: skip
        assert len(worse) == 1 and worse[0].split()[:2] == [
            "latency_p95_ms", "dense",
        ]  # fmt: skip
