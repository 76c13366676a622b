"""Tests for the command-line front end."""

import pytest

from repro import errors
from repro.cli import EXIT_CODES, exit_code_for, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_type1(self, capsys):
        code, out, __ = run_cli(capsys, "classify", "$P1 and eventually $P2")
        assert code == 0
        assert "TYPE1" in out

    def test_conjunctive(self, capsys):
        code, out, __ = run_cli(
            capsys,
            "classify",
            "exists x . present(x) and [h := f(x)] eventually g(x) > h",
        )
        assert code == 0
        assert "CONJUNCTIVE" in out

    def test_parse_error_reported(self, capsys):
        code, __, err = run_cli(capsys, "classify", "and and")
        assert code == EXIT_CODES[errors.HTLSyntaxError]
        assert "error:" in err


class TestRun:
    def test_casablanca_query1(self, capsys):
        code, out, __ = run_cli(
            capsys,
            "run",
            "--ranked",
            "atomic('Man-Woman') and eventually atomic('Moving-Train')",
        )
        assert code == 0
        assert "12.382" in out
        assert out.index("12.382") < out.index("11.047")

    def test_top_k(self, capsys):
        code, out, __ = run_cli(
            capsys,
            "run",
            "--top",
            "2",
            "atomic('Moving-Train')",
        )
        assert code == 0
        assert "Top 2 segments" in out
        assert "segment 9" in out

    def test_named_level(self, capsys):
        code, out, __ = run_cli(
            capsys,
            "run",
            "--dataset",
            "western",
            "--level",
            "frame",
            "exists y . on_floor(y)",
        )
        assert code == 0
        assert "level 4 (frame)" in out

    def test_unknown_atomic_is_clean_error(self, capsys):
        code, __, err = run_cli(capsys, "run", "atomic('nope')")
        assert code == EXIT_CODES[errors.UnsupportedFormulaError]
        assert "no similarity list" in err


class TestSql:
    def test_script_shown(self, capsys):
        code, out, __ = run_cli(capsys, "sql", "$P1 and $P2", "--size", "50")
        assert code == 0
        assert "INSERT INTO" in out
        assert "generated SQL" in out

    def test_execute(self, capsys):
        code, out, __ = run_cli(
            capsys, "sql", "eventually $P1", "--size", "40", "--execute"
        )
        assert code == 0
        assert "result:" in out

    def test_unsupported_class_reported(self, capsys):
        code, __, err = run_cli(capsys, "sql", "exists x . eventually present(x)")
        assert code == EXIT_CODES[errors.UnsupportedFormulaError]
        assert "type (1)" in err


class TestExitCodes:
    def test_distinct_and_nonzero(self):
        codes = list(EXIT_CODES.values())
        assert len(set(codes)) == len(codes)
        assert all(code != 0 for code in codes)
        assert 2 not in codes  # reserved by argparse for usage errors

    def test_most_specific_class_wins(self):
        assert exit_code_for(
            errors.HTLSyntaxError("boom")
        ) == EXIT_CODES[errors.HTLSyntaxError]
        assert exit_code_for(
            errors.BudgetExceededError("slow")
        ) == EXIT_CODES[errors.BudgetExceededError]

    def test_unmapped_subclass_falls_back_to_family(self):
        class CustomModelError(errors.ModelError):
            pass

        assert exit_code_for(CustomModelError("x")) == EXIT_CODES[
            errors.ModelError
        ]


class TestValidation:
    def test_negative_top_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--top", "-1", "atomic('Moving-Train')"])
        assert excinfo.value.code == 2

    def test_zero_level_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--level", "0", "atomic('Moving-Train')"])
        assert excinfo.value.code == 2

    def test_across_requires_top(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--across", "atomic('Moving-Train')"])
        assert excinfo.value.code == 2

    def test_lenient_requires_across(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--lenient", "atomic('Moving-Train')"])
        assert excinfo.value.code == 2

    def test_bad_deadline_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--deadline-ms", "0", "atomic('Moving-Train')"])
        assert excinfo.value.code == 2


class TestResilienceFlags:
    def test_across_ranks_all_videos(self, capsys):
        code, out, __ = run_cli(
            capsys,
            "run",
            "--dataset",
            "western",
            "--across",
            "--top",
            "3",
            "exists x . present(x)",
        )
        assert code == 0
        assert "segments across" in out

    def test_deadline_exceeded_maps_to_budget_code(self, capsys):
        # A 1-step budget cannot cover any real query.
        code, __, err = run_cli(
            capsys,
            "run",
            "--max-steps",
            "1",
            "atomic('Man-Woman') and eventually atomic('Moving-Train')",
        )
        assert code == EXIT_CODES[errors.BudgetExceededError]
        assert "error:" in err

    def test_lenient_across_survives_budget(self, capsys):
        code, out, __ = run_cli(
            capsys,
            "run",
            "--dataset",
            "western",
            "--across",
            "--top",
            "2",
            "--lenient",
            "--max-steps",
            "1",
            "exists x . present(x)",
        )
        assert code == 0
        assert "partial result" in out


class TestExplainPlan:
    QUERY = "exists x . (present(x) and (eventually type(x) = 'person'))"

    def test_plan_is_printed_without_evaluating(self, capsys):
        code, out, __ = run_cli(capsys, "explain", "--plan", self.QUERY)
        assert code == 0
        assert "estimated cost:" in out and "visits" in out
        assert " ms" not in out and "observed" not in out
        # One plan_for and no evaluation behind it: nothing hit the cache.
        assert "planner: 1 plan(s) built, 0 cache hit(s)" in out

    def test_plan_json_carries_cost_in_units_only(self, capsys):
        import json

        code, out, __ = run_cli(
            capsys, "explain", "--plan", "--json", self.QUERY
        )
        assert code == 0
        assert set(json.loads(out)) == {
            "estimated_cost",
            "level",
            "signature",
            "tree",
        }


class TestTrace:
    def test_trace_renders_span_tree_and_reports(self, capsys):
        code, out, __ = run_cli(
            capsys,
            "trace",
            "eventually (exists x . present(x))",
            "--top",
            "2",
        )
        assert code == 0
        assert "(query)" in out
        assert "(video)" in out
        assert "(atom-sweep)" in out
        assert "Per-stage timing" in out
        assert "Top 2 segments" in out

    def test_trace_keeps_video_parentage(self, capsys):
        code, out, __ = run_cli(
            capsys,
            "trace",
            "exists x . present(x)",
            "--dataset",
            "western",
            "--top",
            "3",
        )
        assert code == 0
        assert "(video)" in out

    def test_trace_json_export(self, capsys):
        import json

        code, out, __ = run_cli(
            capsys,
            "trace",
            "exists x . present(x)",
            "--top",
            "1",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"metrics", "trace"}
        assert payload["trace"]["spans"]["kind"] == "query"
        assert "stage_breakdown" in payload["trace"]
        assert set(payload["metrics"]) == {"counters"}
        assert isinstance(payload["metrics"]["counters"], dict)

    def test_trace_parse_error_reported(self, capsys):
        code, __, err = run_cli(capsys, "trace", "and and")
        assert code == EXIT_CODES[errors.HTLSyntaxError]
        assert "error:" in err


class TestDatasets:
    def test_listing(self, capsys):
        code, out, __ = run_cli(capsys, "datasets")
        assert code == 0
        assert "casablanca" in out
        assert "gulf-war" in out
        assert "Moving-Train" in out


class TestStore:
    def test_save_verify_load_workflow(self, capsys, tmp_path):
        root = str(tmp_path / "store")
        code, out, __ = run_cli(
            capsys, "store", "save", "--dir", root, "--dataset", "western"
        )
        assert code == 0
        assert "saved snap-000001" in out

        code, out, __ = run_cli(capsys, "store", "verify", "--dir", root)
        assert code == 0
        assert "store OK" in out

        code, out, __ = run_cli(capsys, "store", "load", "--dir", root)
        assert code == 0
        assert "loaded snap-000001: " in out

    def test_load_reports_recovery_actions(self, capsys, tmp_path):
        import os

        root = str(tmp_path / "store")
        run_cli(capsys, "store", "save", "--dir", root)
        run_cli(capsys, "store", "save", "--dir", root)
        victim = os.path.join(
            root, "snapshots", "snap-000002", "videos.json"
        )
        data = open(victim, "rb").read()
        open(victim, "wb").write(data[: len(data) // 2])

        code, out, __ = run_cli(capsys, "store", "verify", "--dir", root)
        assert code == 1
        assert "DAMAGED" in out

        code, out, __ = run_cli(capsys, "store", "load", "--dir", root)
        assert code == 0
        assert "loaded snap-000001" in out
        assert "recovery: quarantined" in out

        code, out, __ = run_cli(capsys, "store", "repair", "--dir", root)
        assert code == 0
        assert "repaired" in out
        code, out, __ = run_cli(capsys, "store", "verify", "--dir", root)
        assert code == 0

    def test_empty_store_maps_to_store_exit_code(self, capsys, tmp_path):
        code, __, err = run_cli(
            capsys, "store", "load", "--dir", str(tmp_path / "nothing")
        )
        assert code == EXIT_CODES[errors.StoreError]
        assert "error:" in err

    def test_corrupt_store_maps_to_corruption_exit_code(
        self, capsys, tmp_path
    ):
        import os

        root = str(tmp_path / "store")
        run_cli(capsys, "store", "save", "--dir", root)
        victim = os.path.join(
            root, "snapshots", "snap-000001", "videos.json"
        )
        data = open(victim, "rb").read()
        open(victim, "wb").write(data[: len(data) // 2])
        code, __, err = run_cli(capsys, "store", "load", "--dir", root)
        assert code == EXIT_CODES[errors.StoreCorruptionError]
        assert "no intact snapshot" in err

    def test_store_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["store"])
        assert excinfo.value.code == 2


class TestShard:
    def test_split_then_info_workflow(self, capsys, tmp_path):
        root = str(tmp_path / "layout")
        code, out, __ = run_cli(
            capsys, "shard", "split", "--dir", root,
            "--dataset", "western", "--shards", "2",
        )
        assert code == 0
        assert "2 shard(s)" in out
        assert "shard-000" in out and "shard-001" in out
        code, out, __ = run_cli(capsys, "shard", "info", "--dir", root)
        assert code == 0
        assert "round-robin" in out
        assert "4 video(s)" in out

    def test_info_stats_prints_index_sizes(self, capsys, tmp_path):
        root = str(tmp_path / "layout")
        run_cli(
            capsys, "shard", "split", "--dir", root,
            "--dataset", "western", "--shards", "2",
        )
        code, out, __ = run_cli(
            capsys, "shard", "info", "--dir", root, "--stats"
        )
        assert code == 0
        assert "segment(s)" in out
        assert "profile(s)" in out

    def test_run_against_shard_dir(self, capsys, tmp_path):
        root = str(tmp_path / "layout")
        run_cli(
            capsys, "shard", "split", "--dir", root,
            "--dataset", "western", "--shards", "2",
        )
        code, out, __ = run_cli(
            capsys, "run", "--across", "--top", "3", "--shard-dir", root,
            "exists x . present(x)",
        )
        assert code == 0
        assert "scatter-gather over 2 shard(s)" in out
        assert "Top 3 segments across 4 videos" in out

    def test_run_with_inline_shards_matches_unsharded(self, capsys):
        query = "atomic('Man-Woman') and eventually atomic('Moving-Train')"
        code, plain, __ = run_cli(
            capsys, "run", "--across", "--top", "3", query
        )
        assert code == 0
        code, sharded, __ = run_cli(
            capsys, "run", "--across", "--top", "3", "--shards", "2", query
        )
        assert code == 0
        # Identical ranking lines; the sharded run adds only its header.
        assert sharded.splitlines()[1:] == plain.splitlines()

    def test_missing_layout_maps_to_shard_exit_code(self, capsys, tmp_path):
        code, __, err = run_cli(
            capsys, "run", "--across", "--top", "2",
            "--shard-dir", str(tmp_path / "nothing"), "atomic('P1')",
        )
        assert code == EXIT_CODES[errors.ShardError] == 27
        assert "no shard layout" in err

    def test_shards_require_across(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--top", "2", "--shards", "2", "atomic('P1')"])
        assert excinfo.value.code == 2

    def test_shards_and_shard_dir_mutually_exclusive(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--across", "--top", "2", "--shards", "2",
                "--shard-dir", str(tmp_path), "atomic('P1')",
            ])
        assert excinfo.value.code == 2

    def test_shard_dir_rejects_named_level(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--across", "--top", "2", "--shard-dir",
                str(tmp_path), "--level", "scene", "atomic('P1')",
            ])
        assert excinfo.value.code == 2

    def test_zero_shards_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--across", "--top", "2", "--shards", "0", "x"])
        assert excinfo.value.code == 2

    def test_shard_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["shard"])
        assert excinfo.value.code == 2

    def test_shard_error_exit_code_is_distinct(self):
        codes = list(EXIT_CODES.values())
        assert len(set(codes)) == len(codes)
        assert exit_code_for(errors.ShardError("x")) == 27


class TestServe:
    def test_serves_queries_and_reports_ledger(self, capsys):
        code, out, err = run_cli(
            capsys,
            "serve",
            "--dataset",
            "western",
            "--workers",
            "2",
            "--top",
            "3",
            "--level",
            "4",
            "exists x . present(x)",
            "interactive:exists x . present(x)",
        )
        assert code == 0
        assert "completed" in out
        assert "[interactive]" in out
        assert "served 2 request(s)" in err
        assert "2 completed" in err

    def test_json_payloads(self, capsys):
        import json

        code, out, __ = run_cli(
            capsys,
            "serve",
            "--dataset",
            "western",
            "--json",
            "--level",
            "4",
            "exists x . present(x)",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[0]["status"] == "completed"
        assert lines[0]["sla"] == "standard"
        stats = lines[-1]["stats"]
        assert stats["conserved"] is True
        assert stats["admitted"] == 1

    def test_store_and_shard_dir_mutually_exclusive(self, capsys, tmp_path):
        code, __, err = run_cli(
            capsys,
            "serve",
            "--shard-dir",
            str(tmp_path),
            "--store",
            str(tmp_path),
            "x",
        )
        assert code == EXIT_CODES[errors.ServeError]
        assert "mutually exclusive" in err

    def test_syntax_error_maps_to_htl_code(self, capsys):
        code, __, err = run_cli(
            capsys, "serve", "--dataset", "western", "and and"
        )
        assert code == EXIT_CODES[errors.HTLSyntaxError]
        assert "error:" in err

    def test_serve_exit_codes_are_distinct(self):
        codes = list(EXIT_CODES.values())
        assert len(set(codes)) == len(codes)
        assert exit_code_for(errors.ServeError("x")) == 28
        assert exit_code_for(errors.ServeRejected("x")) == 29


class TestIngest:
    def write_ops_file(self, tmp_path):
        import json

        from repro.ingest import AddAnnotations, AddVideo, encode_op
        from repro.model.metadata import SegmentMetadata, make_object
        from repro.workloads.synthetic import random_similarity_list

        import random

        segments = [
            SegmentMetadata(objects=[make_object("o1", "person")])
            for __ in range(3)
        ]
        operations = [
            AddVideo(name="live0", segments=tuple(segments)),
            AddAnnotations(
                video="live0",
                predicate="P9",
                sim=random_similarity_list(3, rng=random.Random(5)),
            ),
        ]
        ops_file = tmp_path / "ops.json"
        ops_file.write_text(json.dumps([encode_op(op) for op in operations]))
        return str(ops_file)

    def test_init_append_checkpoint_recover_workflow(self, capsys, tmp_path):
        root = str(tmp_path / "ingest")
        code, out, __ = run_cli(
            capsys, "ingest", "init", "--dir", root, "--dataset", "western"
        )
        assert code == 0
        assert "initialised ingest directory" in out

        ops_file = self.write_ops_file(tmp_path)
        code, out, __ = run_cli(
            capsys, "ingest", "append", "--dir", root, "--ops", ops_file
        )
        assert code == 0
        assert "appended 2 record(s) (sequences 1..2)" in out
        assert "live0" in out

        code, out, __ = run_cli(capsys, "ingest", "checkpoint", "--dir", root)
        assert code == 0
        assert "checkpointed snap-000002" in out
        assert "through WAL sequence 2" in out

        code, out, __ = run_cli(capsys, "ingest", "recover", "--dir", root)
        assert code == 0
        assert "recovered snap-000002" in out
        assert "0 WAL record(s) replayed" in out

    def test_append_survives_recovery_without_checkpoint(
        self, capsys, tmp_path
    ):
        root = str(tmp_path / "ingest")
        run_cli(capsys, "ingest", "init", "--dir", root)
        ops_file = self.write_ops_file(tmp_path)
        run_cli(capsys, "ingest", "append", "--dir", root, "--ops", ops_file)
        code, out, __ = run_cli(capsys, "ingest", "recover", "--dir", root)
        assert code == 0
        assert "2 WAL record(s) replayed" in out
        assert "1 video(s)" in out

    def test_init_refuses_existing_directory(self, capsys, tmp_path):
        root = str(tmp_path / "ingest")
        run_cli(capsys, "ingest", "init", "--dir", root)
        code, __, err = run_cli(capsys, "ingest", "init", "--dir", root)
        assert code == EXIT_CODES[errors.IngestError] == 30
        assert "already holds" in err

    def test_corrupt_wal_maps_to_corruption_exit_code(self, capsys, tmp_path):
        import os

        root = str(tmp_path / "ingest")
        run_cli(capsys, "ingest", "init", "--dir", root)
        ops_file = self.write_ops_file(tmp_path)
        run_cli(capsys, "ingest", "append", "--dir", root, "--ops", ops_file)
        wal_path = os.path.join(root, "wal.log")
        blob = bytearray(open(wal_path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(wal_path, "wb") as handle:
            handle.write(blob)
        code, __, err = run_cli(capsys, "ingest", "recover", "--dir", root)
        assert code == EXIT_CODES[errors.WALCorruptionError] == 31
        assert "error:" in err

    def test_bad_ops_file_is_a_typed_error(self, capsys, tmp_path):
        root = str(tmp_path / "ingest")
        run_cli(capsys, "ingest", "init", "--dir", root)
        junk = tmp_path / "junk.json"
        junk.write_text("{not json")
        code, __, err = run_cli(
            capsys, "ingest", "append", "--dir", root, "--ops", str(junk)
        )
        assert code == EXIT_CODES[errors.IngestError]
        assert "not JSON" in err

    def test_ingest_exit_codes_are_distinct(self):
        codes = list(EXIT_CODES.values())
        assert len(set(codes)) == len(codes)
        assert exit_code_for(errors.IngestError("x")) == 30
        assert exit_code_for(errors.WALCorruptionError("x")) == 31


class TestSigint:
    def test_interrupt_mid_serve_drains_and_exits_130(
        self, capsys, monkeypatch
    ):
        from repro import cli

        def interrupted_lines(arguments):
            yield "exists x . present(x)"
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_serve_lines", interrupted_lines)
        code, out, err = run_cli(
            capsys, "serve", "--dataset", "western", "--level", "4"
        )
        assert code == 130
        assert "draining" in err
        # The admitted request still reports a terminal outcome: the
        # drain finished it, nothing was dropped.
        assert "#1" in out
        assert "served 1 request(s)" in err

    def test_interrupt_elsewhere_is_clean(self, capsys, monkeypatch):
        from repro import cli

        def boom(arguments):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_datasets", boom)
        code, __, err = run_cli(capsys, "datasets")
        assert code == 130
        assert "interrupted" in err
        assert "Traceback" not in err
