"""Every example script must run cleanly and print its key results."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, *args):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "12.382" in out
        assert "Table 4" in out
        assert "Top 5 shots" in out

    def test_western_shootout(self):
        out = run_example("western_shootout.py")
        assert "100% of a perfect match" in out
        assert "western" in out

    def test_airplane_altitude(self):
        out = run_example("airplane_altitude.py")
        assert "Formula (C)" in out
        assert "Paper-mode (inner-join) result identical: True" in out

    def test_gulf_war_browse(self):
        out = run_example("gulf_war_browse.py")
        assert "Browsing query" in out
        assert "Strike pattern per scene" in out

    def test_sql_comparison_quick(self):
        out = run_example("sql_comparison.py", "--quick")
        assert "Table 5" in out
        assert "Table 6" in out
        assert "Shape check" in out

    def test_library_tour(self):
        out = run_example("library_tour.py")
        assert "results identical after reload: True" in out
        assert "plan for:" in out

    def test_analyzer_pipeline(self):
        out = run_example("analyzer_pipeline.py")
        assert "boundary recall 100%" in out
        assert "Query 1 over the analyzer's shots" in out
