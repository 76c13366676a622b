"""The CI workflow names only what exists and sweeps seeds only where
they are read.

``.github/workflows/ci.yml`` is read as text (the tier-1 job installs no
YAML parser): a job is the block under a two-space ``name:`` header.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: A repo path as a shell command names it: a top-level directory of the
#: repo, a slash, path characters; not part of a longer path.
REPO_PATH = re.compile(r"(?<![\w./-])((?:benchmarks|src|tests)/[\w./-]*\w)")
#: ``python -m module`` for the repo's own packages.
REPO_MODULE = re.compile(r"-m ((?:benchmarks|repro|tests)(?:\.\w+)*)")
JOB_HEADER = re.compile(r"^  ([\w-]+):\s*$")


def workflow_jobs():
    """Job name → the text of its block."""
    jobs = {}
    name = None
    for line in WORKFLOW.read_text().split("jobs:\n", 1)[1].splitlines():
        header = JOB_HEADER.match(line)
        if header:
            name = header.group(1)
            jobs[name] = []
        elif name is not None:
            jobs[name].append(line)
    return {name: "\n".join(lines) for name, lines in jobs.items()}


def module_path(module):
    parts = module.split(".")
    base = ROOT / "src" if parts[0] == "repro" else ROOT
    path = base.joinpath(*parts)
    return path.with_suffix(".py") if not path.is_dir() else path


def reads_chaos_seed(path):
    return "CHAOS_SEED" in path.read_text()


def test_every_named_path_exists():
    text = WORKFLOW.read_text()
    paths = REPO_PATH.findall(text)
    modules = REPO_MODULE.findall(text)
    assert paths and modules
    missing = [path for path in paths if not (ROOT / path).exists()]
    missing += [
        module for module in modules if not module_path(module).exists()
    ]
    assert not missing, missing


def test_seed_sweeps_run_exactly_the_files_that_read_the_seed():
    """A job that sets ``CHAOS_SEED`` runs only test files that read it,
    and every test file that reads it runs under the sweep."""
    swept = set()
    for name, block in workflow_jobs().items():
        if "CHAOS_SEED" not in block:
            continue
        named = [ROOT / path for path in REPO_PATH.findall(block)]
        files = {
            test
            for path in named
            for test in (
                sorted(path.rglob("test_*.py")) if path.is_dir() else [path]
            )
        }
        assert files, f"job {name!r} sets CHAOS_SEED but runs no test file"
        ignoring = sorted(
            str(path.relative_to(ROOT))
            for path in files
            if not reads_chaos_seed(path)
        )
        assert not ignoring, f"job {name!r} sweeps seeds over {ignoring}"
        swept |= files
    seeded = {
        path
        for path in (ROOT / "tests").rglob("test_*.py")
        if reads_chaos_seed(path) and path != Path(__file__).resolve()
    }
    assert swept == seeded
