"""The repo's end-to-end benchmark: ``python -m benchmarks.e2e``.

Five workloads, nine end-to-end metrics, an outside-in layer trace and a
``--compare`` gate; ``BENCHMARK.json`` at the repo root describes it and
``README.md`` beside this file explains every choice.

The benchmark drives the program through its public API only.  When the
``repro`` package is not already importable (no ``PYTHONPATH=src``, no
install) the checkout's own ``src/`` is put on the path, so the one
command works from a bare checkout.
"""

import importlib.util
import sys
from pathlib import Path

#: The checkout root (``benchmarks/e2e/__init__.py`` → two levels up).
ROOT = Path(__file__).resolve().parents[2]

if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(ROOT / "src"))
