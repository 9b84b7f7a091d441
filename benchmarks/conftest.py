"""Shared fixtures for the benchmark suite.

Each benchmark module regenerates one table/figure of the paper's evaluation
section.  The benchmark measures the wall-clock cost of the full experiment,
and the rendered text table (the same series the paper plots) is echoed to
stdout and written to a per-session temp dir, so a plain test run leaves the
committed tables alone.  Set ``REPRO_BENCH_RECORD=1`` to rewrite the tracked
tables under ``benchmarks/output/`` instead:

    REPRO_BENCH_RECORD=1 pytest benchmarks/ --benchmark-only -s

Set ``REPRO_BENCH_FULL=1`` to run the paper's full configuration (both cities,
all classifier families, heights 4-10); the default uses a reduced sweep that
exercises the same code paths in a fraction of the time.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent
_SRC = _ROOT.parent / "src"
for path in (str(_SRC), str(_ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from bench_utils import QUICK_HEIGHTS, bench_full, bench_record  # noqa: E402
from repro.experiments.runner import default_context, paper_context  # noqa: E402

OUTPUT_DIR = _ROOT / "output"


@pytest.fixture(scope="session")
def bench_context():
    """Experiment context shared by all benchmarks in one session."""
    if bench_full():
        return paper_context()
    return default_context(heights=QUICK_HEIGHTS)


@pytest.fixture(scope="session")
def output_dir(tmp_path_factory) -> Path:
    """The committed tables' directory under REPRO_BENCH_RECORD=1, else a temp dir."""
    if not bench_record():
        return tmp_path_factory.mktemp("bench_output")
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR
