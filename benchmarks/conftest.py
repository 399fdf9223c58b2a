"""Shared infrastructure for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper.  The
runs are scaled down (graph sizes, numbers of sweep points) so the whole
harness finishes in minutes on a laptop, but every module exposes its
parameters at the top so the paper's full scale can be requested.

Benchmarks print the regenerated rows/series to stdout (run pytest with
``-s`` to see them) and write JSON records.  A plain test run writes them to
the git-ignored ``benchmarks/out/``, so running the suite never rewrites
tracked files with timing noise; ``pytest --write-results`` writes to the
tracked ``benchmarks/results/`` that EXPERIMENTS.md cites.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"
SCRATCH_RESULTS_DIR = Path(__file__).resolve().parent / "out"


@pytest.fixture(scope="session")
def results_dir(pytestconfig) -> Path:
    target = RESULTS_DIR if pytestconfig.getoption("write_results") else SCRATCH_RESULTS_DIR
    target.mkdir(parents=True, exist_ok=True)
    return target


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(name): marks a benchmark as regenerating a specific paper figure/table"
    )
