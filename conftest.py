"""Repository-wide pytest options (loaded for every test path under the root)."""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--write-results",
        action="store_true",
        default=False,
        help="save the figure benchmarks' JSON records to the tracked "
        "benchmarks/results/ instead of the git-ignored benchmarks/out/",
    )
