"""The benchmark's pinned graphs still mine to the digests it gates on.

``perfbench/run.py`` refuses a run whose ``MiningResult.digest()`` differs
from the one ``perfbench/baseline.json`` records for the workload's graph.
This test mines each workload's pinned graph once, built and configured
exactly as the benchmark does through ``perfbench/workloads.py``, so a change
that moves a digest fails here instead of only in the benchmark.
``perfbench/`` is only read: the module is loaded without writing bytecode.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core import SpiderMine, SpiderMineConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    previous = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = previous
        sys.modules.pop(spec.name, None)
    return module.WORKLOADS


WORKLOADS = _load_workloads()
BASELINE = json.loads((PERFBENCH / "baseline.json").read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_graph_mines_to_the_baseline_digest(name):
    workload = WORKLOADS[name]
    expected = BASELINE[name]["digests"][str(workload.graph_seed)]
    graph, _planted = workload.build(workload.graph_seed)
    result = SpiderMine(graph, SpiderMineConfig(**workload.config)).mine()
    assert result.digest() == expected
