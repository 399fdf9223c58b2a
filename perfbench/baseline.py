"""Write ``perfbench/baseline.json``: the traced per-layer baseline of this tree.

    python3 perfbench/baseline.py

Runs ``run.py --trace 1`` on every workload, once on its pinned graph and
once on a held-out graph (generator seed + 1), and records per workload:
the result digests, every per-layer metric, which work counts repeated
exactly across the two traced passes, and whether the workload's intended
layer mix holds on both graphs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1

#: workload -> (metric, comparison, threshold, what it asserts)
MIX_RULES = {
    "gid5-mine": ("mix.codes_matcher_growth_frac", ">", 0.5,
                  "canonical codes, matcher and growth cover over half of the mine"),
    "ba10k-mine": ("mix.stage1_frac", ">=", 0.8,
                   "Stage I (SpiderMiner.mine) takes at least 80% of the mine"),
    "catalog-serve": ("load.mining_calls", "==", 0,
                      "no call into core.spider_miner or core.growth during the load"),
}


def holds(value: float, op: str, threshold: float) -> bool:
    return {">": value > threshold, ">=": value >= threshold, "==": value == threshold}[op]


def traced(workload: str, graph_seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", str(seconds), "--trace", "1",
               "--graph-seed", str(graph_seed), "--no-baseline-check"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{workload} g{graph_seed} failed:\n{done.stderr}")
    last = json.loads(done.stdout.strip().splitlines()[-1])
    if not last["correct"]:
        raise SystemExit(f"{workload} g{graph_seed}: outputs incorrect:\n{done.stdout}")
    detail = HERE / "out" / f"trace-{workload}-g{graph_seed}-s{SEED}.json"
    return json.loads(detail.read_text())


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from run import provenance
    from workloads import WORKLOADS

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"command": "python3 perfbench/baseline.py", "seed": SEED,
           "provenance": provenance(), "workloads": {}}
    for name, wl in WORKLOADS.items():
        metric, op, threshold, claim = MIX_RULES[name]
        runs = {}
        for graph_seed in (wl.graph_seed, wl.graph_seed + 1):
            print(f"{name} graph seed {graph_seed} ...", flush=True)
            runs[graph_seed] = traced(name, graph_seed, seconds)
        pinned = runs[wl.graph_seed]
        out["workloads"][name] = {
            "graph_seed": wl.graph_seed,
            "held_out_graph_seed": wl.graph_seed + 1,
            "digests": {str(g): r["digest"] for g, r in runs.items()},
            "untraced": pinned["untraced"],
            "per_layer": pinned["metrics"],
            "exact_counts": sorted(k for k, v in pinned["exact_counts"].items() if v),
            "inexact_counts": sorted(k for k, v in pinned["exact_counts"].items() if not v),
            "mix": {
                "claim": claim, "metric": metric, "rule": f"{op} {threshold}",
                **{("pinned" if g == wl.graph_seed else "held_out"): {
                    "value": r["metrics"][metric],
                    "holds": holds(r["metrics"][metric], op, threshold)}
                   for g, r in runs.items()},
            },
            "held_out_per_layer": runs[wl.graph_seed + 1]["metrics"],
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    for name, entry in out["workloads"].items():
        mix = entry["mix"]
        print(f"{name}: {mix['metric']} pinned {mix['pinned']['value']:.3f} "
              f"({mix['pinned']['holds']}), held-out {mix['held_out']['value']:.3f} "
              f"({mix['held_out']['holds']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
