"""End-to-end SpiderMine benchmark: one workload per call, one JSON line out.

    python3 perfbench/run.py --workload gid5-mine --seed 1 --seconds 10 --trace 0

Every workload follows the mine -> store -> serve lifecycle of ``repro.api``.
``--trace 0`` prints the end-to-end metrics declared in ``BENCHMARK.json``;
``--trace 1`` runs one untraced pass, then two traced passes with every layer
wrapped from outside (see ``tracing.py``), and prints the per-layer metrics.
Outputs are checked before any clock is trusted: all mines of a run must
share one result digest, which must equal the one ``baseline.json`` records
for the graph; the result is verified against the data graph; each expected
``/contains`` answer is re-derived by a direct subgraph search; and every
HTTP response must equal the facade's answer byte for byte.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Each run appends a provenance row to ``perfbench/out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"

#: set-ups per run; ``setup_s`` is their median (and, on ``catalog-serve``,
#: ``mine_s`` the median of the set-up mines)
SETUP_REPEATS = 5


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    @property
    def correct(self) -> bool:
        return not self.problems


class Mismatch(RuntimeError):
    """Output differed between runs of the same input: stop timing."""


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))]


def mine(graph, config: Dict[str, object]):
    from repro.core import SpiderMine, SpiderMineConfig

    return SpiderMine(graph, SpiderMineConfig(**config)).mine()


def store(graph, config: Dict[str, object], result, directory: Path) -> None:
    from repro.catalog.cache import RunCache
    from repro.core import SpiderMineConfig

    RunCache(directory).store_result(graph, SpiderMineConfig(**config), result)


def check_samples(tally: Tally, samples) -> None:
    for kind, _latency, ok, wrong, _done in samples:
        tally.check(ok, f"{kind}: {'wrong bytes' if wrong else 'failed request'}")


# ---------------------------------------------------------------------- #
# the untraced pass: every end-to-end metric
# ---------------------------------------------------------------------- #
def timed_pass(wl, graph_seed: int, seed: int, seconds: float, repeats: int,
               work: Path, tally: Tally) -> dict:
    from repro.api import open_catalog
    from serving import ServerProcess, closed_loop, median_rate, replay
    from workloads import build_requests, containment_checks, planted_recall, verify_result

    build_s = []
    for _ in range(repeats):
        started = time.perf_counter()
        graph, planted = wl.build(graph_seed)
        build_s.append(time.perf_counter() - started)

    mine_s, results = [], []

    def timed_mine() -> float:
        started = time.perf_counter()
        results.append(mine(graph, wl.config))
        mine_s.append(time.perf_counter() - started)
        return mine_s[-1]

    if wl.mine_timed:
        # One mine per run, whatever the host speed, so every run times the
        # same work; runs are compared through the digest in baseline.json.
        timed_mine()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    serve_setup_s, server = [], None
    try:
        for i in range(repeats):
            setup_mine_s = 0.0 if wl.mine_timed else timed_mine()
            started = time.perf_counter()
            store(graph, wl.config, results[-1], work / f"store{i}")
            if server is not None:
                server.stop()
            server = ServerProcess(ROOT, work / f"store{i}")
            serve_setup_s.append(setup_mine_s + time.perf_counter() - started)

        digests = sorted({r.digest() for r in results})
        if not tally.check(len(digests) == 1, f"{len(digests)} distinct digests"):
            raise Mismatch(f"mines of one input disagree: {digests}")
        problems = verify_result(graph, results[0], wl.config)
        tally.check(not problems, "; ".join(problems))

        catalog = open_catalog(work / f"store{repeats - 1}", read_only=True)
        requests = build_requests(catalog, seed)
        for ok, problem in containment_checks(catalog, requests):
            tally.check(ok, problem)
        check_samples(tally, replay(server.host, server.port, requests))  # warm-up
        serve_seconds = seconds * wl.serve_share
        cpu_before = server.cpu_seconds()
        samples, serve_start = closed_loop(server.host, server.port, requests,
                                           serve_seconds)
        serve_cpu_s = server.cpu_seconds() - cpu_before
        check_samples(tally, samples)
        if not wl.mine_timed:
            peak_rss_mb = server.peak_rss_mb()
        server_stats = server.get_json("/stats")
    finally:
        if server is not None:
            server.stop()

    result = results[0]
    latencies = [s[1] for s in samples]
    contains = [s[1] for s in samples if s[0] == "contains"]
    metrics = {
        "mine_s": statistics.median(mine_s),
        "setup_s": statistics.median(build_s) + statistics.median(serve_setup_s),
        "peak_rss_mb": peak_rss_mb,
        "largest_vertices": result.largest_size_vertices,
        "topk_vertices": sum(p.num_vertices for p in result.patterns),
        "serve_cpu_ms": 1000.0 * serve_cpu_s / max(1, sum(1 for s in samples if s[2])),
        "serve_rps": median_rate(samples, serve_start, serve_seconds),
        "req_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "req_p99_ms": 1000.0 * percentile(latencies, 0.99),
        "contains_p50_ms": 1000.0 * percentile(contains, 0.50),
    }
    return {
        "requests": requests,
        "digest": digests[0],
        "planted_recall": planted_recall(result, planted),
        "server_stats": server_stats,
        "metrics": metrics,
        "requests_timed": len(samples),
    }


# ---------------------------------------------------------------------- #
# the traced passes: every per-layer metric
# ---------------------------------------------------------------------- #
def traced_pass(wl, graph_seed: int, requests, work: Path, tally: Tally,
                expected_digest: str):
    from repro.api import open_catalog
    from serving import replay
    from tracing import Recorder, traced

    recorder = Recorder()
    with traced(recorder):
        graph, _planted = wl.build(graph_seed)
        if wl.mine_timed:
            recorder.phase = "mine"
        result = mine(graph, wl.config)
        recorder.phase = "setup"
        store(graph, wl.config, result, work)
        catalog = open_catalog(work, read_only=True)
        handle = catalog.serve(port=0, background=True)
        try:
            recorder.phase = "warmup"
            check_samples(tally, replay(handle.host, handle.port, requests))
            recorder.phase = "load"
            before = catalog.stats.to_dict()
            check_samples(tally, replay(handle.host, handle.port, requests))
            index = {k: v - before[k] for k, v in catalog.stats.to_dict().items()}
        finally:
            handle.close()
        recorder.phase = "done"
        gc.collect()  # settle matcher stats folded in on collection
    if not tally.check(result.digest() == expected_digest, "traced digest differs"):
        raise Mismatch("traced mine changed the result digest")
    return recorder, index


def layer_metrics(wl, recorder, index: Dict[str, int]):
    """Per-layer metrics of one traced pass, plus that pass's traced mine time."""
    from repro.core import SpiderMineConfig
    from tracing import aggregate, covered_seconds

    work_phases = ("mine", "load")
    rows = aggregate(recorder.spans, work_phases)
    setup_rows = aggregate(recorder.spans, ("setup",))
    # The matcher serves both mining and queries: count it in the workload's
    # own timed phase only, so the mining workloads' serving tail stays out.
    primary = ("mine",) if wl.mine_timed else ("load",)
    matcher_rows = aggregate(recorder.spans, primary)
    mine_phase = "mine" if wl.mine_timed else "setup"
    mine_row = aggregate(recorder.spans, (mine_phase,)).get("mine", {"s": 0.0})

    def row(name: str, key: str, source=rows) -> float:
        return source.get(name, {}).get(key, 0)

    def count(name: str, phases=work_phases) -> int:
        return sum(v for (phase, n), v in recorder.counts.items()
                   if n == name and phase in phases)

    grows = sorted(s for s in recorder.spans if s[1] == "growth.grow" and s[6] == "mine")
    stage2_grows = SpiderMineConfig(**wl.config).growth_iterations
    freq_calls = row("support.is_frequent", "calls")
    code_calls = row("canonical.code", "calls")
    traced_mine_s = row("mine", "s")
    distinct = sum(len(recorder.codes.get(p, ())) for p in work_phases)
    metrics = {
        "mine.s": traced_mine_s,
        "spider_miner.mine.s": row("spider_miner.mine", "s"),
        "spider_miner.mine.self_s": row("spider_miner.mine", "self_s"),
        "spider_miner.spiders": count("spider_miner.spiders"),
        "support.is_frequent.calls": freq_calls,
        "support.is_frequent.s": row("support.is_frequent", "s"),
        "support.is_frequent.self_s": row("support.is_frequent", "self_s"),
        "support.is_frequent.accept_frac":
            count("support.is_frequent.accepted") / freq_calls if freq_calls else 0.0,
        "overlap.conflict_graph.calls": row("overlap.conflict_graph", "calls"),
        "overlap.conflict_graph.s": row("overlap.conflict_graph", "s"),
        "overlap.conflict_graph.edges": count("overlap.conflict_graph.edges"),
        "algorithms.mis_greedy.calls": row("algorithms.mis_greedy", "calls"),
        "algorithms.mis_greedy.s": row("algorithms.mis_greedy", "s"),
        "algorithms.mis_exact.calls": row("algorithms.mis_exact", "calls"),
        "algorithms.mis_exact.s": row("algorithms.mis_exact", "s"),
        "canonical.code.calls": code_calls,
        "canonical.code.s": row("canonical.code", "s"),
        "canonical.code.distinct_frac": distinct / code_calls if code_calls else 0.0,
        "spider.head_code.calls": row("spider.head_code", "calls"),
        "spider.head_code.s": row("spider.head_code", "s"),
        "spider.head_code.self_s": row("spider.head_code", "self_s"),
        "matcher.constructs": count("matcher.constructs", primary),
        "matcher.s": row("matcher.construct", "s", matcher_rows)
        + row("matcher.search", "s", matcher_rows),
        "matcher.candidate_tests": count("matcher.candidate_tests", primary),
        "matcher.searches": count("matcher.searches", primary),
        "growth.seed_entries.s": row("growth.seed_entries", "s"),
        "growth.grow.calls": row("growth.grow", "calls"),
        "growth.grow.s": row("growth.grow", "s"),
        "growth.grow.self_s": row("growth.grow", "self_s"),
        "growth.occurrences_to_pattern.calls": row("growth.occurrences_to_pattern", "calls"),
        "growth.occurrences_to_pattern.s": row("growth.occurrences_to_pattern", "s"),
        "growth.occurrence_support.s": row("growth.occurrence_support", "s"),
        "stage1_s": row("spider_miner.mine", "s"),
        "stage2_s": row("growth.seed_entries", "s")
        + sum(s[3] - s[2] for s in grows[:stage2_grows]),
        "stage3_s": sum(s[3] - s[2] for s in grows[stage2_grows:]),
        "report_s": row("mine.report", "s"),
        "frozen.freeze.s": row("frozen.freeze", "s", setup_rows),
        "cache.store_result.s": row("cache.store_result", "s", setup_rows),
        "query.containing.calls": row("query.containing", "calls"),
        "query.containing.s": row("query.containing", "s"),
        "query.contains_batch.s": row("query.contains_batch", "s"),
        "query.top_k.s": row("query.top_k", "s"),
        "query.with_label.s": row("query.with_label", "s"),
        "index.seed_checks": index["seed_checks"],
        "index.seed_rejections": index["seed_rejections"],
        "index.reject_frac":
            index["seed_rejections"] / index["seed_checks"] if index["seed_checks"] else 0.0,
        "index.matcher_calls": index["matcher_calls"],
        "index.payload_loads": index["payload_loads"],
        "mix.stage1_frac": row("spider_miner.mine", "s") / traced_mine_s if traced_mine_s else 0.0,
        "mix.codes_matcher_growth_frac": covered_seconds(
            recorder.spans, ("canonical.", "spider.head_code", "matcher.", "growth."), ("mine",)
        ) / traced_mine_s if traced_mine_s else 0.0,
        "load.mining_calls": sum(
            1 for s in recorder.spans
            if s[6] == "load" and s[1].split(".")[0] in ("spider_miner", "growth", "mine")),
        "trace.spans": len(recorder.spans),
    }
    return metrics, mine_row["s"]


#: Client-observed serving metrics.  On a shared 2-core host they spread
#: 30-40% between runs (scheduler wake-up latency moves them while the
#: server's CPU per reply stays within ~10%), so they are reported with the
#: per-layer metrics, from the untraced pass, instead of being gated.
CLIENT_SIDE = ("serve_rps", "req_p50_ms", "req_p99_ms", "contains_p50_ms")

COUNT_SUFFIXES = (".calls", ".spiders", ".edges", ".constructs", ".candidate_tests",
                  ".searches", ".seed_checks", ".seed_rejections", ".matcher_calls",
                  ".payload_loads")


def is_count(name: str) -> bool:
    """Per-layer metrics that are work counts; the rest are times or ratios."""
    return name.endswith(COUNT_SUFFIXES) or name in ("load.mining_calls", "trace.spans")


def trace_run(wl, graph_seed, seed, seconds, work, tally, out_stem: Path):
    """One untraced pass, then two traced passes; their per-layer metrics.

    Times are the mean of the two traced passes.  Counts come from the first
    and are marked exact when the second repeats them to the unit.
    """
    from serving import histogram_p50_ms

    (work / "timed").mkdir()
    base = timed_pass(wl, graph_seed, seed, seconds, 1, work / "timed", tally)
    passes = []
    for i in range(2):
        recorder, index = traced_pass(wl, graph_seed, base["requests"],
                                      work / f"traced{i}", tally, base["digest"])
        metrics, traced_mine_s = layer_metrics(wl, recorder, index)
        passes.append((recorder, metrics, traced_mine_s))
        if i == 0:
            recorder.write(out_stem.with_suffix(".spans.jsonl.gz"))
    (_, m1, t1), (_, m2, t2) = passes
    counts = sorted(n for n in m1 if is_count(n) and n != "trace.spans")
    exact = {n: m1[n] == m2[n] for n in counts}
    metrics = {}
    for name in m1:
        metrics[name] = m1[name] if is_count(name) else (m1[name] + m2[name]) / 2.0
    for name in CLIENT_SIDE:
        metrics[name] = base["metrics"][name]
    histograms = base["server_stats"]["metrics"]["histograms"]
    for key in ("contains", "contains_batch", "top_k", "label"):
        hist = histograms.get(f"http.latency_seconds.{key}")
        metrics[f"server.{key}.p50_ms"] = histogram_p50_ms(hist) if hist else 0.0
    metrics["trace.overhead_frac"] = (t1 + t2) / 2.0 / base["metrics"]["mine_s"] - 1.0
    metrics["trace.counts_exact_frac"] = sum(exact.values()) / len(exact)
    detail = {
        "workload": wl.name, "graph_seed": graph_seed, "seed": seed,
        "digest": base["digest"], "metrics": metrics,
        "exact_counts": exact,
        "untraced": base["metrics"],
    }
    out_stem.with_suffix(".json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    return metrics, base


# ---------------------------------------------------------------------- #
# provenance and output
# ---------------------------------------------------------------------- #
def provenance() -> Dict[str, object]:
    commit = None
    if (ROOT / ".git").exists():  # a bare checkout must not report an enclosing repo
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    import numpy

    return {
        "host": platform.node(), "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
    }


def baseline_digest(workload: str, graph_seed: int) -> Optional[str]:
    try:
        entry = json.loads(BASELINE.read_text())["workloads"][workload]
    except (OSError, ValueError, KeyError):
        return None
    return entry.get("digests", {}).get(str(graph_seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--graph-seed", type=int, default=None,
                        help="replace the workload's pinned graph (held-out checks)")
    parser.add_argument("--no-baseline-check", action="store_true",
                        help="do not fail on a digest that differs from baseline.json "
                             "(used by baseline.py when it rewrites that file)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    graph_seed = wl.graph_seed if args.graph_seed is None else args.graph_seed

    # SIGTERM unwinds like an error, so servers stop and temporary catalogs go.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    tally = Tally()
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    stem = OUT / f"trace-{wl.name}-g{graph_seed}-s{args.seed}"
    try:
        if args.trace:
            values, base = trace_run(wl, graph_seed, args.seed, args.seconds, work, tally, stem)
        else:
            base = timed_pass(wl, graph_seed, args.seed, args.seconds, SETUP_REPEATS,
                              work, tally)
            values = dict(base["metrics"])
    except Mismatch as error:
        print(f"perfbench: {error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, tally.attempted),
                          "failed": max(1, tally.failed), "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Runs are compared through the digest committed in baseline.json: a
    # change that alters mining output on purpose must regenerate that file.
    reference = baseline_digest(wl.name, graph_seed)
    if reference is not None and not args.no_baseline_check:
        tally.check(base["digest"] == reference,
                    f"digest {base['digest']} differs from baseline {reference}")
    if not args.trace:
        values["ok_frac"] = 1.0 - tally.failed / tally.attempted

    metrics = {}
    for entry in declared:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"{entry['name']:>36} {values[entry['name']]:>14.6g} {entry['unit']}")
    ungated = {} if args.trace else {n: values[n] for n in CLIENT_SIDE}
    for name, value in ungated.items():
        print(f"{name:>36} {value:>14.6g} (not gated)")
    print(f"digest {base['digest']} "
          f"({'matches' if reference == base['digest'] else 'differs from'} baseline"
          f" {reference}); planted_recall {base['planted_recall']}; "
          f"requests timed {base['requests_timed']}")
    for problem in tally.problems[:10]:
        print(f"problem: {problem}")
    row = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": wl.name, "seed": args.seed, "graph_seed": graph_seed,
        "seconds": args.seconds, "trace": args.trace, **provenance(),
        "digest": base["digest"], "baseline_digest": reference,
        "planted_recall": base["planted_recall"], "correct": tally.correct,
        "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: v["value"] for k, v in metrics.items()}, "ungated": ungated,
    }
    with (OUT / "runs.jsonl").open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
