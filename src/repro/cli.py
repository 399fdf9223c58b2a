"""Command-line interface: ``spidermine`` / ``python -m repro``.

Sub-commands
------------
``mine``      run SpiderMine on a graph file (``.lg`` or ``.json``)
``generate``  generate one of the paper's synthetic datasets and save it
``compare``   run SpiderMine and the single-graph baselines on a dataset
``spiders``   run only Stage I and report the spider statistics
``catalog``   the persistent pattern catalog: ``ingest``/``list``/``query``/``gc``
``serve``     HTTP JSON API over a catalog (read-only; same answers as ``query``)

``catalog query`` and ``serve`` share one option set (``--top``/``--by``/
``--label``/``--run``/``--json``): what filters a one-shot query becomes the
server's defaults, so the two surfaces can never drift apart.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__
from .analysis import RuntimeTable, SizeDistributionComparison
from .api import open_catalog
from .baselines import run_seus, run_subdue
from .catalog import CatalogError, CatalogFormatError, CatalogStore
from .catalog.query import RANKINGS
from .core import CachePolicy, SpiderMine, SpiderMineConfig, mine_spiders
from .datasets import generate_gid
from .graph import GRAPH_BACKENDS, GraphView, io as graph_io
from .lint.cli import add_lint_arguments, run_from_args as _run_lint_from_args
from .obs import (
    configure_logging,
    enable_metrics,
    enable_tracing,
    get_registry,
    get_tracer,
)
from .parallel import ExecutionPolicy


def _load_graph(path: str, backend: str = "csr") -> GraphView:
    """Load the first graph of ``path`` in the requested backend.

    ``backend="csr"`` (the mining default) freezes the graph into an
    immutable CSR snapshot; ``"dict"`` keeps the mutable builder.
    """
    p = Path(path)
    if not p.exists():
        raise SystemExit(f"error: graph file not found: {path}")
    frozen = backend == "csr"
    if p.suffix == ".json":
        graphs = graph_io.read_json(p, frozen=frozen)
    else:
        graphs = graph_io.read_lg(p, frozen=frozen)
    if not graphs:
        raise SystemExit(f"error: no graphs found in {path}")
    if len(graphs) > 1:
        print(f"note: {path} holds {len(graphs)} graphs; using the first", file=sys.stderr)
    return graphs[0]


def _execution_policy(args: argparse.Namespace) -> ExecutionPolicy:
    """Validate ``--workers`` up front and turn it into an execution policy.

    Failing here — with an actionable message and a non-zero exit — beats the
    opaque traceback a bad worker count would otherwise produce deep inside
    the process pool.
    """
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise SystemExit(
            f"error: --workers must be at least 1 (got {workers}); "
            "use --workers 1 for serial mining"
        )
    available = os.cpu_count() or 1
    if workers > available:
        raise SystemExit(
            f"error: --workers {workers} exceeds the {available} CPU(s) "
            "available on this machine; oversubscribing worker processes only "
            "adds scheduling overhead"
        )
    return ExecutionPolicy.process_pool(workers)


def _cache_policy(args: argparse.Namespace) -> CachePolicy:
    """The run-cache policy from ``--cache`` / ``--cache-mode`` (default off)."""
    directory = getattr(args, "cache", None)
    if directory is None:
        return CachePolicy.off()
    return CachePolicy.at(directory, mode=getattr(args, "cache_mode", "readwrite"))


def _cmd_mine(args: argparse.Namespace) -> int:
    execution = _execution_policy(args)
    if args.telemetry:
        # Telemetry never reaches the config (and so never the cache keys):
        # it lives in the process-local obs globals, provably result-neutral.
        enable_metrics()
        enable_tracing()
    graph = _load_graph(args.graph, backend=args.backend)
    config = SpiderMineConfig(
        min_support=args.support,
        k=args.k,
        d_max=args.dmax,
        epsilon=args.epsilon,
        radius=args.radius,
        seed=args.seed,
        execution=execution,
        cache=_cache_policy(args),
    )
    result = SpiderMine(graph, config).mine()
    if args.telemetry:
        from .analysis import decision_table, phase_time_table

        print(phase_time_table(result, spans=get_tracer().roots()))
        print(decision_table(get_registry().snapshot()["counters"]))
    if result.cache_info is not None:
        status = result.cache_info["status"]
        run_id = result.cache_info.get("run_id", "")
        detail = f" run {run_id[:12]}" if run_id else ""
        print(f"cache: {status}{detail} ({result.cache_info['store']})")
    print(result.summary())
    for index, pattern in enumerate(result.patterns, start=1):
        print(f"  #{index}: |V|={pattern.num_vertices} |E|={pattern.num_edges} "
              f"support={pattern.support}")
    if args.output:
        graph_io.write_json([p.graph for p in result.patterns], args.output)
        print(f"patterns written to {args.output}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    data = generate_gid(args.gid, seed=args.seed, scale=args.scale)
    graph_io.write_lg([data.graph], args.output)
    planted = {
        "large_sizes": [p.pattern.num_vertices for p in data.large_patterns],
        "small_sizes": [p.pattern.num_vertices for p in data.small_patterns],
    }
    print(f"GID {args.gid}: |V|={data.graph.num_vertices} |E|={data.graph.num_edges} "
          f"written to {args.output}")
    print(json.dumps(planted))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    execution = _execution_policy(args)
    graph = _load_graph(args.graph, backend=args.backend)
    table = RuntimeTable()
    comparison = SizeDistributionComparison()

    config = SpiderMineConfig(
        min_support=args.support, k=args.k, d_max=args.dmax, seed=args.seed, execution=execution
    )
    spidermine_result = SpiderMine(graph, config).mine()
    table.record_result("input", spidermine_result)
    comparison.add(spidermine_result)

    subdue_result = run_subdue(graph, num_best=args.k)
    table.record_result("input", subdue_result)
    comparison.add(subdue_result)

    seus_result = run_seus(graph, min_support=args.support)
    table.record_result("input", seus_result)
    comparison.add(seus_result)

    print(comparison.to_text())
    print()
    print(table.to_text())
    return 0


def _cmd_spiders(args: argparse.Namespace) -> int:
    execution = _execution_policy(args)
    graph = _load_graph(args.graph, backend=args.backend)
    spiders = mine_spiders(
        graph,
        min_support=args.support,
        radius=args.radius,
        max_spider_size=args.max_size,
        execution=execution,
    )
    print(f"{len(spiders)} frequent {args.radius}-spiders "
          f"(min_support={args.support}, max_size={args.max_size})")
    sizes = {}
    for spider in spiders:
        sizes[spider.num_vertices] = sizes.get(spider.num_vertices, 0) + 1
    for size in sorted(sizes):
        print(f"  |V|={size}: {sizes[size]} spiders")
    return 0


# ---------------------------------------------------------------------- #
# catalog sub-commands
# ---------------------------------------------------------------------- #
def _cmd_catalog_ingest(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph, backend=args.backend)
    store = CatalogStore(args.store)
    digest = store.put_graph(graph, pinned=True)
    print(f"ingested {args.graph}: |V|={graph.num_vertices} |E|={graph.num_edges}")
    print(f"graph digest: {digest}")
    return 0


def _cmd_catalog_list(args: argparse.Namespace) -> int:
    store = CatalogStore(args.store)
    graphs = store.list_graphs()
    runs = store.list_runs()
    if args.json:
        print(json.dumps({"graphs": graphs, "runs": runs}, indent=2, sort_keys=True))
        return 0
    print(f"catalog at {store.root}: {len(graphs)} graph(s), {len(runs)} run(s)")
    for digest, meta in sorted(graphs.items()):
        pin = " [pinned]" if meta.get("pinned") else ""
        print(f"  graph {digest[:12]}: |V|={meta['num_vertices']} "
              f"|E|={meta['num_edges']}{pin}")
    for run in runs:
        if run["kind"] == "result":
            print(f"  run {run['run_id'][:12]}: {run['algorithm']} "
                  f"{run['num_patterns']} patterns, "
                  f"largest |V|={run['largest_vertices']} "
                  f"(graph {run['graph_digest'][:12]})")
        else:
            print(f"  run {run['run_id'][:12]}: stage-I spiders "
                  f"({run['num_spiders']}, graph {run['graph_digest'][:12]})")
    return 0


def _validated_top(args: argparse.Namespace) -> int:
    if args.top is not None and args.top < 0:
        raise SystemExit(f"error: --top must be non-negative (got {args.top})")
    return args.top if args.top is not None else 10


def _cmd_catalog_query(args: argparse.Namespace) -> int:
    top = _validated_top(args)
    catalog = open_catalog(args.store)
    if args.contains:
        needle = _load_graph(args.contains, backend="dict")
        records = catalog.contains(needle, run=args.run)
        if args.label is not None:
            records = [r for r in records if args.label in r.labels]
        records = records[:top]
    else:
        records = catalog.top_k(top, by=args.by, label=args.label, run=args.run)
    if args.json:
        # The same schema (PatternRecord.to_dict) the HTTP API serves.
        print(json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True))
        return 0
    if not records:
        print("no matching patterns in the catalog")
        return 0
    for rank, record in enumerate(records, start=1):
        print(f"  #{rank}: {record.describe()}")
    return 0


def _cmd_catalog_gc(args: argparse.Namespace) -> int:
    removed = CatalogStore(args.store).gc()
    print(f"gc: removed {removed['runs']} run(s), {removed['graphs']} graph(s), "
          f"{removed['indexes']} index sidecar(s), "
          f"{removed['telemetry']} telemetry sidecar(s), "
          f"{removed['stray_files']} stray file(s); "
          f"recovered {removed['recovered']} unindexed object(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    top = _validated_top(args)
    catalog = open_catalog(args.store, read_only=True)
    catalog.serve(
        host=args.host,
        port=args.port,
        default_top=top,
        default_by=args.by,
        default_label=args.label,
        default_run=args.run,
        access_log=args.access_log,
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return _run_lint_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spidermine",
        description="SpiderMine reproduction: top-K large structural pattern mining",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"spidermine-repro {__version__}",
        help="print the installed package version and exit",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        dest="log_json",
        help="emit log records as structured JSON lines (one object per line) "
             "instead of plain text",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="enable span tracing: phase timers are collected as a span tree "
             "and logged at TRACE level as they close",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_backend_option(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--backend",
            choices=list(GRAPH_BACKENDS),
            default="csr",
            help="data-graph representation: immutable CSR snapshot (csr, default) "
                 "or the mutable dict-of-sets builder (dict); mining results are "
                 "identical, csr is faster on large graphs",
        )
        command.add_argument(
            "--workers",
            type=int,
            default=1,
            metavar="N",
            help="worker processes for Stage-I spider mining (default 1 = serial); "
                 "workers share one zero-copy graph snapshot and results are "
                 "identical for any worker count",
        )

    mine = sub.add_parser("mine", help="run SpiderMine on a graph file")
    mine.add_argument("graph", help="input graph (.lg or .json)")
    mine.add_argument("--support", type=int, default=2, help="support threshold σ")
    mine.add_argument("-k", type=int, default=10, help="number of patterns to return")
    mine.add_argument("--dmax", type=int, default=6, help="pattern diameter bound Dmax")
    mine.add_argument("--epsilon", type=float, default=0.1, help="error bound ε")
    mine.add_argument("--radius", type=int, default=1, help="spider radius r")
    mine.add_argument("--seed", type=int, default=0, help="random seed")
    mine.add_argument("--output", help="write mined pattern graphs to this JSON file")
    mine.add_argument(
        "--cache",
        metavar="DIR",
        help="catalog directory for the content-addressed run cache: a repeat "
             "of a (graph, config, version) key re-serves the stored result "
             "bit-identically instead of re-mining",
    )
    mine.add_argument(
        "--cache-mode",
        choices=["readwrite", "readonly", "refresh"],
        default="readwrite",
        dest="cache_mode",
        help="readwrite serves hits and stores misses (default); readonly "
             "never writes; refresh always re-mines and overwrites",
    )
    mine.add_argument(
        "--telemetry",
        action="store_true",
        help="collect metrics + phase spans during the mine and print a "
             "phase-time table; results are bit-identical either way, and "
             "with --cache the telemetry persists as a run sidecar",
    )
    add_backend_option(mine)
    mine.set_defaults(func=_cmd_mine)

    generate = sub.add_parser("generate", help="generate a synthetic dataset (GID 1-10)")
    generate.add_argument("gid", type=int, help="dataset id from Table 1 / Table 3")
    generate.add_argument("output", help="output .lg path")
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--scale", type=float, default=1.0,
                          help="scale factor in (0,1] applied to |V| and pattern sizes")
    generate.set_defaults(func=_cmd_generate)

    compare = sub.add_parser("compare", help="compare SpiderMine with SUBDUE and SEuS")
    compare.add_argument("graph", help="input graph (.lg or .json)")
    compare.add_argument("--support", type=int, default=2)
    compare.add_argument("-k", type=int, default=10)
    compare.add_argument("--dmax", type=int, default=6)
    compare.add_argument("--seed", type=int, default=0)
    add_backend_option(compare)
    compare.set_defaults(func=_cmd_compare)

    spiders = sub.add_parser("spiders", help="run Stage I only and report spider statistics")
    spiders.add_argument("graph", help="input graph (.lg or .json)")
    spiders.add_argument("--support", type=int, default=2)
    spiders.add_argument("--radius", type=int, default=1)
    spiders.add_argument("--max-size", type=int, default=6, dest="max_size")
    add_backend_option(spiders)
    spiders.set_defaults(func=_cmd_spiders)

    catalog = sub.add_parser(
        "catalog", help="persistent pattern catalog: ingest, list, query, gc"
    )
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)

    ingest = catalog_sub.add_parser(
        "ingest", help="store a graph snapshot in the catalog (pinned)"
    )
    ingest.add_argument("store", help="catalog directory (created if missing)")
    ingest.add_argument("graph", help="input graph (.lg or .json)")
    ingest.add_argument(
        "--backend", choices=list(GRAPH_BACKENDS), default="csr",
        help="backend used while reading the graph (stored form is canonical)",
    )
    ingest.set_defaults(func=_cmd_catalog_ingest)

    list_cmd = catalog_sub.add_parser(
        "list", help="list stored graphs and runs"
    )
    list_cmd.add_argument("store", help="catalog directory")
    list_cmd.add_argument("--json", action="store_true", help="machine-readable output")
    list_cmd.set_defaults(func=_cmd_catalog_list)

    # One option set shared by `catalog query` and `serve`: a one-shot
    # query's filters are exactly the server's defaults.
    query_options = argparse.ArgumentParser(add_help=False)
    query_options.add_argument("--top", type=int, default=None, metavar="K",
                               help="return the K best patterns (default 10)")
    query_options.add_argument("--by", choices=list(RANKINGS), default="vertices",
                               help="ranking key for --top (ignored with "
                                    "--contains, whose results keep stored-run "
                                    "order)")
    query_options.add_argument("--label",
                               help="only patterns containing this vertex label")
    query_options.add_argument("--run", metavar="RUN_ID",
                               help="restrict to one stored run")
    query_options.add_argument("--json", action="store_true",
                               help="machine-readable output (the HTTP API's "
                                    "schema; servers always emit JSON)")

    query_cmd = catalog_sub.add_parser(
        "query",
        parents=[query_options],
        help="query stored patterns (top-k, label filter, containment)",
    )
    query_cmd.add_argument("store", help="catalog directory")
    query_cmd.add_argument("--contains", metavar="GRAPH",
                           help="only patterns containing this graph file "
                                "(.lg/.json) as a subgraph")
    query_cmd.set_defaults(func=_cmd_catalog_query)

    gc_cmd = catalog_sub.add_parser(
        "gc", help="drop orphaned objects and unreferenced unpinned graphs"
    )
    gc_cmd.add_argument("store", help="catalog directory")
    gc_cmd.set_defaults(func=_cmd_catalog_gc)

    serve_cmd = sub.add_parser(
        "serve",
        parents=[query_options],
        help="serve a catalog over HTTP (read-only JSON API); the shared "
             "query options become the server's endpoint defaults",
    )
    serve_cmd.add_argument("store", help="catalog directory")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1; use 0.0.0.0 "
                                "in containers)")
    serve_cmd.add_argument("--port", type=int, default=8080,
                           help="TCP port (default 8080; 0 picks a free port)")
    serve_cmd.add_argument("--access-log", action="store_true", dest="access_log",
                           help="log one line per HTTP request (method, path, "
                                "status, duration ms); off by default so perf "
                                "numbers are unaffected")
    serve_cmd.set_defaults(func=_cmd_serve)

    lint_cmd = sub.add_parser(
        "lint",
        help="run reprolint, the AST-based invariant checker (determinism, "
             "cache-key partition, telemetry neutrality, lock discipline, "
             "kernel dispatch)",
    )
    add_lint_arguments(lint_cmd)
    lint_cmd.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Wire the repro logger for every command: plain text at INFO by
    # default, JSON lines with --log-json, TRACE-level span records with
    # --trace.  Re-invocations replace the handler, never stack it.
    configure_logging(json_lines=args.log_json, trace=args.trace)
    if args.trace:
        enable_tracing()
    try:
        return args.func(args)
    except (CatalogError, CatalogFormatError) as error:
        raise SystemExit(f"error: {error}") from error


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
