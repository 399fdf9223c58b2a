"""The three named workloads: their inputs, mining configs and request mixes.

The data graph of every workload is pinned to one generator seed.  Mine time
swings far more between graphs of one recipe than any regression bound could
tolerate (GID 5 at scale 0.25 took 12.7-28.7 s over generator seeds 75-77, 1
and 2 on a 2-core x86 container, and 13.5-22.2 s over five vertex relabellings
of one graph), so ``--seed`` drives what can vary without changing the work:
the request mix of the serving phase.  ``--graph-seed`` swaps the graph for a
held-out check of the layer mix.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.catalog.formats import canonical_json
from repro.datasets import GID_SETTINGS
from repro.graph import frozen, synthetic_single_graph
from repro.graph.generators import barabasi_albert_graph
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.labeled_graph import LabeledGraph


@dataclass(frozen=True)
class Workload:
    name: str
    graph_seed: int
    build: Callable[[int], Tuple[object, List[LabeledGraph]]]
    config: Dict[str, object]
    #: False: the mine is part of set-up and the clock runs on serving only.
    mine_timed: bool = True
    #: share of ``--seconds`` given to the closed-loop serving phase
    serve_share: float = 0.5


# ``frozen.freeze`` is looked up on its module at call time, so the traced
# run's wrapper (installed on ``repro`` modules only) sees the set-up freeze.
def _gid5(seed: int):
    data = GID_SETTINGS[5].generate(seed=seed, scale=0.25)
    return frozen.freeze(data.graph), [p.pattern for p in data.large_patterns]


def _ba10k(seed: int):
    return frozen.freeze(barabasi_albert_graph(10_000, 2, 40, seed=seed)), []


def _serving(seed: int):
    data = synthetic_single_graph(
        num_vertices=2000, num_labels=120, average_degree=2.0,
        num_large_patterns=4, large_pattern_vertices=12, large_pattern_support=2,
        num_small_patterns=4, small_pattern_vertices=3, small_pattern_support=2,
        seed=seed,
    )
    return frozen.freeze(data.graph), [p.pattern for p in data.large_patterns]


WORKLOADS: Dict[str, Workload] = {
    "gid5-mine": Workload(
        "gid5-mine", 75, _gid5, dict(min_support=2, k=10, d_max=4, seed=0)),
    "ba10k-mine": Workload(
        "ba10k-mine", 7, _ba10k,
        dict(min_support=12, max_spider_size=4, max_embeddings_per_pattern=200,
             k=10, d_max=4, seed=0)),
    "catalog-serve": Workload(
        "catalog-serve", 7, _serving, dict(min_support=2, k=20, d_max=6, seed=0),
        mine_timed=False, serve_share=1.0),
}


# ---------------------------------------------------------------------- #
# output checks that share nothing with the mining path
# ---------------------------------------------------------------------- #
def _eccentricities(graph: LabeledGraph) -> List[int]:
    out = []
    for source in graph.vertices():
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if len(dist) != graph.num_vertices:
            return []  # disconnected
        out.append(max(dist.values()))
    return out


def verify_result(graph, result, config: Dict[str, object]) -> List[str]:
    """Problems with a mining result, checked against the data graph directly.

    Each reported pattern must be connected with diameter <= d_max, and every
    embedding must be injective, label- and edge-preserving.  Harmful-overlap
    support never exceeds the number of distinct vertex images, so fewer
    distinct images than ``min_support`` is a wrong answer too.
    """
    problems = []
    for rank, pattern in enumerate(result.patterns):
        pg = pattern.graph
        ecc = _eccentricities(pg)
        if not ecc or max(ecc) > config["d_max"]:
            problems.append(f"pattern {rank}: disconnected or diameter > d_max")
        images = set()
        for embedding in pattern.embeddings:
            mapping = dict(embedding.mapping)
            if (set(mapping) != set(pg.vertices())
                    or len(set(mapping.values())) != len(mapping)
                    or any(graph.label(g) != pg.label(p) for p, g in mapping.items())
                    or any(not graph.has_edge(mapping[u], mapping[v]) for u, v in pg.edges())):
                problems.append(f"pattern {rank}: invalid embedding")
                break
            images.add(frozenset(mapping.values()))
        if len(images) < config["min_support"]:
            problems.append(f"pattern {rank}: {len(images)} distinct images < min_support")
    return problems


def planted_recall(result, planted: List[LabeledGraph]) -> Optional[float]:
    """Share of planted patterns that a reported pattern contains or spans."""
    from repro.graph.isomorphism import subgraph_exists

    if not planted:
        return None
    hits = 0
    for target in planted:
        for pattern in result.patterns:
            if subgraph_exists(target, pattern.graph) or (
                pattern.num_vertices == target.num_vertices
                and subgraph_exists(pattern.graph, target)
            ):
                hits += 1
                break
    return hits / len(planted)


# ---------------------------------------------------------------------- #
# the serving request mix
# ---------------------------------------------------------------------- #
@dataclass
class Request:
    kind: str  # contains | batch | top_k | label
    method: str
    path: str
    body: Optional[bytes]
    expected: bytes


def _bfs_needle(pattern: LabeledGraph, size: int, rng: random.Random) -> LabeledGraph:
    start = rng.choice(sorted(pattern.vertices(), key=repr))
    keep, frontier = [start], deque([start])
    while frontier and len(keep) < size:
        for w in sorted(pattern.neighbors(frontier.popleft()), key=repr):
            if len(keep) < size and w not in keep:
                keep.append(w)
                frontier.append(w)
    needle = LabeledGraph()
    for v in keep:
        needle.add_vertex(v, pattern.label(v))
    for u, v in pattern.edges():
        if u in keep and v in keep:
            needle.add_edge(u, v)
    return needle


#: requests per kind in every block of 100; a sequence is 8 shuffled blocks
MIX = {"contains": 60, "batch": 10, "top_k": 20, "label": 10}


def build_requests(catalog, seed: int, blocks: int = 8) -> List[Request]:
    """A fixed request sequence drawn from ``seed``, with expected bytes.

    Exactly 60% ``POST /contains`` (a 2-6-vertex BFS needle cut from a stored
    pattern; every 4th one relabelled so nothing contains it), 10%
    ``POST /contains/batch`` of 16 such needles, 20% ``GET /top-k`` and 10%
    ``GET /label``, in seeded order; fixed shares keep the work per request
    the same across seeds.  Expected bodies are the facade's answers
    serialised exactly as the server does, computed before any clock starts.
    """
    rng = random.Random(seed)
    records = catalog.top_k(k=10_000)
    patterns = [catalog.load_pattern(r).graph for r in records]
    labels = sorted({label for r in records for label in r.labels}, key=repr)
    made = 0

    def missing(graph: LabeledGraph) -> LabeledGraph:
        victim = rng.choice(sorted(graph.vertices(), key=repr))
        for label in rng.sample(labels, min(8, len(labels))) + ["absent-label"]:
            if label == graph.label(victim):
                continue
            out = LabeledGraph()
            for v in sorted(graph.vertices(), key=repr):
                out.add_vertex(v, label if v == victim else graph.label(v))
            for u, v in graph.edges():
                out.add_edge(u, v)
            if not catalog.contains(out):
                return out
        raise AssertionError("unreachable: absent-label never matches")

    def needle() -> dict:
        nonlocal made
        made += 1
        graph = _bfs_needle(rng.choice(patterns), rng.randint(2, 6), rng)
        return graph_to_dict(missing(graph) if made % 4 == 0 else graph)

    kinds = [kind for kind, n in MIX.items() for _ in range(n * blocks)]
    rng.shuffle(kinds)
    requests = []
    for kind in kinds:
        if kind == "contains":
            body = {"graph": needle()}
            decoded = graph_from_dict(json.loads(json.dumps(body["graph"])))
            expected = canonical_json([r.to_dict() for r in catalog.contains(decoded)])
            requests.append(Request("contains", "POST", "/contains",
                                    json.dumps(body).encode(), expected.encode()))
        elif kind == "batch":
            body = {"graphs": [needle() for _ in range(16)]}
            decoded = [graph_from_dict(json.loads(json.dumps(g))) for g in body["graphs"]]
            grouped = catalog.contains_batch(decoded)
            expected = canonical_json([[r.to_dict() for r in recs] for recs in grouped])
            requests.append(Request("batch", "POST", "/contains/batch",
                                    json.dumps(body).encode(), expected.encode()))
        elif kind == "top_k":
            k, by = rng.randint(1, 20), rng.choice(("vertices", "edges", "support"))
            expected = canonical_json([r.to_dict() for r in catalog.top_k(k=k, by=by)])
            requests.append(Request("top_k", "GET", f"/top-k?k={k}&by={by}", None,
                                    expected.encode()))
        else:
            label = rng.choice(labels)
            expected = canonical_json([r.to_dict() for r in catalog.with_label(label)])
            requests.append(Request("label", "GET", f"/label?label={label}", None,
                                    expected.encode()))
    return requests


def containment_checks(catalog, requests: List[Request]) -> List[Tuple[bool, str]]:
    """Each expected ``/contains`` body checked against a direct search.

    The expected bytes come from the catalog's indexed query path, which the
    server runs too, so an unsound index filter would make both wrong in the
    same way.  Here every needle is matched against every stored pattern
    graph with ``subgraph_exists``, with no index and no record metadata, and
    the answer is serialised in stored-run order as the catalog does.
    """
    from repro.graph.isomorphism import subgraph_exists

    records = list(catalog.query.records())
    graphs = [catalog.load_pattern(r).graph for r in records]
    counts = [g.label_counts() for g in graphs]

    def containing(needle: LabeledGraph) -> list:
        need = needle.label_counts()
        return [r.to_dict() for r, g, have in zip(records, graphs, counts)
                if all(have.get(label, 0) >= n for label, n in need.items())
                and subgraph_exists(needle, g)]

    checks = []
    for number, request in enumerate(requests):
        if request.kind == "contains":
            body = json.loads(request.body)
            answer = containing(graph_from_dict(body["graph"]))
        elif request.kind == "batch":
            body = json.loads(request.body)
            answer = [containing(graph_from_dict(g)) for g in body["graphs"]]
        else:
            continue
        checks.append((canonical_json(answer).encode() == request.expected,
                       f"request {number} ({request.kind}): facade answer "
                       "differs from a direct subgraph search"))
    return checks
