"""Classic graph algorithms needed by the miners.

Everything here operates on the :class:`~repro.graph.view.GraphView`
protocol, so the same call works on a mutable
:class:`~repro.graph.labeled_graph.LabeledGraph` (patterns, spiders) and on
an immutable :class:`~repro.graph.frozen.FrozenGraph` snapshot (the data
graph).  BFS-shaped kernels carry a CSR fast path: when the input is frozen
they run entirely in flat int arrays (dense indices, list frontiers) and only
translate back to vertex identifiers at the boundary, which is what makes
whole-graph distance sweeps on large data graphs several times faster than
the dict-of-sets walk.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from .frozen import FrozenGraph
from .labeled_graph import GraphError, Vertex
from .view import GraphView


def bfs_distances(graph: GraphView, source: Vertex) -> Dict[Vertex, int]:
    """Unweighted shortest-path distances from ``source`` to every reachable vertex."""
    if isinstance(graph, FrozenGraph):
        dist = graph.bfs_levels(graph.index_of(source))
        ids = graph.vertex_ids
        return {ids[i]: d for i, d in enumerate(dist) if d >= 0}
    if source not in graph:
        raise GraphError(f"vertex {source!r} does not exist")
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def shortest_path_length(graph: GraphView, source: Vertex, target: Vertex) -> int:
    """Length of the shortest path between ``source`` and ``target``.

    Raises :class:`GraphError` when either endpoint is missing (both are
    validated up front, uniformly) or when the two vertices are disconnected.
    """
    if source not in graph:
        raise GraphError(f"vertex {source!r} does not exist")
    if target not in graph:
        raise GraphError(f"vertex {target!r} does not exist")
    dist = bfs_distances(graph, source)
    if target not in dist:
        raise GraphError(f"{source!r} and {target!r} are not connected")
    return dist[target]


def connected_components(graph: GraphView) -> List[Set[Vertex]]:
    """All connected components, largest first."""
    if isinstance(graph, FrozenGraph):
        components = [
            {graph.vertex_ids[i] for i in indices} for indices in _csr_components(graph)
        ]
        components.sort(key=len, reverse=True)
        return components
    seen: Set[Vertex] = set()
    components: List[Set[Vertex]] = []
    for start in graph.vertices():
        if start in seen:
            continue
        component = set(bfs_distances(graph, start))
        seen |= component
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def _csr_components(graph: FrozenGraph) -> List[List[int]]:
    """Connected components of a frozen graph, in index space."""
    n = graph.num_vertices
    offsets = graph.offsets
    nbrs = graph.neighbor_indices
    seen = bytearray(n)
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        component = [start]
        frontier = [start]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in nbrs[offsets[u]:offsets[u + 1]]:
                    if not seen[v]:
                        seen[v] = 1
                        component.append(v)
                        nxt.append(v)
            frontier = nxt
        components.append(component)
    return components


def is_connected(graph: GraphView) -> bool:
    """Whether the graph is connected.  The empty graph counts as connected."""
    if graph.num_vertices == 0:
        return True
    if isinstance(graph, FrozenGraph):
        reached, _ = graph.eccentricity_at(0)
        return reached == graph.num_vertices
    start = next(iter(graph.vertices()))
    return len(bfs_distances(graph, start)) == graph.num_vertices


def eccentricity(graph: GraphView, vertex: Vertex) -> int:
    """Largest shortest-path distance from ``vertex`` to any reachable vertex."""
    if isinstance(graph, FrozenGraph):
        reached, level = graph.eccentricity_at(graph.index_of(vertex))
        if reached != graph.num_vertices:
            raise GraphError("eccentricity is undefined on a disconnected graph")
        return level
    dist = bfs_distances(graph, vertex)
    if len(dist) != graph.num_vertices:
        raise GraphError("eccentricity is undefined on a disconnected graph")
    return max(dist.values())


def diameter(graph: GraphView) -> int:
    """Exact diameter (max shortest-path distance over all pairs).

    The paper writes ``diam(G)``.  Patterns are small so the O(|V| * (|V|+|E|))
    all-sources BFS is acceptable.
    """
    if graph.num_vertices == 0:
        return 0
    best = 0
    for v in graph.vertices():
        best = max(best, eccentricity(graph, v))
    return best


def radius_from(graph: GraphView, vertex: Vertex) -> int:
    """Eccentricity of ``vertex`` — the ``r`` for which the pattern is r-bounded from it."""
    return eccentricity(graph, vertex)


def graph_radius(graph: GraphView) -> int:
    """Minimum eccentricity over all vertices (the classic graph radius)."""
    if graph.num_vertices == 0:
        return 0
    return min(eccentricity(graph, v) for v in graph.vertices())


def center_vertices(graph: GraphView) -> List[Vertex]:
    """Vertices whose eccentricity equals the graph radius."""
    if graph.num_vertices == 0:
        return []
    ecc = {v: eccentricity(graph, v) for v in graph.vertices()}
    r = min(ecc.values())
    return [v for v, e in ecc.items() if e == r]


def is_r_bounded_from(graph: GraphView, vertex: Vertex, r: int) -> bool:
    """True if every vertex of ``graph`` is within distance ``r`` of ``vertex``.

    This is the paper's condition for ``graph`` being an r-spider with head
    ``vertex`` (Definition 4), ignoring frequency.
    """
    if isinstance(graph, FrozenGraph):
        source = graph.index_of(vertex)
        if r < 0:
            # bfs_levels treats a negative radius as "unbounded"; the answer
            # for a negative bound is always False (matches the dict path).
            return False
        dist = graph.bfs_levels(source, radius=r)
        return all(d >= 0 for d in dist)
    if vertex not in graph:
        raise GraphError(f"vertex {vertex!r} does not exist")
    dist = bfs_distances(graph, vertex)
    if len(dist) != graph.num_vertices:
        return False
    return max(dist.values()) <= r


def effective_diameter(graph: GraphView, percentile: float = 0.9,
                       sample_size: Optional[int] = None,
                       rng: Optional[random.Random] = None) -> int:
    """The ``percentile`` (default 90th) percentile of pairwise distances.

    The paper cites effective diameters (e.g. DBLP <= 9) as justification for
    the ``Dmax`` bound.  For large graphs a vertex sample can be used.
    """
    if not 0.0 < percentile <= 1.0:
        raise ValueError("percentile must be in (0, 1]")
    vertices = list(graph.vertices())
    if not vertices:
        return 0
    if sample_size is not None and sample_size < len(vertices):
        rng = rng or random.Random(0)
        vertices = rng.sample(vertices, sample_size)
    distances: List[int] = []
    if isinstance(graph, FrozenGraph):
        for source in vertices:
            levels = graph.bfs_levels(graph.index_of(source))
            distances.extend(d for d in levels if d > 0)
    else:
        for source in vertices:
            dist = bfs_distances(graph, source)
            distances.extend(d for v, d in dist.items() if v != source)
    if not distances:
        return 0
    distances.sort()
    index = min(len(distances) - 1, int(percentile * len(distances)))
    return distances[index]


def triangles(graph: GraphView) -> int:
    """Total number of triangles in the graph."""
    count = 0
    for u in graph.vertices():
        nbrs = graph.neighbors(u)
        for v in nbrs:
            if repr(v) <= repr(u):
                continue
            count += sum(1 for w in graph.neighbors(v) if w in nbrs and repr(w) > repr(v))
    return count


def greedy_maximum_independent_set(
    adjacency: Dict[Hashable, Set[Hashable]],
) -> Set[Hashable]:
    """Greedy (min-degree first) independent set on an arbitrary adjacency dict.

    Used by the overlap-graph support measures when exact MIS is too costly.
    The greedy value is a lower bound on the true MIS size, which keeps the
    support measure anti-monotone in the "safe" direction (never over-counts).
    """
    remaining = {v: set(n) for v, n in adjacency.items()}
    chosen: Set[Hashable] = set()
    heap = [(len(n), repr(v), v) for v, n in remaining.items()]
    heapq.heapify(heap)
    removed: Set[Hashable] = set()
    while heap:
        _, _, v = heapq.heappop(heap)
        if v in removed or v not in remaining:
            continue
        chosen.add(v)
        removed.add(v)
        for u in list(remaining.get(v, ())):
            removed.add(u)
            for w in remaining.get(u, ()):
                remaining.get(w, set()).discard(u)
            remaining.pop(u, None)
        remaining.pop(v, None)
    return chosen


def degeneracy_ordered_independent_set(
    adjacency: Dict[Hashable, Set[Hashable]],
    stop_at: Optional[int] = None,
) -> Set[Hashable]:
    """Greedy independent set along the degeneracy order of the conflict graph.

    Repeatedly selects the vertex of minimum *current* degree (ties broken by
    ``repr``), adds it to the set and deletes its closed neighbourhood,
    updating the remaining degrees — i.e. the selection follows the degeneracy
    ordering rather than the static initial degrees used by
    :func:`greedy_maximum_independent_set`.  The result is still a lower bound
    on the true MIS (safe for anti-monotone support pruning) but a tighter
    one: on a d-degenerate conflict graph it is guaranteed to pick at least
    ``n / (d + 1)`` vertices.  Fully deterministic for a fixed adjacency dict.

    With ``stop_at`` the selection ends after ``stop_at`` picks.  The picks
    are the first ``stop_at`` of the full run, in the same order, because a
    pick never depends on the ones after it: the set returned has
    ``min(stop_at, full size)`` vertices, which answers "is the greedy value
    at least ``stop_at``?" exactly.
    """
    degree = {v: len(n) for v, n in adjacency.items()}
    remaining = {v: set(n) for v, n in adjacency.items()}
    heap = [(d, repr(v), v) for v, d in degree.items()]
    heapq.heapify(heap)
    goal = len(heap) if stop_at is None else stop_at
    chosen: Set[Hashable] = set()
    removed: Set[Hashable] = set()
    while heap and len(chosen) < goal:
        d, _, v = heapq.heappop(heap)
        if v in removed or d != degree[v]:
            continue  # deleted, or a stale entry (a fresher one is queued)
        chosen.add(v)
        removed.add(v)
        for u in remaining[v]:
            if u in removed:
                continue
            removed.add(u)
            for w in remaining[u]:
                if w not in removed:
                    remaining[w].discard(u)
                    degree[w] -= 1
                    heapq.heappush(heap, (degree[w], repr(w), w))
    return chosen


def exact_maximum_independent_set(
    adjacency: Dict[Hashable, Set[Hashable]],
    limit: int = 20,
    stop_at: Optional[int] = None,
) -> Set[Hashable]:
    """Exact MIS by branch and bound, for at most ``limit`` vertices.

    Raises :class:`ValueError` when the instance is larger than ``limit`` —
    callers fall back to :func:`greedy_maximum_independent_set`.

    With ``stop_at`` the search ends as soon as its best set has ``stop_at``
    vertices.  The result then has at least ``stop_at`` vertices exactly when
    the maximum independent set does; below that the search runs to the end
    and returns a maximum set.
    """
    vertices = list(adjacency)
    if len(vertices) > limit:
        raise ValueError(f"exact MIS limited to {limit} vertices, got {len(vertices)}")

    best: Set[Hashable] = set()
    goal = len(vertices) + 1 if stop_at is None else stop_at

    def solve(candidates: List[Hashable], current: Set[Hashable]) -> None:
        nonlocal best
        if len(best) >= goal or len(current) + len(candidates) <= len(best):
            return
        if not candidates:
            if len(current) > len(best):
                best = set(current)
            return
        v = candidates[0]
        rest = candidates[1:]
        # Branch 1: include v.
        allowed = [u for u in rest if u not in adjacency[v]]
        solve(allowed, current | {v})
        # Branch 2: exclude v.
        solve(rest, current)

    solve(vertices, set())
    return best


def degree_histogram(graph: GraphView) -> Dict[int, int]:
    """degree → number of vertices with that degree."""
    if isinstance(graph, FrozenGraph):
        return graph.degree_histogram()
    hist: Dict[int, int] = {}
    for v in graph.vertices():
        d = graph.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return hist


def spanning_tree_edges(
    graph: GraphView, root: Optional[Vertex] = None
) -> List[Tuple[Vertex, Vertex]]:
    """Edges of a BFS spanning forest (a tree when the graph is connected)."""
    edges: List[Tuple[Vertex, Vertex]] = []
    seen: Set[Vertex] = set()
    order: Iterable[Vertex]
    if root is not None:
        order = [root] + [v for v in graph.vertices() if v != root]
    else:
        order = graph.vertices()
    for start in order:
        if start in seen:
            continue
        seen.add(start)
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    edges.append((u, v))
                    queue.append(v)
    return edges
