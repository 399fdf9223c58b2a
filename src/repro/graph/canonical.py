"""Canonical forms for small labeled graphs.

Graph miners constantly need to answer "have I generated this pattern
before?".  The expensive way is pairwise isomorphism testing; the standard
trick — used by gSpan's DFS codes and by our SpiderMine implementation — is to
map every pattern to a *canonical code*: a string such that two labeled graphs
receive the same string iff they are isomorphic.

For the small graphs that appear as patterns (tens of vertices) a refinement +
backtracking canonicalisation is plenty fast and, unlike heuristic codes, is
exact.  The algorithm:

1. Colour vertices by (label, degree) and iteratively refine colours by the
   multiset of neighbour colours (1-dimensional Weisfeiler–Leman).
2. If the colouring is discrete we are done; otherwise branch on every vertex
   of the first non-singleton colour class (individualisation-refinement) and
   keep the lexicographically smallest resulting adjacency code.

One engine, :func:`canonical_labelling`, runs that search over a label dict
and a neighbour map and returns both the canonical vertex order and the code.
It works in vertex-index space: adjacency and label ``repr``s are computed
once per graph, search leaves are compared through keys (the joined label
string plus the upper-triangle adjacency bits read as one integer) that order
them exactly as their code strings would, and the code string is built once,
for the winning order.  Codes are byte-identical to comparing code strings at
every leaf — they feed result digests and the top-K tie-break.

:func:`canonical_code` is used as a dict key everywhere patterns are
deduplicated, :func:`canonical_order` exposes the vertex order (two graphs
with equal codes are mapped onto each other by composing their orders), and
:func:`canonical_form` returns an isomorphic copy of the graph on vertices
``0..n-1`` in canonical order.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Tuple

from .labeled_graph import LabeledGraph, Vertex


def _refine(
    adjacency: List[List[int]], colors: List[int], num_colors: int
) -> Tuple[List[int], int]:
    """Refine ``colors`` until stable (1-WL with initial colours).

    ``colors`` must be compact (``0..num_colors-1``, every value used).  Each
    round re-indexes vertices by (own colour, sorted neighbour colours), so
    refinement never reorders two vertices of different colour, and a round
    that splits no class changes nothing: it is the fixed point.  So is a
    discrete colouring.  Returns the stable colours and their count.
    """
    n = len(colors)
    while True:
        signatures = [
            (colors[v], tuple(sorted([colors[u] for u in row])))
            for v, row in enumerate(adjacency)
        ]
        distinct = set(signatures)
        if len(distinct) == num_colors:
            return colors, num_colors
        index = {sig: i for i, sig in enumerate(sorted(distinct))}
        colors = [index[sig] for sig in signatures]
        num_colors = len(index)
        if num_colors == n:
            return colors, num_colors


def _discrete_order(colors: List[int]) -> List[int]:
    """The vertex order of a discrete colouring (vertex ``v`` at ``colors[v]``)."""
    order = [0] * len(colors)
    for v, c in enumerate(colors):
        order[c] = v
    return order


def _individualise(
    vertices: List[Vertex],
    adjacency: List[List[int]],
    label_reprs: List[str],
    colors: List[int],
    num_colors: int,
) -> List[int]:
    """The best leaf order below a stable, non-discrete colouring.

    Leaves are compared by keys that order them exactly as their code
    strings do: the joined label string, which is the code's label part, and
    the upper-triangle edge bits read row by row as one integer.  The label
    parts of two leaves are permutations of one repr multiset, so they have
    equal length, and the edge rows have fixed lengths, so comparing the pair
    compares the codes.  Ties keep the first leaf.
    """
    n = len(vertices)
    bits = n * (n - 1) // 2
    # The bit of upper-triangle pair (i, j), i < j, is ``1 << (base[i] - j)``.
    base = [bits - i * n + i * (i + 3) // 2 for i in range(n)]
    edges = [(v, u) for v, row in enumerate(adjacency) for u in row if v < u]
    vertex_reprs = [repr(v) for v in vertices]
    neighbor_sets: Dict[int, frozenset] = {}
    best_key = None
    best_order: List[int] = []

    def leaf(colors: List[int]) -> None:
        nonlocal best_key, best_order
        order = _discrete_order(colors)
        label_key = ",".join([label_reprs[i] for i in order])
        edge_key = 0
        for a, b in edges:
            i, j = colors[a], colors[b]
            if i > j:
                i, j = j, i
            edge_key |= 1 << (base[i] - j)
        key = (label_key, edge_key)
        if best_key is None or key < best_key:
            best_key = key
            best_order = order

    def search(colors: List[int], num_colors: int) -> None:
        if num_colors == n:
            leaf(colors)
            return
        # Individualise each vertex of the first non-singleton class.  Vertices
        # of the class that are *twins* (identical open or closed labeled
        # neighbourhoods) are interchangeable by an automorphism that swaps
        # only the two of them, so branching on one representative per twin
        # group is enough — this is what keeps stars/cliques of same-label
        # vertices (common in label-poor graphs) from exploding the search.
        counts = [0] * num_colors
        for c in colors:
            counts[c] += 1
        target_color = next(c for c in range(num_colors) if counts[c] > 1)
        target = [v for v in range(n) if colors[v] == target_color]
        seen_twin_keys = set()
        for v in sorted(target, key=vertex_reprs.__getitem__):
            adjacent = neighbor_sets.get(v)
            if adjacent is None:
                adjacent = neighbor_sets[v] = frozenset(adjacency[v])
            open_key = ("o", adjacent)
            closed_key = ("c", adjacent | {v})
            if open_key in seen_twin_keys or closed_key in seen_twin_keys:
                continue
            seen_twin_keys.add(open_key)
            seen_twin_keys.add(closed_key)
            branched = list(colors)
            branched[v] = num_colors
            search(*_refine(adjacency, branched, num_colors + 1))

    search(colors, num_colors)
    return best_order


def canonical_labelling(
    labels: Mapping[Vertex, Hashable],
    neighbors: Mapping[Vertex, Iterable[Vertex]],
) -> Tuple[List[Vertex], str]:
    """The canonical vertex order and code of a labeled graph.

    ``labels`` maps every vertex to its label, in the graph's vertex order
    (the order that breaks branching ties); ``neighbors`` maps every vertex
    to its adjacent vertices.  Isomorphic inputs get equal codes, and for two
    inputs with equal codes ``order_a[i] -> order_b[i]`` is an isomorphism.
    """
    vertices = list(labels)
    n = len(vertices)
    if not n:
        return [], "|"
    position = {v: i for i, v in enumerate(vertices)}
    adjacency = [[position[u] for u in neighbors[v]] for v in vertices]
    label_reprs = [repr(labels[v]) for v in vertices]
    initial_keys = [(label_reprs[i], len(adjacency[i])) for i in range(n)]
    initial_index = {key: i for i, key in enumerate(sorted(set(initial_keys)))}
    colors, num_colors = _refine(
        adjacency, [initial_index[key] for key in initial_keys], len(initial_index)
    )
    if num_colors == n:
        order = _discrete_order(colors)
    else:
        order = _individualise(vertices, adjacency, label_reprs, colors, num_colors)

    # The code string, built once: labels in order, then the upper-triangle
    # adjacency rows.
    at = [0] * n
    for i, v in enumerate(order):
        at[v] = i
    rows = []
    for i, v in enumerate(order):
        row = ["0"] * (n - 1 - i)
        for u in adjacency[v]:
            j = at[u]
            if j > i:
                row[j - i - 1] = "1"
        rows.append("".join(row))
    label_part = ",".join([label_reprs[i] for i in order])
    return [vertices[i] for i in order], label_part + "|" + "|".join(rows)


def canonical_order(graph: LabeledGraph) -> List[Vertex]:
    """The canonical vertex ordering of ``graph`` (stable across isomorphic copies)."""
    return canonical_labelling(graph.labels(), graph.adjacency())[0]


def canonical_code(graph: LabeledGraph) -> str:
    """A string equal for two labeled graphs iff they are isomorphic."""
    return canonical_labelling(graph.labels(), graph.adjacency())[1]


def canonical_form(graph: LabeledGraph) -> LabeledGraph:
    """An isomorphic copy of ``graph`` on vertices ``0..n-1`` in canonical order."""
    order = canonical_order(graph)
    mapping = {v: i for i, v in enumerate(order)}
    return graph.relabeled(mapping)


def are_isomorphic_by_code(first: LabeledGraph, second: LabeledGraph) -> bool:
    """Exact labeled-graph isomorphism decided through canonical codes."""
    if first.num_vertices != second.num_vertices or first.num_edges != second.num_edges:
        return False
    if first.label_counts() != second.label_counts():
        return False
    return canonical_code(first) == canonical_code(second)
