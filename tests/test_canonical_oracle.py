"""Code identity: the labelling engine against the reference canonicaliser.

Canonical codes feed result digests and the top-K tie-break, so the engine in
``repro.graph.canonical`` must return *byte-identical* codes to the
refinement + individualisation search it replaced, which is kept verbatim in
``tests/oracles/canonical_reference.py``.  The cases stress where an
integer leaf key could order leaves differently from code strings: label
``repr``s that are prefixes of one another, mixed int/str labels, reprs with
commas, the head tag, and symmetric graphs that force individualisation.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.growth import Occurrence, occurrence_code, occurrence_subgraph
from repro.graph import LabeledGraph, canonical_code, canonical_form, canonical_order
from repro.graph.canonical import canonical_labelling
from repro.patterns.spider import head_distinguished_code, head_distinguished_labelling
from tests.oracles import canonical_reference as reference

LABEL_POOLS = [
    ["A"],
    ["A", "B"],
    [1, 12, 123],
    ["a", "ab", "abc"],
    [1, "1", "a", 2],
    ["x,y", "x", "y"],
    [(1, 2), (1,), "1, 2"],
    ["a★", "a", "★"],
]


@st.composite
def labeled_graphs(draw, max_vertices: int = 9):
    pool = draw(st.sampled_from(LABEL_POOLS))
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    names = draw(st.permutations(range(40)))[:n]
    graph = LabeledGraph()
    for v in names:
        graph.add_vertex(v, draw(st.sampled_from(pool)))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            if rng.random() < density:
                graph.add_edge(u, v)
    return graph


def assert_identical(graph: LabeledGraph) -> None:
    code = canonical_code(graph)
    assert code == reference.canonical_code(graph)
    assert canonical_order(graph) == reference.canonical_order(graph)
    assert reference._code_for_order(graph, canonical_order(graph)) == code
    form = canonical_form(graph)
    expected = reference.canonical_form(graph)
    assert list(form.vertices()) == list(expected.vertices())
    assert [form.label(v) for v in form.vertices()] == [
        expected.label(v) for v in expected.vertices()
    ]
    assert sorted(form.edges()) == sorted(expected.edges())
    for head in graph.vertices():
        order, head_code = head_distinguished_labelling(graph, head)
        assert head_code == reference.head_distinguished_code(graph, head)
        assert head_distinguished_code(graph, head) == head_code
        assert sorted(order, key=repr) == sorted(graph.vertices(), key=repr)


def cycle(n: int, label="A") -> LabeledGraph:
    graph = LabeledGraph()
    for v in range(n):
        graph.add_vertex(v, label)
    for v in range(n):
        graph.add_edge(v, (v + 1) % n)
    return graph


def complete(n: int, label="A") -> LabeledGraph:
    graph = LabeledGraph()
    for v in range(n):
        graph.add_vertex(v, label)
    for u in range(n):
        for v in range(u + 1, n):
            graph.add_edge(u, v)
    return graph


def complete_bipartite(m: int, n: int, labels=("A", "A")) -> LabeledGraph:
    graph = LabeledGraph()
    for v in range(m + n):
        graph.add_vertex(v, labels[0] if v < m else labels[1])
    for u in range(m):
        for v in range(m, m + n):
            graph.add_edge(u, v)
    return graph


def star(leaves: int, hub="H", leaf="L") -> LabeledGraph:
    graph = LabeledGraph()
    graph.add_vertex(0, hub)
    for v in range(1, leaves + 1):
        graph.add_vertex(v, leaf)
        graph.add_edge(0, v)
    return graph


class TestSymmetricGraphs:
    def test_cycles(self):
        for n in range(3, 10):
            assert_identical(cycle(n))
            assert_identical(cycle(n, label=12))

    def test_cliques(self):
        for n in range(1, 8):
            assert_identical(complete(n))

    def test_complete_bipartite(self):
        for m in range(1, 5):
            for n in range(1, 5):
                assert_identical(complete_bipartite(m, n))
                assert_identical(complete_bipartite(m, n, labels=(1, 12)))

    def test_stars(self):
        for leaves in range(0, 8):
            assert_identical(star(leaves))
            assert_identical(star(leaves, hub="a", leaf="ab"))

    def test_two_disjoint_triangles_and_a_hexagon(self):
        triangles = LabeledGraph()
        for v in range(6):
            triangles.add_vertex(v, "A")
        for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
            triangles.add_edge(a, b)
        assert_identical(triangles)
        assert_identical(cycle(6))
        assert canonical_code(triangles) != canonical_code(cycle(6))


class TestPrefixLabels:
    def test_prefix_reprs_order_like_the_joined_string(self):
        # Symmetric cycles force individualisation, so leaves are compared;
        # "1," < "12," < "123," is the order the joined code strings give.
        for labels in ([1, 12, 123], ["a", "ab", "abc"], [123, 12, 1]):
            graph = cycle(6)
            relabeled = LabeledGraph()
            for v in graph.vertices():
                relabeled.add_vertex(v, labels[v % 3])
            for u, v in graph.edges():
                relabeled.add_edge(u, v)
            assert_identical(relabeled)

    def test_labels_with_commas(self):
        graph = LabeledGraph()
        for v, label in enumerate(["x,y", "x", "y", "x", (1, 2), "x,y"]):
            graph.add_vertex(v, label)
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)):
            graph.add_edge(a, b)
        assert_identical(graph)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(labeled_graphs())
def test_engine_is_byte_identical_to_reference(graph):
    assert_identical(graph)


@settings(max_examples=100, deadline=None)
@given(labeled_graphs(max_vertices=8))
def test_occurrence_code_is_the_subgraph_code(graph):
    occurrence = Occurrence.from_vertices_edges(graph.vertices(), graph.edges())
    expected = reference.canonical_code(occurrence_subgraph(graph, occurrence))
    assert occurrence_code(graph, occurrence) == expected


@settings(max_examples=100, deadline=None)
@given(labeled_graphs(max_vertices=8))
def test_equal_codes_compose_into_an_isomorphism(graph):
    rng = random.Random(graph.num_vertices)
    names = list(range(100, 100 + graph.num_vertices))
    rng.shuffle(names)
    copy = graph.relabeled(dict(zip(graph.vertices(), names)))
    order_a, code_a = canonical_labelling(graph.labels(), graph.adjacency())
    order_b, code_b = canonical_labelling(copy.labels(), copy.adjacency())
    assert code_a == code_b
    rename = dict(zip(order_a, order_b))
    assert all(graph.label(v) == copy.label(rename[v]) for v in graph.vertices())
    assert {frozenset((rename[u], rename[v])) for u, v in graph.edges()} == {
        frozenset(edge) for edge in copy.edges()
    }
