"""Unit tests for the single-graph support measures."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph import LabeledGraph
from repro.patterns import (
    Embedding,
    Pattern,
    SupportMeasure,
    compute_support,
    edge_disjoint_support,
    embedding_image_support,
    harmful_overlap_support,
    is_frequent,
    select_disjoint_embeddings,
)
from repro.patterns import overlap
from repro.patterns.support import image_bound
from tests.conftest import build_path

MIS_MEASURES = [SupportMeasure.HARMFUL_OVERLAP, SupportMeasure.EDGE_DISJOINT]


def chain_graph(length: int, label: str = "A") -> LabeledGraph:
    """A path of ``length`` vertices all with the same label."""
    graph = LabeledGraph()
    for i in range(length):
        graph.add_vertex(i, label)
    for i in range(length - 1):
        graph.add_edge(i, i + 1)
    return graph


def edge_pattern(label: str = "A") -> Pattern:
    pattern = Pattern(graph=build_path([label, label]))
    return pattern


class TestEmbeddingImageSupport:
    def test_counts_distinct_images(self):
        embeddings = [
            Embedding.from_dict({0: 1, 1: 2}),
            Embedding.from_dict({0: 2, 1: 1}),   # same image, other direction
            Embedding.from_dict({0: 3, 1: 4}),
        ]
        assert embedding_image_support(embeddings) == 2

    def test_empty(self):
        assert embedding_image_support([]) == 0


class TestOverlapAwareSupport:
    def test_chain_of_three_vertices(self):
        """A-A-A chain: 2 embeddings of the A-A edge overlap on the middle vertex."""
        graph = chain_graph(3)
        pattern = edge_pattern()
        pattern.recompute_embeddings(graph)
        assert embedding_image_support(pattern.embeddings) == 2
        # Vertex-overlap (harmful) MIS: the two embeddings share vertex 1.
        assert harmful_overlap_support(pattern.embeddings, pattern.graph) == 1
        # Edge-disjoint MIS: the two embeddings use different edges.
        assert edge_disjoint_support(pattern.embeddings, pattern.graph) == 2

    def test_chain_of_five_vertices(self):
        graph = chain_graph(5)
        pattern = edge_pattern()
        pattern.recompute_embeddings(graph)
        assert harmful_overlap_support(pattern.embeddings, pattern.graph) == 2
        assert edge_disjoint_support(pattern.embeddings, pattern.graph) == 4

    def test_disjoint_copies(self, two_copy_graph):
        pattern = Pattern(graph=build_path(["A", "B"]))
        pattern.recompute_embeddings(two_copy_graph)
        assert harmful_overlap_support(pattern.embeddings, pattern.graph) == 2
        assert edge_disjoint_support(pattern.embeddings, pattern.graph) == 2

    def test_single_vertex_pattern_edge_disjoint(self, two_copy_graph):
        pattern = Pattern.single_vertex("A", two_copy_graph)
        assert edge_disjoint_support(pattern.embeddings, pattern.graph) == 2

    def test_empty_embeddings(self):
        pattern = edge_pattern()
        assert harmful_overlap_support([], pattern.graph) == 0
        assert edge_disjoint_support([], pattern.graph) == 0

    def test_edge_disjoint_counts_same_vertex_different_edge_embeddings(self):
        """Regression: dedup must be by *edge* image for the edge-disjoint MIS.

        Pattern 2K2 (two disjoint A-A edges) in a 4-cycle of A vertices has
        two embeddings covering the same four vertices through disjoint edge
        pairs — {01, 23} and {12, 30}.  Deduplicating by vertex image silently
        dropped one of them and reported support 1; the Vanetik-style measure
        counts both.
        """
        cycle = LabeledGraph()
        for i in range(4):
            cycle.add_vertex(i, "A")
        for i in range(4):
            cycle.add_edge(i, (i + 1) % 4)
        two_edges = LabeledGraph()
        for i in range(4):
            two_edges.add_vertex(i, "A")
        two_edges.add_edge(0, 1)
        two_edges.add_edge(2, 3)
        pattern = Pattern(graph=two_edges)
        emb_a = Embedding.from_dict({0: 0, 1: 1, 2: 2, 3: 3})  # edges {01, 23}
        emb_b = Embedding.from_dict({0: 1, 1: 2, 2: 3, 3: 0})  # edges {12, 30}
        assert emb_a.is_valid(pattern.graph, cycle) and emb_b.is_valid(pattern.graph, cycle)
        assert emb_a.image == emb_b.image
        assert not (emb_a.edge_image(pattern.graph) & emb_b.edge_image(pattern.graph))
        embeddings = [emb_a, emb_b]
        assert edge_disjoint_support(embeddings, pattern.graph) == 2
        # Sharing every vertex still collapses the vertex-overlap measures.
        assert harmful_overlap_support(embeddings, pattern.graph) == 1
        assert embedding_image_support(embeddings) == 1
        # And the witnesses themselves are selectable.
        chosen = select_disjoint_embeddings(embeddings, pattern.graph, edge_based=True)
        assert sorted(chosen, key=repr) == sorted(embeddings, key=repr)

    def test_anti_monotonicity_on_chain(self):
        """Harmful-overlap support never increases when the pattern grows."""
        graph = chain_graph(7)
        small = edge_pattern()
        small.recompute_embeddings(graph)
        big = Pattern(graph=build_path(["A", "A", "A"]))
        big.recompute_embeddings(graph)
        assert harmful_overlap_support(big.embeddings, big.graph) <= harmful_overlap_support(
            small.embeddings, small.graph
        )


class TestComputeSupportAndFrequency:
    def test_compute_support_dispatch(self, two_copy_graph):
        pattern = Pattern(graph=build_path(["A", "B"]))
        pattern.recompute_embeddings(two_copy_graph)
        assert compute_support(pattern, SupportMeasure.EMBEDDING_IMAGES) == 2
        assert compute_support(pattern, SupportMeasure.EDGE_DISJOINT) == 2
        assert compute_support(pattern, SupportMeasure.HARMFUL_OVERLAP) == 2

    def test_compute_support_unknown_measure(self, two_copy_graph):
        pattern = Pattern(graph=build_path(["A", "B"]))
        with pytest.raises(ValueError):
            compute_support(pattern, "not-a-measure")  # type: ignore[arg-type]

    def test_is_frequent_threshold(self):
        graph = chain_graph(3)
        pattern = edge_pattern()
        pattern.recompute_embeddings(graph)
        assert is_frequent(pattern, 1)
        assert not is_frequent(pattern, 2)  # harmful overlap collapses to 1
        assert is_frequent(pattern, 2, measure=SupportMeasure.EDGE_DISJOINT)

    def test_is_frequent_zero_threshold(self):
        """A pattern with no embeddings is never frequent, even at threshold <= 0."""
        pattern = edge_pattern()
        assert not is_frequent(pattern, 0)
        assert not is_frequent(pattern, -1)
        pattern.add_embedding(Embedding.from_dict({0: 1, 1: 2}))
        assert is_frequent(pattern, 0)
        assert is_frequent(pattern, -1)

    def test_is_frequent_short_circuits_on_raw_count(self):
        pattern = edge_pattern()
        pattern.add_embedding(Embedding.from_dict({0: 1, 1: 2}))
        assert not is_frequent(pattern, 5)

    def test_string_measure_coerced_by_enum(self):
        assert SupportMeasure("harmful_overlap") is SupportMeasure.HARMFUL_OVERLAP


class TestDisjointSelection:
    def test_select_vertex_disjoint(self):
        graph = chain_graph(5)
        pattern = edge_pattern()
        pattern.recompute_embeddings(graph)
        chosen = select_disjoint_embeddings(pattern.embeddings, pattern.graph)
        assert len(chosen) == 2
        images = [set(e.image) for e in chosen]
        assert not (images[0] & images[1])

    def test_select_edge_disjoint(self):
        graph = chain_graph(4)
        pattern = edge_pattern()
        pattern.recompute_embeddings(graph)
        chosen = select_disjoint_embeddings(pattern.embeddings, pattern.graph, edge_based=True)
        assert len(chosen) == 3

    def test_select_empty(self):
        pattern = edge_pattern()
        assert select_disjoint_embeddings([], pattern.graph) == []


# --------------------------------------------------------------------------- #
# deciding frequency == thresholding the full support
# --------------------------------------------------------------------------- #
@st.composite
def embedded_patterns(draw):
    """A small graph (optionally with a hub on vertex 0) and a path/star pattern."""
    n = draw(st.integers(min_value=2, max_value=10))
    graph = LabeledGraph()
    for i in range(n):
        graph.add_vertex(i, draw(st.sampled_from("AB")))
    hub = draw(st.booleans())
    for i in range(n):
        for j in range(i + 1, n):
            if (hub and i == 0) or draw(st.booleans()):
                graph.add_edge(i, j)
    star = draw(st.booleans())
    pattern_graph = LabeledGraph()
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        pattern_graph.add_vertex(i, draw(st.sampled_from("AB")))
        if i:
            pattern_graph.add_edge(0 if star else i - 1, i)
    pattern = Pattern(graph=pattern_graph)
    pattern.recompute_embeddings(graph, limit=60)
    return pattern


def _edge_based(pattern: Pattern, measure: SupportMeasure) -> bool:
    return measure is SupportMeasure.EDGE_DISJOINT and pattern.graph.num_edges > 0


PROPERTY_SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@PROPERTY_SETTINGS
@given(
    pattern=embedded_patterns(),
    measure=st.sampled_from(MIS_MEASURES),
    exact_limit=st.sampled_from([0, 4, 18]),
    data=st.data(),
)
def test_is_frequent_equals_full_support_at_threshold(pattern, measure, exact_limit, data):
    """Every decision step gives the boolean the full support computation gives.

    σ is drawn around the image bound, the distinct-image count and the
    support itself, where an off-by-one in any step would show; small
    ``exact_limit`` values push the decision onto the greedy path.
    """
    support = compute_support(pattern, measure, exact_limit)
    edge_based = _edge_based(pattern, measure)
    if edge_based:
        distinct = len({e.edge_image(pattern.graph) for e in pattern.embeddings})
    else:
        distinct = embedding_image_support(pattern.embeddings)
    bound = image_bound(pattern.embeddings, pattern.graph, edge_based)
    near = {1, support, support + 1}
    for value in (bound, distinct):
        near |= {value - 1, value, value + 1}
    sigma = data.draw(st.sampled_from(sorted(v for v in near if v >= 1)), label="sigma")
    assert is_frequent(pattern, sigma, measure, exact_limit) == (support >= sigma)


@PROPERTY_SETTINGS
@given(pattern=embedded_patterns(), measure=st.sampled_from(MIS_MEASURES))
def test_image_bound_is_an_upper_bound_on_the_exact_mis(pattern, measure):
    exact = compute_support(pattern, measure, exact_limit=20)
    assert exact <= image_bound(pattern.embeddings, pattern.graph, _edge_based(pattern, measure))


def test_image_bound_rejects_a_hub_without_building_the_conflict_graph(monkeypatch):
    """A star around one hub: many distinct images, but every one uses the hub."""
    graph = LabeledGraph()
    graph.add_vertex("hub", "A")
    for i in range(30):
        graph.add_vertex(i, "B")
        graph.add_edge("hub", i)
    pattern = Pattern(graph=build_path(["A", "B"]))
    pattern.recompute_embeddings(graph)
    assert embedding_image_support(pattern.embeddings) == 30
    assert image_bound(pattern.embeddings, pattern.graph, edge_based=False) == 1

    def no_conflict_graph(self, edge_based=False):
        raise AssertionError("the image bound should have decided")

    monkeypatch.setattr(overlap.EmbeddingIndex, "conflict_graph", no_conflict_graph)
    assert not is_frequent(pattern, 2)
    # Edge-disjoint: the 30 spokes are distinct edges, so the bound passes.
    monkeypatch.undo()
    assert is_frequent(pattern, 30, measure=SupportMeasure.EDGE_DISJOINT)
