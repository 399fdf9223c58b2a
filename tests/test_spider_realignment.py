"""Stage-I realignment through canonical orders, without a matcher.

Two Stage-I candidates with one head-distinguished code are realigned by
pairing their canonical orders position by position.  These tests check that
the pairing is a head-preserving isomorphism, and that Stage I needs no
``SubgraphMatcher`` yet keeps exactly the (head image, vertex image, edge
image) triples of the old matcher-based realignment.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.core.spider_miner as spider_miner
import repro.graph.isomorphism as isomorphism
from repro.core import SpiderMineConfig, SpiderMiner
from repro.graph import LabeledGraph, freeze, synthetic_single_graph
from repro.graph.isomorphism import SubgraphMatcher
from repro.parallel import ExecutionPolicy
from repro.patterns import SupportMeasure
from repro.patterns.spider import head_distinguished_labelling

_HEAD = 0


@st.composite
def spiders(draw, label_sets=(["A"], ["A", "B"], [1, 12])):
    """A connected labeled graph with head 0: every vertex hangs off an earlier one."""
    n = draw(st.integers(min_value=1, max_value=8))
    labels = draw(st.sampled_from(label_sets))
    graph = LabeledGraph()
    for v in range(n):
        graph.add_vertex(v, draw(st.sampled_from(labels)))
    for v in range(1, n):
        graph.add_edge(draw(st.integers(min_value=0, max_value=v - 1)), v)
    for u in range(n):
        for v in range(u + 2, n):
            if draw(st.booleans()) and not graph.has_edge(u, v):
                graph.add_edge(u, v)
    return graph


@settings(max_examples=200, deadline=None)
@given(spiders(), st.integers(min_value=0, max_value=10**6))
def test_order_composition_is_a_head_preserving_isomorphism(graph, seed):
    rng = random.Random(seed)
    names = list(range(50, 50 + graph.num_vertices))
    rng.shuffle(names)
    relabel = dict(zip(graph.vertices(), names))
    # Re-insert the vertices in a shuffled order too: canonical orders must
    # not depend on how a candidate happened to be built.
    insertion = list(graph.vertices())
    rng.shuffle(insertion)
    copy = LabeledGraph()
    for v in insertion:
        copy.add_vertex(relabel[v], graph.label(v))
    for u, v in graph.edges():
        copy.add_edge(relabel[u], relabel[v])
    head = relabel[_HEAD]

    target_order, target_code = head_distinguished_labelling(graph, _HEAD)
    extra_order, extra_code = head_distinguished_labelling(copy, head)
    assert extra_code == target_code
    rename = dict(zip(extra_order, target_order))
    assert rename[head] == _HEAD
    assert all(copy.label(v) == graph.label(rename[v]) for v in copy.vertices())
    assert {frozenset((rename[u], rename[v])) for u, v in copy.edges()} == {
        frozenset(edge) for edge in graph.edges()
    }


# ---------------------------------------------------------------------- #
# Stage-I regression against the matcher-based realignment
# ---------------------------------------------------------------------- #
class MatcherRealignedMiner(SpiderMiner):
    """Stage I with the pre-engine ``_merge_embeddings``: an anchored matcher search."""

    def _merge_embeddings(self, target, target_order, extra, extra_order):
        if extra.graph == target.graph:
            rename = {v: v for v in extra.graph.vertices()}
        else:
            matcher = SubgraphMatcher(extra.graph, target.graph, induced=True)
            found = matcher.find_embeddings(limit=1, anchor=(_HEAD, _HEAD))
            if not found:
                return
            rename = found[0]
        seen = {(m[_HEAD], frozenset(m.values())) for m in target.embeddings}
        for mapping in extra.embeddings:
            remapped = {rename[p]: g for p, g in mapping.items()}
            key = (remapped[_HEAD], frozenset(remapped.values()))
            if key not in seen and len(target.embeddings) < self.config.max_embeddings_per_pattern:
                target.embeddings.append(remapped)
                seen.add(key)


def triples(spiders):
    """Per spider, in order: its code and each embedding's (head, vertex, edge) image."""
    return [
        (
            spider.spider_code(),
            [
                (e[spider.head], e.image, e.edge_image(spider.graph))
                for e in spider.embeddings
            ],
        )
        for spider in spiders
    ]


@pytest.fixture(scope="module")
def label_poor_graph():
    # Few labels and planted repeats: many growth orders reach one spider, so
    # Stage I merges often, with non-trivial renames.
    return synthetic_single_graph(
        num_vertices=90,
        num_labels=4,
        average_degree=2.4,
        num_large_patterns=2,
        large_pattern_vertices=6,
        large_pattern_support=2,
        num_small_patterns=2,
        small_pattern_vertices=3,
        small_pattern_support=3,
        seed=11,
    ).graph


def _config(measure, workers=1):
    execution = (
        ExecutionPolicy.process_pool(workers) if workers > 1 else ExecutionPolicy.serial()
    )
    return SpiderMineConfig(
        min_support=2,
        max_spider_size=4,
        max_embeddings_per_pattern=60,
        support_measure=measure,
        execution=execution,
    )


@pytest.fixture(scope="module")
def matcher_reference(label_poor_graph):
    return {
        measure: triples(MatcherRealignedMiner(label_poor_graph, _config(measure)).mine())
        for measure in (SupportMeasure.HARMFUL_OVERLAP, SupportMeasure.EDGE_DISJOINT)
    }


def _no_matcher(*_args, **_kwargs):
    raise AssertionError("Stage I must not construct a SubgraphMatcher")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", ["dict", "csr"])
@pytest.mark.parametrize(
    "measure", [SupportMeasure.HARMFUL_OVERLAP, SupportMeasure.EDGE_DISJOINT]
)
def test_stage_one_needs_no_matcher_and_keeps_the_triples(
    monkeypatch, label_poor_graph, matcher_reference, measure, backend, workers
):
    graph = freeze(label_poor_graph) if backend == "csr" else label_poor_graph
    monkeypatch.setattr(spider_miner, "SubgraphMatcher", _no_matcher, raising=False)
    monkeypatch.setattr(isomorphism, "SubgraphMatcher", _no_matcher)
    spiders = SpiderMiner(graph, _config(measure, workers)).mine()
    assert triples(spiders) == matcher_reference[measure]


def test_stage_one_merges_with_non_identity_renames(monkeypatch, label_poor_graph):
    renames = []
    original = SpiderMiner._merge_embeddings

    def spy(self, target, target_order, extra, extra_order):
        renames.append(dict(zip(extra_order, target_order)))
        return original(self, target, target_order, extra, extra_order)

    monkeypatch.setattr(SpiderMiner, "_merge_embeddings", spy)
    SpiderMiner(label_poor_graph, _config(SupportMeasure.HARMFUL_OVERLAP)).mine()
    assert renames, "the regression graph must exercise Stage-I merges"
    assert any(any(p != q for p, q in rename.items()) for rename in renames)


def _path_candidate(names, data_vertices):
    """A head-rooted path H-A-B-C whose pattern vertices are ``names``, in path order."""
    graph = LabeledGraph()
    for name, label in zip(names, "HABC"):
        graph.add_vertex(name, label)
    for u, v in zip(names, names[1:]):
        graph.add_edge(u, v)
    depth = {name: i for i, name in enumerate(names)}
    return spider_miner._Candidate(
        graph=graph, depth=depth, embeddings=[dict(zip(names, data_vertices))]
    )


def test_merge_renames_extra_vertices_onto_the_target():
    # The extra candidate names the path 0-2-3-1, the target 0-1-2-3: the
    # rename is a 3-cycle, so applying its inverse would be caught.
    target = _path_candidate([0, 1, 2, 3], [10, 11, 12, 13])
    extra = _path_candidate([0, 2, 3, 1], [20, 21, 22, 23])
    target_order, target_code = head_distinguished_labelling(target.graph, _HEAD)
    extra_order, extra_code = head_distinguished_labelling(extra.graph, _HEAD)
    assert target_code == extra_code
    miner = SpiderMiner(LabeledGraph(), SpiderMineConfig(min_support=1))
    miner._merge_embeddings(target, target_order, extra, extra_order)
    assert target.embeddings == [
        {0: 10, 1: 11, 2: 12, 3: 13},
        {0: 20, 1: 21, 2: 22, 3: 23},
    ]


def _image_triples(candidate):
    edges = list(candidate.graph.edges())
    return [
        (
            m[_HEAD],
            frozenset(m.values()),
            frozenset(frozenset((m[u], m[v])) for u, v in edges),
        )
        for m in candidate.embeddings
    ]


@settings(max_examples=300, deadline=None)
@given(spiders(label_sets=(["a", "a★"],)), st.data())
def test_merge_keeps_extra_embeddings_exactly_when_the_matcher_did(graph, data):
    # The extra spider is the target graph headed at another vertex w whose
    # data label is the tagged head label: the two labels are swapped, so
    # both tag to one graph and share a code.  A head-preserving isomorphism
    # exists exactly when an automorphism maps w onto the head; the order
    # pairing may move the head either way.
    tagged = f"{graph.label(_HEAD)}★"
    others = [v for v in graph.vertices() if v != _HEAD and graph.label(v) == tagged]
    assume(others)
    w = data.draw(st.sampled_from(others))
    names = data.draw(st.permutations([v for v in graph.vertices() if v != w]))
    relabel = {w: _HEAD, **{v: i + 1 for i, v in enumerate(names)}}
    extra_graph = LabeledGraph()
    for v in data.draw(st.permutations(list(graph.vertices()))):
        label = graph.label(_HEAD) if v == w else tagged if v == _HEAD else graph.label(v)
        extra_graph.add_vertex(relabel[v], label)
    for u, v in graph.edges():
        extra_graph.add_edge(relabel[u], relabel[v])

    def candidates():
        target = spider_miner._Candidate(
            graph=graph, depth={}, embeddings=[{v: ("t", v) for v in graph.vertices()}]
        )
        extra = spider_miner._Candidate(
            graph=extra_graph,
            depth={},
            embeddings=[{p: ("x", v) for v, p in relabel.items()}],
        )
        return target, extra

    target_order, target_code = head_distinguished_labelling(graph, _HEAD)
    extra_order, extra_code = head_distinguished_labelling(extra_graph, _HEAD)
    assert extra_code == target_code
    config = SpiderMineConfig(min_support=1)
    merged, extra = candidates()
    SpiderMiner(LabeledGraph(), config)._merge_embeddings(
        merged, target_order, extra, extra_order
    )
    reference, extra = candidates()
    MatcherRealignedMiner(LabeledGraph(), config)._merge_embeddings(
        reference, target_order, extra, extra_order
    )
    assert _image_triples(merged) == _image_triples(reference)


def test_a_head_moving_pairing_is_composed_with_an_automorphism():
    # b-a-a★-b headed at the a: tagged, the path reads b-a★-a★-b and its
    # reflection swaps the head with the a★ vertex.  Composing the target's
    # canonical order with that reflection gives an order with the same code
    # whose pairing moves the head; the merge must still realign head to head.
    graph = LabeledGraph()
    for v, label in [(2, "b"), (0, "a"), (1, "a★"), (3, "b")]:
        graph.add_vertex(v, label)
    for u, v in [(2, 0), (0, 1), (1, 3)]:
        graph.add_edge(u, v)
    order, _code = head_distinguished_labelling(graph, _HEAD)
    reflection = {0: 1, 1: 0, 2: 3, 3: 2}
    target = spider_miner._Candidate(graph=graph, depth={}, embeddings=[])
    extra = spider_miner._Candidate(
        graph=graph, depth={}, embeddings=[{0: 10, 1: 11, 2: 12, 3: 13}]
    )
    miner = SpiderMiner(LabeledGraph(), SpiderMineConfig(min_support=1))
    miner._merge_embeddings(target, [reflection[v] for v in order], extra, order)
    assert target.embeddings == [{0: 10, 1: 11, 2: 12, 3: 13}]


def test_a_data_label_carrying_the_head_tag_never_misaligns_the_head():
    # Path spiders a-a★-b headed at the end and a★-a-b headed in the middle
    # tag to the same labelled path, so they share a code although no
    # head-preserving isomorphism exists.  Their embeddings must not be
    # merged: the old matcher found nothing, and the order pairing would map
    # one head onto a non-head vertex.
    graph = LabeledGraph()
    next_id = 0
    for labels in [("a", "a★", "b")] * 3 + [("a★", "a", "b")] * 3:
        ids = range(next_id, next_id + 3)
        next_id += 3
        for v, label in zip(ids, labels):
            graph.add_vertex(v, label)
        graph.add_edge(ids[0], ids[1])
        graph.add_edge(ids[1], ids[2])
    config = SpiderMineConfig(min_support=2, radius=2, max_spider_size=3)
    expected = triples(MatcherRealignedMiner(graph, config).mine())
    spiders = SpiderMiner(graph, config).mine()
    assert triples(spiders) == expected
    for spider in spiders:
        for embedding in spider.embeddings:
            assert graph.label(embedding[spider.head]) == spider.head_label
