"""The Stage-III report builds only the top-K patterns it returns.

``SpiderMine._report`` ranks archive entries by ``(|V|, |E|, code)`` read off
their first occurrence and walks them largest first, so it converts at most K
entries to :class:`Pattern`.  These tests check it against the eager report it
replaced — build every pattern, filter, sort, slice — on random archives that
include entries failing each filter.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

import repro.core.spidermine as spidermine
from repro.core import SpiderMine, SpiderMineConfig
from repro.core.growth import (
    CandidateEntry,
    GrowthEngine,
    Occurrence,
    occurrence_code,
    occurrences_to_pattern,
)
from repro.graph import LabeledGraph, diameter


def eager_report(graph, archive, engine, config):
    """The pre-change report: every frequent entry becomes a Pattern first."""
    candidates = []
    for entry in archive.values():
        if not engine.is_frequent(entry.occurrences):
            continue
        pattern = occurrences_to_pattern(graph, entry.occurrences)
        if pattern.num_vertices < config.min_vertices_reported:
            continue
        if diameter(pattern.graph) > config.d_max:
            continue
        candidates.append(pattern)
    candidates.sort(key=lambda p: (p.num_vertices, p.num_edges, p.code), reverse=True)
    return candidates[: config.k]


def fingerprint(patterns):
    return [
        (
            p.code,
            [(v, p.graph.label(v)) for v in p.graph.vertices()],
            sorted(p.graph.edges()),
            tuple(p.embeddings),
        )
        for p in patterns
    ]


@st.composite
def archives(draw):
    """Disjoint planted copies of random connected shapes, grouped by code.

    One copy is never frequent at ``min_support=2``; a repeated copy (same
    vertices) adds no support; paths and sizes vary, so entries also fail
    ``d_max`` and ``min_vertices_reported``.
    """
    graph = LabeledGraph()
    archive = {}
    next_id = 0
    for _ in range(draw(st.integers(min_value=0, max_value=10))):
        size = draw(st.integers(min_value=1, max_value=7))
        labels = [draw(st.sampled_from("ABC")) for _ in range(size)]
        edges = [(draw(st.integers(min_value=0, max_value=i - 1)), i) for i in range(1, size)]
        for u in range(size):
            for v in range(u + 2, size):
                if draw(st.integers(min_value=0, max_value=5)) == 0:
                    edges.append((u, v))
        edges = sorted(set(edges))
        occurrences = []
        for _copy in range(draw(st.integers(min_value=1, max_value=3))):
            ids = list(range(next_id, next_id + size))
            next_id += size
            for i, label in zip(ids, labels):
                graph.add_vertex(i, label)
            for u, v in edges:
                graph.add_edge(ids[u], ids[v])
            occurrences.append(
                Occurrence.from_vertices_edges(ids, [(ids[u], ids[v]) for u, v in edges])
            )
        if draw(st.booleans()):
            occurrences.append(occurrences[0])
        code = occurrence_code(graph, occurrences[0])
        if code in archive:
            archive[code].occurrences.extend(occurrences)
        else:
            archive[code] = CandidateEntry(code=code, occurrences=occurrences)
    config = SpiderMineConfig(
        min_support=2,
        k=draw(st.integers(min_value=1, max_value=len(archive) + 2)),
        d_max=draw(st.integers(min_value=1, max_value=6)),
        min_vertices_reported=draw(st.integers(min_value=1, max_value=5)),
    )
    return graph, archive, config


@settings(max_examples=150, deadline=None)
@given(archives())
def test_lazy_report_equals_the_eager_report(case):
    graph, archive, config = case
    engine = GrowthEngine(graph, {}, config)
    expected = eager_report(graph, archive, engine, config)
    with mock.patch.object(
        spidermine, "occurrences_to_pattern", wraps=occurrences_to_pattern
    ) as built:
        reported = SpiderMine(graph, config)._report(archive, engine)
    assert fingerprint(reported) == fingerprint(expected)
    assert built.call_count <= config.k
    assert built.call_count == len(reported)


@settings(max_examples=100, deadline=None)
@given(archives())
def test_rank_key_is_the_pattern_sort_key(case):
    graph, archive, _config = case
    for entry in archive.values():
        pattern = occurrences_to_pattern(graph, entry.occurrences)
        first = entry.occurrences[0]
        assert (first.num_vertices, first.num_edges, entry.code) == (
            pattern.num_vertices,
            pattern.num_edges,
            pattern.code,
        )


def test_k_larger_than_the_candidates_reports_every_survivor():
    graph = LabeledGraph()
    occurrences = []
    for base in (0, 10):
        graph.add_vertex(base, "A")
        graph.add_vertex(base + 1, "B")
        graph.add_edge(base, base + 1)
        occurrences.append(Occurrence.from_vertices_edges([base, base + 1], [(base, base + 1)]))
    graph.add_vertex(20, "C")
    lonely = Occurrence.from_vertices_edges([20], [])
    archive = {
        occurrence_code(graph, occurrences[0]): CandidateEntry(
            code=occurrence_code(graph, occurrences[0]), occurrences=occurrences
        ),
        occurrence_code(graph, lonely): CandidateEntry(
            code=occurrence_code(graph, lonely), occurrences=[lonely]
        ),
    }
    config = SpiderMineConfig(min_support=2, k=10)
    engine = GrowthEngine(graph, {}, config)
    reported = SpiderMine(graph, config)._report(archive, engine)
    assert fingerprint(reported) == fingerprint(eager_report(graph, archive, engine, config))
    assert [p.num_vertices for p in reported] == [2]
