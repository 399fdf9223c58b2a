"""Stage I of SpiderMine: mine all frequent r-spiders.

A level-wise pattern-growth search anchored at the spider head.  Level 0 is
the set of frequent single-vertex patterns (one per frequent label); each
level extends every spider either *forward* (a new edge from a pattern vertex
at depth < r to a fresh vertex) or by *closing* an edge between two existing
pattern vertices.  Both operations keep the pattern r-bounded from the head,
so by construction every generated pattern is an r-spider (Definition 4) and
— because the search is exhaustive up to ``max_spider_size`` vertices — Stage
I "knows all the frequent patterns up to a diameter 2r with all their
embeddings", as the paper requires.

Candidates are deduplicated with head-distinguished canonical codes; support
is computed with the configured single-graph measure.

Mining units
------------
Spider codes distinguish the head's label, so the search trees rooted at
different frequent labels never interact: no code collision, no shared
frontier, no shared support counting.  The miner exploits that by splitting
the search into **units** — one per frequent label, in canonical (repr-sorted)
label order — each mined independently by :meth:`SpiderMiner.mine_unit` into
per-level spider buckets.  :func:`merge_unit_levels` then interleaves the
buckets level-major / unit-minor, which reproduces the insertion order of the
classic single-loop search exactly (including ``max_spiders`` truncation).
Units are the fan-out boundary of the parallel engine
(:mod:`repro.parallel.driver`): because the merge is canonical, serial and
process-pool runs are bit-identical for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from ..graph.isomorphism import SubgraphMatcher
from ..graph.labeled_graph import LabeledGraph, Vertex
from ..graph.view import GraphView
from ..obs import get_registry, get_tracer
from ..patterns.embedding import Embedding
from ..patterns.spider import Spider, head_distinguished_code
from ..patterns.support import SupportMeasure, is_frequent
from .config import SpiderMineConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..parallel.policy import ExecutionPolicy

_HEAD = 0  # the head is always pattern vertex 0


@dataclass
class _Candidate:
    """A spider candidate under construction (graph + anchored embeddings)."""

    graph: LabeledGraph
    depth: Dict[int, int]                       # pattern vertex -> distance from head
    embeddings: List[Dict[int, Vertex]]         # pattern vertex -> data vertex


class SpiderMiner:
    """Mines all frequent r-spiders of a single data graph.

    ``graph`` is any read-only :class:`GraphView` — pass a
    :class:`~repro.graph.frozen.FrozenGraph` snapshot for large inputs; the
    miner never mutates it.  Pattern graphs under construction stay mutable.
    """

    def __init__(
        self,
        graph: GraphView,
        config: Optional[SpiderMineConfig] = None,
        run_cache=None,
    ) -> None:
        self.graph = graph
        self.config = config or SpiderMineConfig()
        self._unit_labels: Optional[List[Hashable]] = None
        # An optional already-open catalog RunCache (shared by SpiderMine so
        # the graph digest is computed once per mine).  The cache *policy*
        # still comes from config.cache; this only reuses the handle.
        self._run_cache = run_cache

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def mine(self) -> List[Spider]:
        """All frequent r-spiders, each with its (possibly capped) embedding list.

        Execution follows ``config.execution``: the serial policy mines every
        unit in-process; a process policy fans units out over a worker pool
        sharing one zero-copy graph snapshot.  Both paths feed
        :func:`merge_unit_levels`, so the returned list is identical.

        With an active ``config.cache``, the catalog's run cache is consulted
        first under the ``spiders`` kind (keyed on the Stage-I-relevant config
        fields only): a hit skips the search — including the whole parallel
        fan-out — and re-serves the stored spider list unchanged.
        """
        cache = None
        policy = self.config.cache
        if policy.enabled:
            cache = self._run_cache
            if cache is None:
                from ..catalog.cache import RunCache

                cache = RunCache(policy.directory)
            if policy.reads:
                cached = cache.load_spiders(self.graph, self.config)
                if cached is not None:
                    return cached
        if self.config.execution.uses_processes and self.unit_labels():
            from ..parallel.driver import mine_units_in_processes

            unit_levels = mine_units_in_processes(
                self.graph, self.config, num_units=len(self.unit_labels())
            )
        else:
            unit_levels = self._mine_units_serial()
        spiders = merge_unit_levels(unit_levels, self.config.max_spiders)
        registry = get_registry()
        if registry.enabled:
            registry.counter("mine.stage1.units", len(unit_levels))
            registry.counter("mine.stage1.spiders", len(spiders))
        if cache is not None and policy.writes:
            cache.store_spiders(self.graph, self.config, spiders)
        return spiders

    def _mine_units_serial(self) -> Dict[int, List[List[Spider]]]:
        """All units in-process, level-synchronized across units.

        Units advance one level at a time, round-robin, and expansion stops as
        soon as the mined total reaches ``max_spiders``: everything past that
        point sits after the truncation cut of :func:`merge_unit_levels`
        (levels only deepen), so the serial path never does meaningfully more
        work than the classic single-frontier search did when the cap binds.
        """
        cap = self.config.max_spiders
        searches = {
            unit: self.iter_unit_levels(unit) for unit in range(len(self.unit_labels()))
        }
        unit_levels: Dict[int, List[List[Spider]]] = {unit: [] for unit in searches}
        active = sorted(searches)
        total = 0
        # The round-robin interleave means no per-unit block of code to wrap
        # in a span: per-unit time is accumulated across level steps and
        # emitted as synthetic completed spans afterwards (Tracer.record).
        tracer = get_tracer()
        timing = tracer.enabled
        elapsed: Dict[int, float] = {}
        while active and total < cap:
            still_active = []
            for unit in active:
                if timing:
                    step_start = time.monotonic()
                bucket = next(searches[unit], None)
                if timing:
                    elapsed[unit] = (
                        elapsed.get(unit, 0.0) + time.monotonic() - step_start
                    )
                if bucket is None:
                    continue
                unit_levels[unit].append(bucket)
                total += len(bucket)
                still_active.append(unit)
            active = still_active
        if timing:
            for unit in sorted(elapsed):
                tracer.record(
                    "mine.stage1.unit",
                    elapsed[unit],
                    unit=unit,
                    spiders=sum(len(bucket) for bucket in unit_levels[unit]),
                )
        return unit_levels

    def unit_labels(self) -> List[Hashable]:
        """The mining units: frequent labels in canonical (repr-sorted) order.

        Frequency here is the raw member count — the same pre-filter the
        level-0 candidates always used — so the unit list is a pure function
        of (graph, min_support) and agrees across processes and backends.
        """
        if self._unit_labels is None:
            counts = self.graph.label_counts()
            self._unit_labels = [
                label
                for label in sorted(counts, key=repr)
                if counts[label] >= self.config.min_support
            ]
        return self._unit_labels

    def mine_unit(self, unit: int) -> List[List[Spider]]:
        """Mine one unit exhaustively: per-level lists of frequent spiders.

        Pure with respect to the unit index: touches only the (read-only)
        data graph and the config, so units can run in any order, in any
        process.  ``levels[d]`` holds the frequent spiders first reached by
        ``d`` extension steps, in the deterministic discovery order of the
        level-wise search restricted to this unit's root label.
        """
        return list(self.iter_unit_levels(unit))

    def iter_unit_levels(self, unit: int):
        """Lazily yield one unit's per-level spider buckets (see :meth:`mine_unit`).

        The serial path consumes units through this generator so it can stop
        all searches as soon as the global ``max_spiders`` cap is covered;
        workers simply drain it.
        """
        config = self.config
        root = self._initial_candidate(self.unit_labels()[unit])
        mined: Set[str] = set()
        level0: List[Spider] = []
        spider = self._to_spider(root)
        if spider is not None:
            mined.add(spider.spider_code())
            level0.append(spider)
        yield level0
        # The root stays on the frontier even when its own support measure
        # falls short — level 0 has always seeded extensions unconditionally.
        frontier = [root]
        while frontier and len(mined) < config.max_spiders:
            next_by_code: Dict[str, _Candidate] = {}
            for candidate in frontier:
                at_size_cap = candidate.graph.num_vertices >= config.max_spider_size
                # At the vertex cap, closing edges (which add no vertex) are
                # still allowed so cyclic spiders like triangles are not lost.
                extensions = (
                    self._closing_extensions(candidate)
                    if at_size_cap
                    else self._extensions(candidate)
                )
                for extended in extensions:
                    code = head_distinguished_code(extended.graph, _HEAD)
                    if code in mined:
                        continue
                    existing = next_by_code.get(code)
                    if existing is None:
                        next_by_code[code] = extended
                    else:
                        self._merge_embeddings(existing, extended)
            frontier = []
            bucket: List[Spider] = []
            for code, candidate in next_by_code.items():
                spider = self._to_spider(candidate)
                if spider is None:
                    continue
                mined.add(code)
                bucket.append(spider)
                frontier.append(candidate)
                if len(mined) >= config.max_spiders:
                    break
            yield bucket

    # ------------------------------------------------------------------ #
    # level 0
    # ------------------------------------------------------------------ #
    def _initial_candidate(self, label: Hashable) -> _Candidate:
        """The single-vertex root candidate of one unit."""
        vertices = sorted(self.graph.vertices_with_label(label), key=repr)
        pattern = LabeledGraph()
        pattern.add_vertex(_HEAD, label)
        embeddings = [{_HEAD: v} for v in vertices]
        return _Candidate(graph=pattern, depth={_HEAD: 0}, embeddings=self._cap(embeddings))

    # ------------------------------------------------------------------ #
    # extension generation
    # ------------------------------------------------------------------ #
    def _extensions(self, candidate: _Candidate) -> List[_Candidate]:
        """All frequent one-step extensions of ``candidate``."""
        forward = self._forward_extensions(candidate)
        closing = self._closing_extensions(candidate)
        return forward + closing

    def _forward_extensions(self, candidate: _Candidate) -> List[_Candidate]:
        config = self.config
        radius = config.radius
        # descriptor: (attach vertex, new label) -> list of extended embeddings
        grouped: Dict[Tuple[int, object], List[Dict[int, Vertex]]] = {}
        attach_points = [v for v, d in candidate.depth.items() if d < radius]
        for mapping in candidate.embeddings:
            used = set(mapping.values())
            for p_vertex in attach_points:
                g_vertex = mapping[p_vertex]
                for neighbor in sorted(self.graph.neighbors(g_vertex), key=repr):
                    if neighbor in used:
                        continue
                    key = (p_vertex, self.graph.label(neighbor))
                    new_mapping = dict(mapping)
                    new_mapping[max(candidate.graph.vertices()) + 1] = neighbor
                    grouped.setdefault(key, []).append(new_mapping)

        extensions: List[_Candidate] = []
        new_vertex = max(candidate.graph.vertices()) + 1
        for (p_vertex, label), mappings in grouped.items():
            if len(mappings) < config.min_support:
                continue
            graph = candidate.graph.copy()
            graph.add_vertex(new_vertex, label)
            graph.add_edge(p_vertex, new_vertex)
            depth = dict(candidate.depth)
            depth[new_vertex] = depth[p_vertex] + 1
            extensions.append(
                _Candidate(graph=graph, depth=depth, embeddings=self._dedupe(mappings))
            )
        return extensions

    def _closing_extensions(self, candidate: _Candidate) -> List[_Candidate]:
        config = self.config
        vertices = sorted(candidate.graph.vertices())
        if len(vertices) < 3:
            return []
        grouped: Dict[Tuple[int, int], List[Dict[int, Vertex]]] = {}
        non_edges = [
            (u, v)
            for i, u in enumerate(vertices)
            for v in vertices[i + 1:]
            if not candidate.graph.has_edge(u, v)
        ]
        if not non_edges:
            return []
        for mapping in candidate.embeddings:
            for u, v in non_edges:
                if self.graph.has_edge(mapping[u], mapping[v]):
                    grouped.setdefault((u, v), []).append(dict(mapping))
        extensions: List[_Candidate] = []
        for (u, v), mappings in grouped.items():
            if len(mappings) < config.min_support:
                continue
            graph = candidate.graph.copy()
            graph.add_edge(u, v)
            depth = dict(candidate.depth)
            extensions.append(
                _Candidate(graph=graph, depth=depth, embeddings=self._dedupe(mappings))
            )
        return extensions

    # ------------------------------------------------------------------ #
    # bookkeeping helpers
    # ------------------------------------------------------------------ #
    def _dedupe(self, mappings: List[Dict[int, Vertex]]) -> List[Dict[int, Vertex]]:
        """Keep one mapping per (head image, vertex image set), capped."""
        seen: Set[Tuple[Vertex, FrozenSet[Vertex]]] = set()
        unique: List[Dict[int, Vertex]] = []
        for mapping in mappings:
            key = (mapping[_HEAD], frozenset(mapping.values()))
            if key in seen:
                continue
            seen.add(key)
            unique.append(mapping)
        return self._cap(unique)

    def _cap(self, mappings: List[Dict[int, Vertex]]) -> List[Dict[int, Vertex]]:
        cap = self.config.max_embeddings_per_pattern
        if len(mappings) <= cap:
            return mappings
        return mappings[:cap]

    def _merge_embeddings(self, target: _Candidate, extra: _Candidate) -> None:
        """Union the embedding lists of two candidates for the same spider code.

        Candidates reached through different growth orders can name their
        pattern vertices differently even though the codes agree, so the extra
        embeddings are realigned through one head-preserving isomorphism
        before being unioned.  The anchored search runs in BFS order rooted at
        the head (the matcher's anchored-order contract), so it never degrades
        to label-scan candidate pools on these connected spider graphs.

        *Which* head-preserving isomorphism is found first does not matter
        downstream: two choices differ by an automorphism fixing the head, so
        the realigned embeddings have identical (head image, vertex image,
        edge image) triples — the dedup key here and everything Stage II/III
        reads (occurrence images, the head index).  Only the literal mapping
        dicts differ, which reach nothing but the version-fenced spiders
        cache payload; mining result digests were verified bit-identical
        across the 1.5.0 anchored-order change on merge-heavy runs.
        """
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

    def _to_spider(self, candidate: _Candidate) -> Optional[Spider]:
        """Build a :class:`Spider` if the candidate is frequent, else ``None``.

        Frequency goes through ``is_frequent``: its raw-count,
        distinct-image and image-bound steps reject most candidates without
        a conflict graph, and the MIS that remains stops at ``min_support``.
        """
        embeddings = [Embedding.from_dict(m) for m in candidate.embeddings]
        spider = Spider(
            graph=candidate.graph.copy(),
            embeddings=embeddings,
            head=_HEAD,
            radius=self.config.radius,
        )
        if not is_frequent(
            spider, self.config.min_support, measure=self.config.support_measure
        ):
            return None
        return spider


def merge_unit_levels(
    unit_levels: Dict[int, List[List[Spider]]], max_spiders: int
) -> List[Spider]:
    """Deterministic merge of per-unit spider buckets into the result list.

    Interleaves level-major / unit-minor — all level-``d`` spiders, units in
    canonical order, before any level-``d+1`` spider — and truncates at
    ``max_spiders``.  This is exactly the insertion order of the classic
    single-frontier search, so the merged list is independent of *where* and
    in *what order* the units were mined: the determinism guarantee of the
    parallel engine.
    """
    merged: List[Spider] = []
    if max_spiders <= 0:
        return merged
    depth = max((len(levels) for levels in unit_levels.values()), default=0)
    for level in range(depth):
        for unit in sorted(unit_levels):
            levels = unit_levels[unit]
            if level >= len(levels):
                continue
            for spider in levels[level]:
                merged.append(spider)
                if len(merged) >= max_spiders:
                    return merged
    return merged


def mine_spiders(
    graph: GraphView,
    min_support: int,
    radius: int = 1,
    max_spider_size: int = 6,
    support_measure: SupportMeasure = SupportMeasure.HARMFUL_OVERLAP,
    max_spiders: int = 20000,
    max_embeddings_per_pattern: int = 400,
    execution: Optional["ExecutionPolicy"] = None,
) -> List[Spider]:
    """Convenience wrapper around :class:`SpiderMiner` (the paper's ``InitSpider``)."""
    config = SpiderMineConfig(
        min_support=min_support,
        radius=radius,
        max_spider_size=max_spider_size,
        support_measure=support_measure,
        max_spiders=max_spiders,
        max_embeddings_per_pattern=max_embeddings_per_pattern,
    )
    if execution is not None:
        config.execution = execution
    return SpiderMiner(graph, config).mine()


def build_spider_index(spiders: List[Spider]) -> Dict[Vertex, List[Tuple[Spider, Embedding]]]:
    """``Spider(v)`` from the paper: data vertex → spiders with an embedding headed there."""
    index: Dict[Vertex, List[Tuple[Spider, Embedding]]] = {}
    for spider in spiders:
        for embedding in spider.embeddings:
            head_image = dict(embedding.mapping)[spider.head]
            index.setdefault(head_image, []).append((spider, embedding))
    return index
