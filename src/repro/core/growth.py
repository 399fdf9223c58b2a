"""SpiderGrow / SpiderExtend / CheckMerge — the growth engine of SpiderMine.

Stages II and III of SpiderMine repeatedly run ``SpiderGrow``: every current
pattern is extended at its boundary vertices by appending frequent spiders
(Algorithm 2/3 of the paper), and patterns whose embeddings start to overlap
are merged (Algorithm 4, ``CheckMerge``).

The engine is *occurrence-based*: a pattern is represented by the set of its
**occurrences** — the concrete (vertex set, edge set) images of its
embeddings in the data graph — grouped under the canonical code of the
occurrence subgraph.  This is equivalent to carrying abstract pattern graphs
plus embedding maps (the code identifies the abstract pattern; the occurrence
is the embedding image) but makes gluing during growth and merging trivial:
it is just a union of vertex/edge sets, with the paper's two SpiderExtend
conditions checked directly on data vertices:

* **Maximal overlap** (Algorithm 3, condition I): the spider used at boundary
  vertex ``v`` must cover every pattern edge incident to ``v``;
* **Internal integrity** (condition II): the spider must not contribute an
  edge between two vertices that are already part of the pattern occurrence.

Support is the configured single-graph measure computed over the occurrence
vertex/edge sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..graph.canonical import canonical_code
from ..graph.isomorphism import SubgraphMatcher
from ..graph.labeled_graph import LabeledGraph, Vertex, normalise_edge
from ..graph.view import GraphView
from ..patterns.embedding import Embedding
from ..patterns.overlap import (
    DEFAULT_EXACT_LIMIT,
    EmbeddingIndex,
    decide_support,
    independent_set_size,
    record_decision,
)
from ..patterns.pattern import Pattern
from ..patterns.spider import Spider
from ..patterns.support import SupportMeasure
from .config import SpiderMineConfig

EdgeTuple = Tuple[Vertex, Vertex]

# Shared with Embedding.edge_image — one endpoint ordering, it can never drift.
_normalise_edge = normalise_edge


@dataclass(frozen=True)
class Occurrence:
    """One concrete image of a pattern in the data graph."""

    vertices: FrozenSet[Vertex]
    edges: FrozenSet[EdgeTuple]

    @classmethod
    def from_embedding(cls, pattern_graph: LabeledGraph, embedding: Embedding) -> "Occurrence":
        mapping = dict(embedding.mapping)
        vertices = frozenset(mapping.values())
        edges = frozenset(
            _normalise_edge(mapping[u], mapping[v]) for u, v in pattern_graph.edges()
        )
        return cls(vertices=vertices, edges=edges)

    @classmethod
    def from_vertices_edges(
        cls, vertices: Iterable[Vertex], edges: Iterable[EdgeTuple]
    ) -> "Occurrence":
        return cls(
            vertices=frozenset(vertices),
            edges=frozenset(_normalise_edge(u, v) for u, v in edges),
        )

    def union(self, other: "Occurrence") -> "Occurrence":
        return Occurrence(vertices=self.vertices | other.vertices, edges=self.edges | other.edges)

    def overlaps(self, other: "Occurrence", edge_based: bool = False) -> bool:
        """Pairwise conflict test under the requested overlap notion.

        Spot checks only — batch overlap scans go through the shared
        :class:`~repro.patterns.overlap.EmbeddingIndex` instead.
        """
        if edge_based:
            return bool(self.edges & other.edges)
        return bool(self.vertices & other.vertices)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass
class CandidateEntry:
    """A candidate pattern during growth: its occurrences plus growth metadata."""

    code: str
    occurrences: List[Occurrence]
    merged: bool = False
    frontier: Optional[Set[Vertex]] = None   # data vertices added by the last growth step


def occurrence_code(data_graph: GraphView, occurrence: Occurrence) -> str:
    """Canonical code of the pattern an occurrence realises."""
    sub = LabeledGraph()
    for v in occurrence.vertices:
        sub.add_vertex(v, data_graph.label(v))
    for u, v in occurrence.edges:
        sub.add_edge(u, v)
    return canonical_code(sub)


def occurrence_subgraph(data_graph: GraphView, occurrence: Occurrence) -> LabeledGraph:
    """The labeled subgraph realised by an occurrence (its vertices + its edges)."""
    sub = LabeledGraph()
    for v in occurrence.vertices:
        sub.add_vertex(v, data_graph.label(v))
    for u, v in occurrence.edges:
        sub.add_edge(u, v)
    return sub


# ---------------------------------------------------------------------- #
# occurrence-level support
# ---------------------------------------------------------------------- #
def occurrence_support(
    occurrences: Sequence[Occurrence],
    measure: SupportMeasure,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
    min_support: Optional[int] = None,
) -> int:
    """Support of a pattern given its distinct occurrences.

    Deduplication follows the measure's conflict notion: vertex sets for the
    vertex-overlap measures, edge sets for the edge-disjoint measure (two
    occurrences on the same vertices through different data edges are distinct
    edge-disjoint witnesses; an edgeless occurrence dedupes on its vertices).
    The conflict graph comes from the shared inverted-index overlap engine.

    With ``min_support`` the value saturates: it is ``min_support`` whenever
    the support reaches it, and below that it is an upper bound on the
    support, so ``>= min_support`` is the exact frequency decision.  The
    check stops at the first step that decides (distinct count, image bound,
    σ-stopping MIS), counted as ``growth.decided.<step>`` with telemetry on.
    """
    edge_based = measure is SupportMeasure.EDGE_DISJOINT
    seen: Set[object] = set()
    items: List[Occurrence] = []
    for occ in occurrences:
        if edge_based:
            key = ("e", occ.edges) if occ.edges else ("v", occ.vertices)
        else:
            key = occ.vertices
        if key in seen:
            continue
        seen.add(key)
        items.append(occ)
    if min_support is None:
        if measure is SupportMeasure.EMBEDDING_IMAGES:
            return len(items)
        conflict = EmbeddingIndex.from_occurrences(items).conflict_graph(edge_based)
        return independent_set_size(conflict, exact_limit)
    if measure is SupportMeasure.EMBEDDING_IMAGES or len(items) < min_support:
        record_decision("growth", "distinct_images")
        return min(len(items), min_support)
    bound = occurrence_image_bound(items, edge_based)
    if bound < min_support:
        record_decision("growth", "image_bound")
        return bound
    conflict = EmbeddingIndex.from_occurrences(items).conflict_graph(edge_based)
    return decide_support(conflict, min_support, exact_limit, "growth")


def occurrence_image_bound(occurrences: Sequence[Occurrence], edge_based: bool) -> int:
    """Upper bound on the disjoint-occurrence MIS from the union of images.

    Occurrences carry no pattern-vertex mapping, so the bound is the union
    of their vertex sets divided by the smallest occurrence: pairwise
    vertex-disjoint occurrences each use that many vertices of the union.
    ``edge_based`` does the same with edge sets; an edgeless occurrence
    conflicts with nothing, so then there is no bound beyond the count.
    """
    if not occurrences:
        return 0
    images = [o.edges if edge_based else o.vertices for o in occurrences]
    smallest = min(map(len, images))
    if smallest == 0:
        return len(occurrences)
    return len(frozenset().union(*images)) // smallest


def occurrences_to_pattern(data_graph: GraphView, occurrences: Sequence[Occurrence]) -> Pattern:
    """Convert a group of same-code occurrences into a :class:`Pattern` object.

    The pattern graph is the first occurrence's subgraph relabeled onto
    ``0..n-1``; each occurrence contributes one embedding found by matching
    the pattern graph inside the occurrence subgraph.
    """
    if not occurrences:
        raise ValueError("cannot build a pattern from zero occurrences")
    first = occurrence_subgraph(data_graph, occurrences[0])
    order = sorted(first.vertices(), key=repr)
    rename = {v: i for i, v in enumerate(order)}
    pattern_graph = first.relabeled(rename)
    embeddings: List[Embedding] = []
    seen_images: Set[FrozenSet[Vertex]] = set()
    for occ in occurrences:
        if occ.vertices in seen_images:
            continue
        sub = occurrence_subgraph(data_graph, occ)
        matcher = SubgraphMatcher(pattern_graph, sub, induced=False)
        found = matcher.find_embeddings(limit=1)
        if not found:
            continue
        embeddings.append(Embedding.from_dict(found[0]))
        seen_images.add(occ.vertices)
    return Pattern(graph=pattern_graph, embeddings=embeddings)


# ---------------------------------------------------------------------- #
# the growth engine
# ---------------------------------------------------------------------- #
class GrowthEngine:
    """Implements SpiderGrow over a fixed data graph and Stage-I spider index."""

    def __init__(
        self,
        data_graph: GraphView,
        spider_index: Dict[Vertex, List[Tuple[Spider, Embedding]]],
        config: SpiderMineConfig,
    ) -> None:
        self.data_graph = data_graph
        self.config = config
        # Pre-convert the spider index to occurrences once, keeping only the
        # *maximal* occurrences at each head: a spider occurrence whose vertex
        # set is contained in another occurrence at the same head can never
        # satisfy the maximal-overlap condition better than the larger one, so
        # dropping it removes redundant growth branches without losing any
        # reachable pattern.
        self._spider_occurrences: Dict[Vertex, List[Occurrence]] = {}
        for head, entries in spider_index.items():
            occs: List[Occurrence] = []
            seen: Set[FrozenSet[Vertex]] = set()
            for spider, embedding in entries:
                occ = Occurrence.from_embedding(spider.graph, embedding)
                if occ.vertices not in seen:
                    seen.add(occ.vertices)
                    occs.append(occ)
            # Larger spiders first: they satisfy maximal overlap more often and
            # grow the pattern faster (fewer, bigger steps).
            occs.sort(key=lambda o: (o.num_vertices, o.num_edges), reverse=True)
            maximal: List[Occurrence] = []
            for occ in occs:
                if not any(occ.vertices <= bigger.vertices and occ.edges <= bigger.edges
                           for bigger in maximal):
                    maximal.append(occ)
            self._spider_occurrences[head] = maximal
        # Memoised occurrence codes: the same (vertices, edges) pair is coded
        # many times across growth iterations and merge checks.
        self._code_cache: Dict[Tuple[FrozenSet[Vertex], FrozenSet[EdgeTuple]], str] = {}
        # Counters surfaced in MiningStatistics.
        self.merge_events = 0
        self.candidates_generated = 0

    def _code(self, occurrence: Occurrence) -> str:
        key = (occurrence.vertices, occurrence.edges)
        cached = self._code_cache.get(key)
        if cached is None:
            cached = occurrence_code(self.data_graph, occurrence)
            self._code_cache[key] = cached
        return cached

    # ------------------------------------------------------------------ #
    def seed_entries(self, seeds: Sequence[Spider]) -> Dict[str, CandidateEntry]:
        """Initial candidate entries from the randomly drawn seed spiders."""
        entries: Dict[str, CandidateEntry] = {}
        for spider in seeds:
            occurrences = [
                Occurrence.from_embedding(spider.graph, e) for e in spider.embeddings
            ]
            code = self._code(occurrences[0]) if occurrences else None
            if code is None:
                continue
            entry = entries.get(code)
            if entry is None:
                entries[code] = CandidateEntry(
                    code=code,
                    occurrences=self._dedupe(occurrences),
                    frontier=(
                        set().union(*(o.vertices for o in occurrences))
                        if occurrences
                        else set()
                    ),
                )
            else:
                entry.occurrences = self._dedupe(entry.occurrences + occurrences)
                if entry.frontier is not None:
                    for occ in occurrences:
                        entry.frontier |= occ.vertices
        return entries

    # ------------------------------------------------------------------ #
    def grow(
        self,
        entries: Dict[str, CandidateEntry],
        merge_enabled: bool = True,
    ) -> Dict[str, CandidateEntry]:
        """One SpiderGrow iteration: extend every entry, then check merges.

        Returns the next generation of candidate entries.  Entries that cannot
        be extended are carried over unchanged (a pattern that stops growing
        must not silently vanish).
        """
        config = self.config
        new_groups: Dict[str, List[Occurrence]] = {}
        new_meta: Dict[str, Dict[str, object]] = {}
        usage: Dict[Vertex, Set[str]] = {}

        for code, entry in entries.items():
            grew = False
            for occ in entry.occurrences[: config.max_occurrences_grown_per_entry]:
                for new_occ, head_used in self._extend_occurrence(occ, entry.frontier):
                    grew = True
                    new_code = self._code(new_occ)
                    new_groups.setdefault(new_code, []).append(new_occ)
                    meta = new_meta.setdefault(
                        new_code, {"merged": False, "frontier": set(), "parents": set()}
                    )
                    meta["merged"] = bool(meta["merged"]) or entry.merged
                    meta["frontier"] |= new_occ.vertices - occ.vertices  # type: ignore[operator]
                    meta["parents"].add(code)  # type: ignore[union-attr]
                    usage.setdefault(head_used, set()).add(code)
                    self.candidates_generated += 1
            if not grew:
                # Carry the unextendable entry forward untouched.
                new_groups.setdefault(code, []).extend(entry.occurrences)
                meta = new_meta.setdefault(
                    code,
                    {
                        "merged": entry.merged,
                        "frontier": set(entry.frontier or set()),
                        "parents": {code},
                    },
                )
                meta["merged"] = bool(meta["merged"]) or entry.merged

        next_entries = self._build_entries(new_groups, new_meta)

        # A pattern whose every extension fell below the support threshold must
        # not vanish: carry it forward unchanged (it is a local maximum).
        surviving_parents: Set[str] = set()
        for code, _entry in next_entries.items():
            parents = new_meta.get(code, {}).get("parents", set())
            surviving_parents |= set(parents)  # type: ignore[arg-type]
        for code, entry in entries.items():
            if code not in surviving_parents and code not in next_entries:
                next_entries[code] = entry

        if merge_enabled:
            self._check_merge(next_entries, usage)

        next_entries = self._prune_subsumed(next_entries)
        next_entries = self._enforce_caps(next_entries)
        return next_entries

    # ------------------------------------------------------------------ #
    # SpiderExtend on one occurrence
    # ------------------------------------------------------------------ #
    def _extend_occurrence(
        self,
        occurrence: Occurrence,
        frontier: Optional[Set[Vertex]],
    ) -> List[Tuple[Occurrence, Vertex]]:
        """All one-spider extensions of ``occurrence`` (the paper's SpiderExtend).

        Returns (new occurrence, boundary data vertex whose spider was used).
        """
        results: List[Tuple[Occurrence, Vertex]] = []
        boundary = occurrence.vertices if frontier is None else (occurrence.vertices & frontier)
        if not boundary:
            boundary = occurrence.vertices
        per_boundary_cap = self.config.max_extensions_per_boundary
        for head in boundary:
            incident = {e for e in occurrence.edges if head in e}
            accepted = 0
            for spider_occ in self._spider_occurrences.get(head, ()):
                new_vertices = spider_occ.vertices - occurrence.vertices
                if not new_vertices:
                    continue
                # Condition (I) — maximal overlap: the spider covers every
                # pattern edge incident to the boundary vertex.
                if not incident <= spider_occ.edges:
                    continue
                # Condition (II) — internal integrity: no spider edge may
                # connect two vertices already inside the pattern occurrence.
                violates = False
                for u, v in spider_occ.edges - occurrence.edges:
                    if u in occurrence.vertices and v in occurrence.vertices:
                        violates = True
                        break
                if violates:
                    continue
                results.append((occurrence.union(spider_occ), head))
                accepted += 1
                if accepted >= per_boundary_cap:
                    break
        return results

    # ------------------------------------------------------------------ #
    # CheckMerge
    # ------------------------------------------------------------------ #
    def _check_merge(
        self,
        entries: Dict[str, CandidateEntry],
        usage: Dict[Vertex, Set[str]],
    ) -> None:
        """Merge candidate patterns whose occurrences started to overlap.

        Detection follows the paper: two patterns are merge candidates when
        they used a spider headed at the same data vertex (``usage``) or when
        their occurrences share vertices.  Merged results are added to
        ``entries`` with ``merged=True``; the inputs are also flagged so the
        Stage-II pruning keeps them.
        """
        # The shared overlap engine's inverted vertex→ids map: merge candidates
        # are discovered per shared data vertex, so only occurrence pairs that
        # actually overlap are ever examined, and hard caps bound the work on
        # dense, label-poor graphs.
        occurrences_per_entry_indexed = 30
        pairs_per_vertex_cap = 12
        merge_unions_cap = 2000
        indexed: List[Tuple[str, Occurrence]] = []
        for code, entry in entries.items():
            for occ in entry.occurrences[:occurrences_per_entry_indexed]:
                indexed.append((code, occ))
        vertex_index = EmbeddingIndex.from_occurrences(
            occ for _, occ in indexed
        ).vertex_map

        merged_groups: Dict[str, List[Occurrence]] = {}
        merged_meta: Dict[str, Dict[str, object]] = {}
        unions_done = 0
        seen_union_keys: Set[Tuple[FrozenSet[Vertex], FrozenSet[EdgeTuple]]] = set()
        for vertex in sorted(vertex_index, key=repr):
            covering = [indexed[i] for i in vertex_index[vertex]]
            if len(covering) < 2 or unions_done >= merge_unions_cap:
                continue
            pairs_here = 0
            for i in range(len(covering)):
                if pairs_here >= pairs_per_vertex_cap or unions_done >= merge_unions_cap:
                    break
                code_a, occ_a = covering[i]
                for j in range(i + 1, len(covering)):
                    if pairs_here >= pairs_per_vertex_cap or unions_done >= merge_unions_cap:
                        break
                    code_b, occ_b = covering[j]
                    if code_a == code_b:
                        continue
                    entry_a = entries.get(code_a)
                    entry_b = entries.get(code_b)
                    if entry_a is None or entry_b is None:
                        continue
                    pairs_here += 1
                    union = occ_a.union(occ_b)
                    if union.vertices == occ_a.vertices or union.vertices == occ_b.vertices:
                        # One occurrence contains the other: the two growth
                        # lineages already cover overlapping ground, which is
                        # exactly the merge evidence Lemma 1 waits for — flag
                        # both patterns as merged without creating a new one.
                        entry_a.merged = True
                        entry_b.merged = True
                        continue
                    union_key = (union.vertices, union.edges)
                    if union_key in seen_union_keys:
                        continue
                    seen_union_keys.add(union_key)
                    unions_done += 1
                    new_code = self._code(union)
                    merged_groups.setdefault(new_code, []).append(union)
                    meta = merged_meta.setdefault(
                        new_code, {"merged": True, "frontier": set(), "parents": set()}
                    )
                    meta["frontier"] |= union.vertices  # type: ignore[operator]
                    meta["parents"] |= {code_a, code_b}  # type: ignore[operator]
                    entry_a.merged = True
                    entry_b.merged = True
                    self.merge_events += 1

        for code, entry in self._build_entries(merged_groups, merged_meta).items():
            existing = entries.get(code)
            if existing is None:
                entries[code] = entry
            else:
                existing.occurrences = self._dedupe(existing.occurrences + entry.occurrences)
                existing.merged = True
                if existing.frontier is not None and entry.frontier is not None:
                    existing.frontier |= entry.frontier

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _build_entries(
        self,
        groups: Dict[str, List[Occurrence]],
        meta: Dict[str, Dict[str, object]],
    ) -> Dict[str, CandidateEntry]:
        """Turn grouped occurrences into frequency-checked candidate entries."""
        config = self.config
        entries: Dict[str, CandidateEntry] = {}
        for code, occurrences in groups.items():
            deduped = self._dedupe(occurrences)
            if not self.is_frequent(deduped):
                continue
            info = meta.get(code, {})
            entries[code] = CandidateEntry(
                code=code,
                occurrences=deduped,
                merged=bool(info.get("merged", False)),
                frontier=set(info.get("frontier", set())) or None,
            )
        return entries

    def is_frequent(self, occurrences: Sequence[Occurrence]) -> bool:
        """Whether a candidate's occurrences reach ``min_support``.

        The same boolean a full ``occurrence_support`` gives, decided by the
        cheapest step that can (see :func:`occurrence_support`).
        """
        sigma = self.config.min_support
        support = occurrence_support(
            occurrences, self.config.support_measure, min_support=sigma
        )
        return support >= sigma

    def _prune_subsumed(self, entries: Dict[str, CandidateEntry]) -> Dict[str, CandidateEntry]:
        """Drop candidates fully covered by a larger candidate.

        An entry A is *subsumed* by entry B when every occurrence of A is a
        vertex-subset of some occurrence of B.  A is then a sub-pattern of B
        with no additional support evidence, so — since the miner only looks
        for the top-K *largest* patterns — keeping A merely multiplies the
        next iteration's work.  The merged flag of A is propagated to B so
        Stage-II pruning never loses merge evidence.
        """
        if len(entries) <= 1:
            return entries
        ordered = sorted(
            entries.values(),
            key=lambda e: (
                max(o.num_vertices for o in e.occurrences),
                max(o.num_edges for o in e.occurrences),
            ),
            reverse=True,
        )
        # Inverted index: data vertex -> codes of larger-or-equal entries seen so far.
        vertex_index: Dict[Vertex, Set[str]] = {}
        kept: Dict[str, CandidateEntry] = {}
        for entry in ordered:
            candidate_codes: Optional[Set[str]] = None
            smallest = min(entry.occurrences, key=lambda o: o.num_vertices)
            for v in smallest.vertices:
                codes = vertex_index.get(v)
                if not codes:
                    candidate_codes = set()
                    break
                if candidate_codes is None:
                    candidate_codes = set(codes)
                else:
                    candidate_codes &= codes
                if not candidate_codes:
                    break
            subsumed_by: Optional[CandidateEntry] = None
            for code in sorted(candidate_codes or ()):
                other = kept.get(code)
                if other is None or other is entry:
                    continue
                if all(
                    any(occ.vertices <= big.vertices and occ.edges <= big.edges
                        for big in other.occurrences)
                    for occ in entry.occurrences
                ):
                    subsumed_by = other
                    break
            if subsumed_by is not None:
                subsumed_by.merged = subsumed_by.merged or entry.merged
                continue
            kept[entry.code] = entry
            for occ in entry.occurrences:
                for v in occ.vertices:
                    vertex_index.setdefault(v, set()).add(entry.code)
        return kept

    def _dedupe(self, occurrences: Sequence[Occurrence]) -> List[Occurrence]:
        seen: Set[Tuple[FrozenSet[Vertex], FrozenSet[EdgeTuple]]] = set()
        unique: List[Occurrence] = []
        for occ in occurrences:
            key = (occ.vertices, occ.edges)
            if key in seen:
                continue
            seen.add(key)
            unique.append(occ)
            if len(unique) >= self.config.max_embeddings_per_pattern:
                break
        return unique

    def _enforce_caps(self, entries: Dict[str, CandidateEntry]) -> Dict[str, CandidateEntry]:
        cap = self.config.max_patterns_per_iteration
        if len(entries) <= cap:
            return entries
        # Keep the largest candidates (ties broken by support, then code) —
        # the miner is after the top-K *largest* patterns.
        ranked = sorted(
            entries.values(),
            key=lambda e: (
                max(o.num_vertices for o in e.occurrences),
                len(e.occurrences),
                e.code,
            ),
            reverse=True,
        )
        return {entry.code: entry for entry in ranked[:cap]}
