"""Support measures for the single-graph setting.

Counting raw embeddings as support is not anti-monotone in a single graph
(growing a pattern can *increase* the number of embeddings), which breaks the
downward-closure pruning every miner relies on.  The literature offers three
fixes, all implemented here:

* ``SupportMeasure.EMBEDDING_IMAGES`` — number of distinct vertex-image sets.
  Simple, not anti-monotone, but cheap; useful as an upper bound and for the
  injected-pattern verification in tests.
* ``SupportMeasure.EDGE_DISJOINT`` — maximum number of pairwise edge-disjoint
  embeddings (Vanetik, Gudes & Shimony 2002; also used by Kuramochi &
  Karypis).  Anti-monotone.  Deduplication happens on **edge** images: two
  embeddings that cover the same vertices through different data edges are
  distinct witnesses and both count (deduplicating on vertex images here was
  a long-standing undercount, pinned by a regression test).
* ``SupportMeasure.HARMFUL_OVERLAP`` — maximum independent set on the overlap
  graph where two embeddings conflict iff they share a *vertex image*
  (the harmful-overlap measure of Fiedler & Borgelt 2007).  This is the
  measure SpiderMine adopts ("a different yet more general support
  definition"), and the default throughout this package.

Conflict graphs are built by the shared overlap engine
(:mod:`repro.patterns.overlap`): an inverted :class:`EmbeddingIndex` pairs
only embeddings that actually share a vertex/edge.  Both MIS-based measures
compute the independent set exactly for small embedding collections and fall
back to the degeneracy-ordered greedy (a lower bound, hence still safe for
pruning) above ``exact_limit`` embeddings.

Mining only asks whether support reaches σ = ``min_support``, and
:func:`is_frequent` answers that without computing support.  It runs these
steps in order and stops at the first that decides:

1. **raw count** — fewer than σ embeddings: no measure can reach σ.
2. **distinct images** — fewer than σ distinct images under the measure's
   dedupe key: the MIS runs over that list, so it has at most that many
   nodes.
3. **image bound** — for each pattern vertex (harmful overlap) or pattern
   edge (edge-disjoint), count the distinct data vertices (edges) it maps to,
   and take the minimum.  Disjoint embeddings map every pattern vertex (edge)
   to different data vertices (edges), so the MIS is at most this minimum;
   a minimum below σ rejects.
4. **σ-stopping MIS** — the conflict graph is built and the solver stops once
   its set has σ nodes.  The greedy's first σ picks are those of its full
   run, and the exact solver only stops once σ is proven, so the answer is
   the same boolean a full computation gives.

Steps 1–3 are upper bounds on the full MIS and hence on the greedy value as
well, so every answer is the one ``compute_support(...) >= σ`` gives.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from operator import itemgetter
from typing import List, Sequence

from ..graph.labeled_graph import LabeledGraph, normalise_edge
from .embedding import Embedding
from .overlap import (
    DEFAULT_EXACT_LIMIT,
    ConflictGraph,
    EmbeddingIndex,
    decide_support,
    distinct_indices,
    independent_set_size,
    max_independent_set,
    record_decision,
)
from .pattern import Pattern


class SupportMeasure(str, Enum):
    """Which single-graph support definition to use."""

    EMBEDDING_IMAGES = "embedding_images"
    EDGE_DISJOINT = "edge_disjoint"
    HARMFUL_OVERLAP = "harmful_overlap"


def _distinct_images(embeddings: Sequence[Embedding]) -> List[Embedding]:
    """One embedding per distinct vertex image, in first-seen order."""
    keep = distinct_indices([e.image for e in embeddings])
    return [embeddings[i] for i in keep]


def _distinct_edge_images(
    embeddings: Sequence[Embedding], pattern_graph: LabeledGraph
) -> List[Embedding]:
    """One embedding per distinct edge image, in first-seen order."""
    keep = distinct_indices([e.edge_image(pattern_graph) for e in embeddings])
    return [embeddings[i] for i in keep]


def _conflict_graph(
    distinct: Sequence[Embedding], pattern_graph: LabeledGraph, edge_based: bool
) -> ConflictGraph:
    index = EmbeddingIndex.from_embeddings(distinct, pattern_graph)
    return index.conflict_graph(edge_based=edge_based)


def _mis_support(
    distinct: Sequence[Embedding],
    pattern_graph: LabeledGraph,
    edge_based: bool,
    exact_limit: int,
) -> int:
    """MIS size over an already-deduplicated embedding list."""
    return independent_set_size(
        _conflict_graph(distinct, pattern_graph, edge_based), exact_limit
    )


def image_bound(
    embeddings: Sequence[Embedding], pattern_graph: LabeledGraph, edge_based: bool
) -> int:
    """Upper bound on the disjoint-embedding MIS: the least-varied image.

    The minimum, over pattern vertices (``edge_based``: pattern edges), of
    the number of distinct data vertices (data edges) the embeddings map it
    to.  Pairwise disjoint embeddings map each pattern vertex (edge) to
    pairwise different data vertices (edges), so no independent set of the
    conflict graph is larger.
    """
    if not embeddings:
        return 0
    if edge_based:
        return min(
            len({normalise_edge(e[u], e[v]) for e in embeddings})
            for u, v in pattern_graph.edges()
        )
    # Distinct (pattern vertex, data vertex) pairs, counted per pattern vertex.
    pairs = set().union(*(e.mapping for e in embeddings))
    return min(Counter(map(itemgetter(0), pairs)).values())


def embedding_image_support(embeddings: Sequence[Embedding]) -> int:
    """Number of distinct vertex-image sets among the embeddings."""
    return len(_distinct_images(embeddings))


def edge_disjoint_support(
    embeddings: Sequence[Embedding],
    pattern_graph: LabeledGraph,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> int:
    """Maximum number of pairwise edge-disjoint embeddings."""
    if not embeddings:
        return 0
    if pattern_graph.num_edges == 0:
        # Single-vertex pattern: embeddings cannot share an edge; vertex-distinct
        # images are automatically edge-disjoint.
        return embedding_image_support(embeddings)
    # Dedupe by *edge* image: automorphic remappings onto the same data edges
    # are one witness, but same-vertex/different-edge embeddings are not.
    distinct = _distinct_edge_images(embeddings, pattern_graph)
    return _mis_support(distinct, pattern_graph, True, exact_limit)


def harmful_overlap_support(
    embeddings: Sequence[Embedding],
    pattern_graph: LabeledGraph,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> int:
    """Maximum number of pairwise vertex-disjoint embeddings (harmful-overlap MIS)."""
    distinct = _distinct_images(embeddings)
    if not distinct:
        return 0
    return _mis_support(distinct, pattern_graph, False, exact_limit)


def compute_support(
    pattern: Pattern,
    measure: SupportMeasure = SupportMeasure.HARMFUL_OVERLAP,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> int:
    """Support of ``pattern`` under ``measure`` using its stored embeddings."""
    if measure is SupportMeasure.EMBEDDING_IMAGES:
        return embedding_image_support(pattern.embeddings)
    if measure is SupportMeasure.EDGE_DISJOINT:
        return edge_disjoint_support(pattern.embeddings, pattern.graph, exact_limit)
    if measure is SupportMeasure.HARMFUL_OVERLAP:
        return harmful_overlap_support(pattern.embeddings, pattern.graph, exact_limit)
    raise ValueError(f"unknown support measure {measure!r}")


def _decided(step: str, answer: bool) -> bool:
    record_decision("support", step)
    return answer


def is_frequent(
    pattern: Pattern,
    min_support: int,
    measure: SupportMeasure = SupportMeasure.HARMFUL_OVERLAP,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> bool:
    """Whether the pattern meets ``min_support`` under ``measure``.

    A pattern with no embeddings is never frequent, not even for
    ``min_support <= 0`` — every measure assigns it support 0, and support 0
    means "does not occur".  Beyond that the answer equals
    ``compute_support(pattern, measure, exact_limit) >= min_support``, decided
    by the cheapest step that can (raw count, distinct images, image bound,
    σ-stopping MIS; see the module docstring).  With telemetry on, the step
    is counted as ``support.decided.<step>``.
    """
    embeddings = pattern.embeddings
    if not embeddings:
        return _decided("raw_count", False)
    if min_support <= 0:
        return _decided("raw_count", True)
    if len(embeddings) < min_support:
        return _decided("raw_count", False)
    if measure is SupportMeasure.EMBEDDING_IMAGES:
        return _decided(
            "distinct_images", embedding_image_support(embeddings) >= min_support
        )
    # For MIS measures, dedupe once under the measure's own conflict notion:
    # the distinct count is a cheap upper bound that often skips the MIS, and
    # the same list feeds the bound and the MIS when they do run.
    if measure is SupportMeasure.EDGE_DISJOINT and pattern.graph.num_edges > 0:
        distinct = _distinct_edge_images(embeddings, pattern.graph)
        edge_based = True
    else:
        distinct = _distinct_images(embeddings)
        edge_based = False
        if measure is SupportMeasure.EDGE_DISJOINT:
            # Edgeless pattern: vertex-distinct images are pairwise
            # edge-disjoint, so the distinct count *is* the support.
            return _decided("distinct_images", len(distinct) >= min_support)
    if len(distinct) < min_support:
        return _decided("distinct_images", False)
    if image_bound(distinct, pattern.graph, edge_based) < min_support:
        return _decided("image_bound", False)
    conflict = _conflict_graph(distinct, pattern.graph, edge_based)
    return decide_support(conflict, min_support, exact_limit, "support") >= min_support


def select_disjoint_embeddings(
    embeddings: Sequence[Embedding],
    pattern_graph: LabeledGraph,
    edge_based: bool = False,
    exact_limit: int = DEFAULT_EXACT_LIMIT,
) -> List[Embedding]:
    """A maximum (or greedy-maximal) set of pairwise disjoint embeddings.

    ``edge_based=False`` gives vertex-disjoint embeddings (harmful-overlap
    witnesses), ``True`` gives edge-disjoint ones.
    """
    if not embeddings:
        return []
    if edge_based and pattern_graph.num_edges > 0:
        distinct = _distinct_edge_images(embeddings, pattern_graph)
    else:
        distinct = _distinct_images(embeddings)
    conflict = _conflict_graph(distinct, pattern_graph, edge_based)
    chosen = max_independent_set(conflict, exact_limit)
    return [distinct[i] for i in sorted(chosen)]


__all__ = [
    "DEFAULT_EXACT_LIMIT",
    "SupportMeasure",
    "embedding_image_support",
    "edge_disjoint_support",
    "harmful_overlap_support",
    "compute_support",
    "image_bound",
    "is_frequent",
    "select_disjoint_embeddings",
]
