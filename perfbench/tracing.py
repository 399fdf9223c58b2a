"""Outside-in layer tracing: wrap each layer's public entry points, keep spans.

Nothing under ``src/`` is edited.  :func:`traced` swaps every listed function,
method and class for a timing wrapper in *every* ``repro`` module that holds a
reference to it (so names imported with ``from ... import`` are covered too)
and restores the originals on exit.

A span is ``(id, name, start, end, parent, self_s, phase)``.  ``self_s`` is the
span's duration minus the time of the spans that closed inside it on the same
thread.  Matcher searches are generators whose consumer runs between
``next()`` calls, so a ``matcher.search`` span is synthetic: it starts at the
first ``next()`` and lasts exactly the time spent inside ``next()``.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: (module, function, span name) — wrapped wherever the function is bound.
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.patterns.support", "is_frequent", "support.is_frequent"),
    ("repro.graph.algorithms", "degeneracy_ordered_independent_set", "algorithms.mis_greedy"),
    ("repro.graph.algorithms", "exact_maximum_independent_set", "algorithms.mis_exact"),
    ("repro.graph.canonical", "canonical_code", "canonical.code"),
    ("repro.patterns.spider", "head_distinguished_code", "spider.head_code"),
    ("repro.core.growth", "occurrences_to_pattern", "growth.occurrences_to_pattern"),
    ("repro.core.growth", "occurrence_support", "growth.occurrence_support"),
    ("repro.graph.frozen", "freeze", "frozen.freeze"),
)

#: (module, class, method, span name) — methods are patched on the class.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.spidermine", "SpiderMine", "mine", "mine"),
    ("repro.core.spidermine", "SpiderMine", "_report", "mine.report"),
    ("repro.core.spider_miner", "SpiderMiner", "mine", "spider_miner.mine"),
    ("repro.patterns.overlap", "EmbeddingIndex", "conflict_graph", "overlap.conflict_graph"),
    ("repro.core.growth", "GrowthEngine", "seed_entries", "growth.seed_entries"),
    ("repro.core.growth", "GrowthEngine", "grow", "growth.grow"),
    ("repro.catalog.cache", "RunCache", "store_result", "cache.store_result"),
    ("repro.catalog.query", "CatalogQuery", "containing", "query.containing"),
    ("repro.catalog.query", "CatalogQuery", "contains_batch", "query.contains_batch"),
    ("repro.catalog.query", "CatalogQuery", "top_k", "query.top_k"),
    ("repro.catalog.query", "CatalogQuery", "with_label", "query.with_label"),
)

MATCHER_STATS = ("candidate_tests", "searches")

#: Imported before patching, so no module binds a wrapper that outlives it.
PRELOAD = ("repro.api", "repro.catalog.server", "repro.cli")


class Recorder:
    """In-memory span store plus the work counts read off return values."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()  # (phase, name) -> work count
        self.codes: Dict[str, set] = {}  # phase -> distinct canonical codes
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()

    def count(self, name: str, amount: int = 1, phase: Optional[str] = None) -> None:
        self.counts[(phase or self.phase, name)] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = [next(self._ids), name, time.perf_counter(), parent, 0.0, self.phase]
        stack.append(frame)
        return frame

    def leave(self, frame: list, busy: Optional[float] = None) -> None:
        end = time.perf_counter()
        self._stack().pop()
        span_id, name, start, parent, child_s, phase = frame
        duration = end - start if busy is None else busy
        if parent is not None:
            parent[4] += duration
        self.spans.append(
            (span_id, name, start, start + duration,
             parent[0] if parent is not None else 0, duration - child_s, phase)
        )

    def wrap(self, fn: Callable, name: str, on_result=None) -> Callable:
        recorder = self

        def wrapper(*args, **kwargs):
            frame = recorder.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.leave(frame)
            if on_result is not None:
                on_result(recorder, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def timed_iter(self, name: str, inner: Iterable):
        """Yield from ``inner``, recording the time spent inside ``next()``."""
        if any(frame[1] == name for frame in self._stack()):
            yield from inner  # a search nested in a search is part of it
            return
        frame = None
        busy = 0.0
        iterator = iter(inner)
        try:
            while True:
                stack = self._stack()
                if frame is None:
                    frame = self.enter(name)
                else:
                    stack.append(frame)
                started = time.perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    busy += time.perf_counter() - started
                    stack.pop()
                yield item
        finally:
            if frame is not None:
                self._stack().append(frame)
                self.leave(frame, busy=busy)

    def write(self, path) -> None:
        """All spans as gzip JSON lines (name, start, end, parent, self, phase)."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, self_s, phase in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "name": name, "start": round(start, 7),
                     "end": round(end, 7), "parent": parent,
                     "self": round(self_s, 7), "phase": phase}) + "\n")


# ---------------------------------------------------------------------- #
# result hooks: work counts read off what a layer returned
# ---------------------------------------------------------------------- #
def _accepted(recorder: Recorder, result) -> None:
    if result:
        recorder.count("support.is_frequent.accepted")


def _conflict_edges(recorder: Recorder, result) -> None:
    recorder.count("overlap.conflict_graph.edges", sum(map(len, result.values())) // 2)


def _code(recorder: Recorder, result) -> None:
    recorder.codes.setdefault(recorder.phase, set()).add(result)


def _spiders(recorder: Recorder, result) -> None:
    recorder.count("spider_miner.spiders", len(result))


_HOOKS = {
    "support.is_frequent": _accepted,
    "overlap.conflict_graph": _conflict_edges,
    "canonical.code": _code,
    "spider_miner.mine": _spiders,
}


def _traced_matcher(recorder: Recorder, base: type) -> type:
    """A SubgraphMatcher subclass timing construction and every search."""

    class TracedSubgraphMatcher(base):
        def __init__(self, *args, **kwargs):
            recorder.count("matcher.constructs")
            self._traced_phase = recorder.phase
            frame = recorder.enter("matcher.construct")
            try:
                super().__init__(*args, **kwargs)
            finally:
                recorder.leave(frame)

        def iter_embeddings(self, *args, **kwargs):
            return recorder.timed_iter(
                "matcher.search", base.iter_embeddings(self, *args, **kwargs))

        def iter_anchored(self, *args, **kwargs):
            return recorder.timed_iter(
                "matcher.search", base.iter_anchored(self, *args, **kwargs))

        def __del__(self):
            stats = getattr(self, "stats", None)
            if stats is not None:
                for field in MATCHER_STATS:
                    recorder.count("matcher." + field, getattr(stats, field),
                                   phase=self._traced_phase)

    TracedSubgraphMatcher.__name__ = base.__name__
    TracedSubgraphMatcher.__qualname__ = base.__qualname__
    return TracedSubgraphMatcher


def _rebind_everywhere(original, replacement, undo: list) -> None:
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))


@contextmanager
def traced(recorder: Recorder):
    """Install every layer wrapper for the duration of the block."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    undo: list = []
    try:
        for module_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            _rebind_everywhere(
                original, recorder.wrap(original, name, _HOOKS.get(name)), undo)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, recorder.wrap(original, name, _HOOKS.get(name)))
            undo.append((cls, attr, original))
        matcher = importlib.import_module("repro.graph.isomorphism").SubgraphMatcher
        _rebind_everywhere(matcher, _traced_matcher(recorder, matcher), undo)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------- #
# aggregation
# ---------------------------------------------------------------------- #
def aggregate(spans: List[tuple], phases: Iterable[str]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Inclusive time counts only the outermost span of a name, so a recursive
    or re-entrant layer is not counted twice.  ``query.contains_batch``
    spans opened by ``query.containing`` are its children, not batch calls.
    """
    phases = set(phases)
    by_id = {span[0]: span for span in spans}
    out: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, parent, self_s, phase in spans:
        if phase not in phases:
            continue
        nested = False
        ancestor = by_id.get(parent)
        if name == "query.contains_batch" and ancestor and ancestor[1] == "query.containing":
            continue
        while ancestor is not None:
            if ancestor[1] == name:
                nested = True
                break
            ancestor = by_id.get(ancestor[4])
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
        if not nested:
            row["s"] += end - start
    return out


def covered_seconds(spans: List[tuple], names, phases: Iterable[str]) -> float:
    """Wall time covered by the union of the named spans' intervals."""
    phases = set(phases)
    intervals = sorted(
        (s[2], s[3]) for s in spans
        if s[6] in phases and any(s[1].startswith(n) for n in names)
    )
    total, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
