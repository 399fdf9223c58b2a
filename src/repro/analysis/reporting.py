"""Runtime tables and experiment records.

Figure 16 of the paper is a runtime table (algorithms × datasets); Figures
9–11 and 17 are runtime-versus-size series.  :class:`RuntimeTable` and
:class:`SeriesReport` produce exactly those rows, and
:class:`ExperimentRecord` is the JSON-serialisable record the benchmark
harness writes for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..core.results import MiningResult
from ..patterns.overlap import DECISION_SITES, DECISION_STEPS

PathLike = Union[str, Path]

#: The marker the paper prints for runs that did not finish within the budget.
DID_NOT_FINISH = "-"


@dataclass
class RuntimeTable:
    """dataset × algorithm → runtime seconds (or DID_NOT_FINISH)."""

    rows: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def record(self, dataset: str, algorithm: str, runtime: Optional[float]) -> None:
        row = self.rows.setdefault(dataset, {})
        row[algorithm] = DID_NOT_FINISH if runtime is None else round(runtime, 4)

    def record_result(self, dataset: str, result: MiningResult, completed: bool = True) -> None:
        self.record(dataset, result.algorithm, result.runtime_seconds if completed else None)

    def algorithms(self) -> List[str]:
        names: List[str] = []
        for row in self.rows.values():
            for name in row:
                if name not in names:
                    names.append(name)
        return names

    def to_text(self, title: str = "Runtime comparison (seconds)") -> str:
        names = self.algorithms()
        header = ["dataset"] + names
        widths = [max(12, len(h) + 2) for h in header]
        lines = [title, "-" * sum(widths)]
        lines.append("".join(h.ljust(w) for h, w in zip(header, widths)))
        for dataset, row in self.rows.items():
            cells = [dataset] + [str(row.get(name, "")) for name in names]
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)


@dataclass
class SeriesReport:
    """An x-versus-metrics series (runtime/largest-size vs graph size figures)."""

    x_label: str
    points: List[Dict[str, object]] = field(default_factory=list)

    def add_point(self, x: object, **metrics: object) -> None:
        self.points.append({self.x_label: x, **metrics})

    def column(self, name: str) -> List[object]:
        return [point.get(name) for point in self.points]

    def to_text(self, title: str) -> str:
        if not self.points:
            return f"{title}\n(empty)"
        names = [self.x_label] + [k for k in self.points[0] if k != self.x_label]
        widths = [max(12, len(n) + 2) for n in names]
        lines = [title, "-" * sum(widths)]
        lines.append("".join(n.ljust(w) for n, w in zip(names, widths)))
        for point in self.points:
            cells = [str(point.get(n, "")) for n in names]
            lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))
        return "\n".join(lines)


@dataclass
class ExperimentRecord:
    """One reproduced table/figure: identity, parameters, and the measured rows."""

    experiment_id: str
    description: str
    parameters: Dict[str, object] = field(default_factory=dict)
    measurements: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add_measurement(self, **values: object) -> None:
        self.measurements.append(dict(values))

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)

    def save(self, directory: PathLike) -> Path:
        """Write the record under ``directory`` as ``<experiment_id>.json``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id}.json"
        path.write_text(self.to_json(), encoding="utf-8")
        return path


def summarize_results(results: Sequence[MiningResult]) -> str:
    """Multi-line summary of several mining results (used by examples and the CLI)."""
    return "\n".join(result.summary() for result in results)


def phase_time_table(
    result: MiningResult,
    spans: Optional[Sequence] = None,
    title: str = "Phase times",
) -> str:
    """The ``mine --telemetry`` phase-time table.

    Rows come from the run's stage durations
    (:class:`~repro.core.results.MiningStatistics`); when the tracer's span
    trees are passed as ``spans`` (:class:`repro.obs.Span` roots), each
    top-level span adds its per-unit child aggregation — count, child total
    and self time — so the table shows where a stage's wall-clock went.
    """
    durations = result.statistics.stage_durations
    total = sum(durations.values()) or result.runtime_seconds or 0.0
    names = ["phase", "seconds", "share"]
    widths = [max(26, len(n) + 2) for n in names]
    lines = [title, "-" * sum(widths)]
    lines.append("".join(n.ljust(w) for n, w in zip(names, widths)))

    def row(phase: str, seconds: float) -> None:
        share = f"{100.0 * seconds / total:5.1f}%" if total else "-"
        cells = [phase, f"{seconds:.4f}", share]
        lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)))

    for name in sorted(durations):
        row(name, durations[name])
    row("total", total)
    for span in spans or ():
        if not getattr(span, "children", None):
            continue
        child_total = span.child_total()
        lines.append(
            f"  {span.name}: {len(span.children)} child span(s), "
            f"{child_total:.4f}s in children, {span.self_time():.4f}s self"
        )
    return "\n".join(lines)


def decision_table(counters: Mapping[str, float]) -> str:
    """The ``mine --telemetry`` table of frequency-check decisions.

    One row per step of the frequency check (``DECISION_STEPS``), one column
    per site: ``support`` for Stage-I ``is_frequent`` calls and ``growth``
    for Stage-II/III candidates.  ``counters`` is a registry's counter dump.
    A greedy reject is the one decision that may be wrong, so its row says so.
    """
    widths = [26, 12, 12]
    lines = ["Frequency decisions", "-" * sum(widths)]
    lines.append("".join(c.ljust(w) for c, w in zip(("step",) + DECISION_SITES, widths)))
    for step in DECISION_STEPS:
        cells = [step] + [
            str(int(counters.get(f"{site}.decided.{step}", 0))) for site in DECISION_SITES
        ]
        note = "  (may be wrong: greedy MIS is a lower bound)" if step == "greedy_reject" else ""
        lines.append("".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + note)
    return "\n".join(lines)
