"""Deciding frequency gives the same mine as computing support.

Stage I asks ``is_frequent`` and Stages II/III ask ``GrowthEngine.is_frequent``;
both stop at the first step that decides (raw count, distinct images, image
bound, σ-stopping MIS).  A small hub-heavy Barabási–Albert graph is mined
twice per measure and backend: once as shipped, and once with both checks
replaced by test-local oracles that compute the full support and compare it
with σ.  The digests must be identical.

The same runs check the decision telemetry: every frequency check is counted
under exactly one step, and the counters reach ``mine --telemetry`` and
``/metrics``.
"""

from __future__ import annotations

import json
import urllib.request

import pytest

import repro
from repro import open_catalog
from repro.cli import main
from repro.core import SpiderMine, SpiderMineConfig, growth, spider_miner
from repro.graph import freeze, io as graph_io
from repro.graph.generators import barabasi_albert_graph
from repro.obs import MetricsRegistry, use_registry, use_tracer
from repro.patterns import SupportMeasure
from repro.patterns.overlap import DECISION_SITES, DECISION_STEPS, DEFAULT_EXACT_LIMIT
from repro.patterns.support import compute_support

MIS_MEASURES = [SupportMeasure.HARMFUL_OVERLAP, SupportMeasure.EDGE_DISJOINT]


@pytest.fixture(scope="module")
def hub_graph():
    return barabasi_albert_graph(200, 2, 8, seed=3)


def _config(measure: SupportMeasure) -> SpiderMineConfig:
    return SpiderMineConfig(
        min_support=4, max_spider_size=3, max_embeddings_per_pattern=40,
        k=2, d_max=3, seed=0, max_seed_count=8, max_growth_iterations=3,
        support_measure=measure,
    )


def _oracle_is_frequent(
    pattern, min_support, measure=SupportMeasure.HARMFUL_OVERLAP,
    exact_limit=DEFAULT_EXACT_LIMIT,
):
    return compute_support(pattern, measure, exact_limit) >= min_support


def _decided(counters, site):
    return {step: counters.get(f"{site}.decided.{step}", 0) for step in DECISION_STEPS}


@pytest.mark.parametrize("backend", ["dict", "csr"])
@pytest.mark.parametrize("measure", MIS_MEASURES, ids=lambda m: m.value)
def test_mine_digest_matches_the_full_support_oracle(hub_graph, backend, measure, monkeypatch):
    graph = freeze(hub_graph) if backend == "csr" else hub_graph
    registry = MetricsRegistry()
    with use_registry(registry):
        decided = SpiderMine(graph, _config(measure)).mine()
    assert decided.patterns
    # The comparison only means something if the shortcuts actually decided.
    counters = registry.snapshot()["counters"]
    support, grown = _decided(counters, "support"), _decided(counters, "growth")
    assert support["image_bound"] and support["greedy_accept"] and support["exact_mis"]
    assert grown["image_bound"] and grown["distinct_images"]

    full_occurrence_support = growth.occurrence_support

    def oracle_growth_is_frequent(engine, occurrences):
        config = engine.config
        return full_occurrence_support(occurrences, config.support_measure) >= config.min_support

    monkeypatch.setattr(spider_miner, "is_frequent", _oracle_is_frequent)
    monkeypatch.setattr(growth.GrowthEngine, "is_frequent", oracle_growth_is_frequent)
    oracle = SpiderMine(graph, _config(measure)).mine()
    assert oracle.digest() == decided.digest()


def test_every_frequency_check_is_counted_under_one_step(hub_graph, monkeypatch):
    checks = dict.fromkeys(DECISION_SITES, 0)
    real_is_frequent = spider_miner.is_frequent
    real_occurrence_support = growth.occurrence_support

    def counted_is_frequent(*args, **kwargs):
        checks["support"] += 1
        return real_is_frequent(*args, **kwargs)

    def counted_occurrence_support(*args, **kwargs):
        checks["growth"] += kwargs.get("min_support") is not None
        return real_occurrence_support(*args, **kwargs)

    monkeypatch.setattr(spider_miner, "is_frequent", counted_is_frequent)
    monkeypatch.setattr(growth, "occurrence_support", counted_occurrence_support)
    registry = MetricsRegistry()
    with use_registry(registry):
        SpiderMine(freeze(hub_graph), _config(SupportMeasure.HARMFUL_OVERLAP)).mine()
    counters = registry.snapshot()["counters"]
    for site, calls in checks.items():
        assert calls > 0
        assert sum(_decided(counters, site).values()) == calls
        # Every step is listed, also the ones that never fired.
        assert all(f"{site}.decided.{step}" in counters for step in DECISION_STEPS)


def test_mine_telemetry_prints_the_decision_table(tmp_path, capsys):
    path = tmp_path / "ba.lg"
    graph_io.write_lg([barabasi_albert_graph(100, 2, 8, seed=3)], path)
    with use_registry(None), use_tracer(None):
        code = main(["mine", str(path), "--support", "4", "-k", "2", "--dmax", "3",
                     "--telemetry"])
    assert code == 0
    out = capsys.readouterr().out
    table = out[out.index("Frequency decisions"):].splitlines()
    rows = {line.split()[0]: line.split()[1:] for line in table[3:3 + len(DECISION_STEPS)]}
    assert list(rows) == list(DECISION_STEPS)
    assert sum(int(cells[0]) for cells in rows.values()) > 0
    assert "may be wrong" in " ".join(rows["greedy_reject"])


def test_metrics_endpoint_serves_the_decision_counters(hub_graph, tmp_path):
    registry = MetricsRegistry()
    with use_registry(registry):
        repro.mine(hub_graph, min_support=4, k=2, d_max=3, max_spider_size=3,
                   max_seed_count=8, max_growth_iterations=3, catalog=tmp_path / "cat")
        handle = open_catalog(tmp_path / "cat", read_only=True).serve(port=0, background=True)
        try:
            with urllib.request.urlopen(handle.url + "/metrics", timeout=10) as resp:
                flat = json.loads(resp.read())
        finally:
            handle.close()
    for site in DECISION_SITES:
        served = {step: flat[f"{site}.decided.{step}"] for step in DECISION_STEPS}
        assert served == _decided(registry.snapshot()["counters"], site)
    assert sum(flat[f"support.decided.{step}"] for step in DECISION_STEPS) > 0
