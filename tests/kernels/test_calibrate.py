"""Calibration layer: the Δ doubling, and a default Δ that never times."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stepping import DeltaStepping, default_strategy
from repro.graphs import build_graph, road_graph
from repro.kernels import calibrate
from repro.kernels.calibrate import calibrate_delta


@pytest.fixture(autouse=True)
def _fresh_state(monkeypatch):
    """Isolate the process-wide Δ cache from other tests (and vice versa)."""
    monkeypatch.setattr(calibrate, "_DELTA_CACHE", {})


def test_calibrate_delta_cached_by_fingerprint():
    g = road_graph(6, 6, seed=4)
    calls = []
    d1 = calibrate_delta(g, doublings=3)
    assert d1 > 0
    # Same fingerprint -> cache hit, even through a rebuilt object.
    g2 = road_graph(6, 6, seed=4)
    assert g.fingerprint() == g2.fingerprint()
    assert calibrate_delta(g2, doublings=3) == d1
    assert not calls


def test_calibrate_delta_empty_graph():
    g = build_graph([], num_vertices=3)
    assert calibrate_delta(g) == 1.0


def test_default_strategy_static_on_uniform_weights():
    """Low-dispersion weights get Δ = 2 × mean."""
    g = road_graph(6, 6, seed=4)
    mean_w, _ = g.weight_stats()
    strat = default_strategy(g)
    assert isinstance(strat, DeltaStepping)
    assert strat.delta == pytest.approx(max(mean_w * 2.0, 1e-12))


def test_default_strategy_never_times_skewed_weights(monkeypatch):
    """Heavy-tailed weights (std/mean > 1.5) get Δ = 2 × mean too, and
    the doubling procedure is never run: its timed pick can land on
    2 × mean by chance, so the test asserts the call, not the value."""
    rng = np.random.default_rng(0)
    edges = []
    for i in range(40):
        w = 1e-3 if rng.random() < 0.9 else 50.0  # bimodal: huge cv
        edges.append((i, (i + 1) % 40, w))
    g = build_graph(edges, name="skewed")
    mean_w, std_w = g.weight_stats()
    assert std_w > 1.5 * mean_w

    def timed(*args, **kwargs):
        raise AssertionError("default_strategy ran the timed Δ doubling")

    monkeypatch.setattr(calibrate, "calibrate_delta", timed)
    strat = default_strategy(g)
    assert isinstance(strat, DeltaStepping)
    assert strat.delta == 2.0 * mean_w
    assert not calibrate._DELTA_CACHE


def test_experiments_tune_a_reweighted_graph_on_its_own(monkeypatch):
    """``Graph.with_weights`` keeps the name; the Δ an experiment runs
    with must still come from the reweighted graph, not the original."""
    from repro.core.engine import run_policy
    from repro.experiments import harness

    g = road_graph(5, 5, seed=2, name="tune-me")
    heavy = g.with_weights(g.weights * 1000)
    assert heavy.name == g.name
    used = []

    def spy(graph, policy, *, strategy):
        used.append(strategy.delta)
        return run_policy(graph, policy, strategy=strategy)

    monkeypatch.setattr(harness, "run_policy", spy)
    harness.run_single_query(g, "bids", 0, 24)
    harness.run_single_query(heavy, "bids", 0, 24)
    assert used == [calibrate_delta(g), calibrate_delta(heavy)]
    assert used[1] != used[0]
