"""Calibration layer: Δ doubling and the strategy trigger."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stepping import CALIBRATE_CV_THRESHOLD, DeltaStepping, default_strategy
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
    """Low-dispersion weights keep the cheap static 2x-mean guess."""
    g = road_graph(6, 6, seed=4)
    mean_w, std_w = g.weight_stats()
    assert std_w <= CALIBRATE_CV_THRESHOLD * mean_w
    strat = default_strategy(g)
    assert isinstance(strat, DeltaStepping)
    assert strat.delta == pytest.approx(max(mean_w * 2.0, 1e-12))


def test_default_strategy_calibrates_on_skewed_weights():
    """A heavy-tailed weight mix (cv > threshold) triggers the doubling
    search; the result must come from the Δ cache afterwards."""
    rng = np.random.default_rng(0)
    edges = []
    for i in range(40):
        w = 1e-3 if rng.random() < 0.9 else 50.0  # bimodal: huge cv
        edges.append((i, (i + 1) % 40, w))
    g = build_graph(edges, name="skewed")
    mean_w, std_w = g.weight_stats()
    assert std_w > CALIBRATE_CV_THRESHOLD * mean_w
    strat = default_strategy(g)
    assert isinstance(strat, DeltaStepping)
    assert g.fingerprint() in calibrate._DELTA_CACHE
    assert strat.delta == calibrate._DELTA_CACHE[g.fingerprint()]


def test_default_strategy_modes():
    g = road_graph(4, 4, seed=1)
    always = default_strategy(g, calibrate="always")
    assert always.delta == calibrate._DELTA_CACHE[g.fingerprint()]
    never = default_strategy(g, calibrate="never")
    mean_w, _ = g.weight_stats()
    assert never.delta == pytest.approx(max(mean_w * 2.0, 1e-12))
    with pytest.raises(ValueError):
        default_strategy(g, calibrate="sometimes")


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
