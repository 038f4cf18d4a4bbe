"""Integration: every instrumented hot path reports to the Observer.

One test per instrumented site — engine runs, frontier switching, batch
solving, the resilient fallback chain, landmark h-row memos, and budget
exhaustion — plus the pay-for-use contract: attaching
an observer never changes the deterministic counters of the run it
observes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import batch_ppsp, ppsp
from repro.core.batch import solve_batch
from repro.graphs import knn_graph, road_graph
from repro.graphs.knn import uniform_points
from repro.heuristics.landmarks import LandmarkSet
from repro.obs import Observer
from repro.robustness import Budget, FaultInjector
from repro.robustness.resilient import REFERENCE_RUNG, resilient_ppsp

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def grid():
    return road_graph(10, 10, seed=5, name="obs-road")


def _counter(obs, name, **labels):
    return obs.registry.get(name).value(**labels)


class TestEngineInstrumentation:
    @pytest.mark.parametrize("method,label", [
        ("sssp", "sssp"), ("et", "et"), ("astar", "astar"),
        ("bids", "bids"), ("bidastar", "bidastar"),
    ])
    def test_run_counters_by_policy_label(self, grid, method, label):
        obs = Observer()
        ans = ppsp(grid, 0, 99, method=method, observer=obs)
        assert _counter(obs, "repro_runs_total", policy=label) == 1
        assert _counter(obs, "repro_steps_total", policy=label) == ans.run.steps
        assert _counter(obs, "repro_relaxations_total", policy=label) == ans.run.relaxations

    def test_observed_run_always_traced(self, grid):
        """Pruned/mu metrics flow even when the caller passed no trace."""
        obs = Observer()
        ppsp(grid, 0, 99, method="bids", observer=obs)
        hist = obs.registry.get("repro_frontier_peak")
        assert hist.snapshot(policy="bids")["count"] == 1

    def test_pay_for_use_deterministic_counters_identical(self, grid):
        plain = ppsp(grid, 0, 99, method="bids")
        observed = ppsp(grid, 0, 99, method="bids", observer=Observer())
        assert observed.run.steps == plain.run.steps
        assert observed.run.relaxations == plain.run.relaxations
        assert observed.run.meter.work == plain.run.meter.work
        assert observed.distance == plain.distance

    def test_budget_exhaustion_counted_by_limit(self, grid):
        obs = Observer()
        ppsp(grid, 0, 99, method="bids", budget=Budget(max_steps=1), observer=obs)
        assert _counter(obs, "repro_budget_exhausted_total", limit="max_steps") == 1


class TestFrontierInstrumentation:
    def test_switches_recorded(self):
        # A dense graph forces sparse->dense and back as the wave passes.
        g = knn_graph(uniform_points(400, 2, seed=7), k=8, name="obs-knn")
        obs = Observer()
        ppsp(g, 0, 1, method="sssp", observer=obs)
        to_dense = _counter(obs, "repro_frontier_switches_total", to="dense")
        to_sparse = _counter(obs, "repro_frontier_switches_total", to="sparse")
        assert to_dense >= 1
        assert to_sparse >= 0  # may or may not shrink back before draining


class TestBatchInstrumentation:
    def test_solve_batch_reports(self, grid):
        obs = Observer()
        pairs = [(0, 99), (5, 50), (7, 70)]
        res = solve_batch(grid, pairs, method="multi", observer=obs)
        assert _counter(obs, "repro_batches_total", method="multi") == 1
        assert _counter(obs, "repro_batch_searches_total", method="multi") == res.num_searches
        # These three pairs share no endpoints: three query-graph
        # components, packed into one composite engine run.
        assert res.details["components"] == 3
        assert _counter(obs, "repro_runs_total", policy="multi") == 1
        obs2 = Observer()
        solve_batch(grid, [(0, 99), (0, 50), (50, 7)], method="multi", observer=obs2)
        assert _counter(obs2, "repro_runs_total", policy="multi") == 1

    def test_batch_ppsp_passthrough(self, grid):
        obs = Observer()
        batch_ppsp(grid, [(0, 99), (5, 50)], method="sssp-vc", observer=obs)
        assert _counter(obs, "repro_batches_total", method="sssp-vc") == 1


class TestWarmCacheInstrumentation:
    def test_landmark_h_row_events(self):
        g = knn_graph(uniform_points(120, 2, seed=3), k=5, name="obs-lm")
        obs = Observer()
        lm = LandmarkSet(g, k=4, observer=obs)
        lm.heuristic_to(7)
        lm.heuristic_to(7)
        assert _counter(obs, "repro_cache_events_total",
                        layer="landmark_h_row", event="miss") == 1
        assert _counter(obs, "repro_cache_events_total",
                        layer="landmark_h_row", event="hit") == 1


class TestResilientInstrumentation:
    def test_clean_chain_one_ok_attempt(self, grid):
        obs = Observer()
        ans = resilient_ppsp(grid, 0, 99, observer=obs)
        assert ans.exact
        assert _counter(obs, "repro_fallback_attempts_total",
                        method=ans.method, outcome="ok") == 1

    def test_failing_rungs_counted(self, grid):
        obs = Observer()
        # A fault at step 0 fires on every fresh engine rung until
        # max_fires is spent: bidastar and bids error once each, and
        # the chain lands on et.
        injector = FaultInjector(seed=1, raise_at=0, max_fires=2)
        ans = resilient_ppsp(grid, 0, 99, observer=obs, fault_injector=injector)
        assert ans.exact
        assert ans.method == "et"
        for method in ("bidastar", "bids"):
            assert _counter(obs, "repro_fallback_attempts_total",
                            method=method, outcome="error") == 1
        assert _counter(obs, "repro_fallback_attempts_total",
                        method="et", outcome="ok") == 1

    def test_reference_rung_counted(self, grid):
        obs = Observer()
        ans = resilient_ppsp(grid, 0, 99, methods=(), observer=obs)
        assert ans.method == REFERENCE_RUNG
        assert _counter(obs, "repro_fallback_attempts_total",
                        method=REFERENCE_RUNG, outcome="ok") == 1


class TestExports:
    def test_text_and_json_agree_on_a_counter(self, grid):
        obs = Observer()
        ppsp(grid, 0, 99, method="bids", observer=obs)
        text = obs.export_text()
        assert 'repro_runs_total{policy="bids"} 1' in text
        payload = obs.export_json()
        by_name = {m["name"]: m for m in payload["metrics"]}
        sample = by_name["repro_runs_total"]["samples"][0]
        assert sample == {"labels": {"policy": "bids"}, "value": 1.0}
