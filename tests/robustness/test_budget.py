"""Execution budgets: graceful degradation instead of crashes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import batch_ppsp, ppsp
from repro.robustness import Budget
from repro.robustness.budget import BudgetMeter


class TestBudgetSpec:
    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            Budget(max_steps=-1)

    def test_unlimited(self):
        assert Budget().unlimited
        assert not Budget(max_steps=5).unlimited

    def test_meter_counts_and_trips(self):
        meter = Budget(max_steps=2, max_relaxations=100).start()
        assert meter.check() is None
        meter.charge(steps=1, relaxations=10)
        assert meter.check() is None
        meter.charge(steps=1, relaxations=10)
        assert "max_steps" in meter.check()
        assert meter.exhausted

    def test_reason_is_sticky(self):
        meter = Budget(max_steps=1).start()
        meter.charge(steps=1)
        first = meter.check()
        meter.steps = 0  # even if counters are tampered with afterwards
        assert meter.check() == first

    def test_relaxation_limit(self):
        meter = Budget(max_relaxations=5).start()
        meter.charge(relaxations=6)
        assert "max_relaxations" in meter.check()

    def test_report_to_dict(self):
        meter = Budget(max_steps=1, wall_time=60.0).start()
        meter.charge(steps=1, relaxations=7)
        assert meter.check() is not None  # a report is exhausted once a check trips
        d = meter.report().to_dict()
        assert d["exhausted"] is True
        assert d["steps"] == 1 and d["relaxations"] == 7
        assert d["limits"]["wall_time"] == 60.0


class TestQueryBudgets:
    def test_step_budget_degrades_gracefully(self, grid, grid_query):
        s, t, true = grid_query
        ans = ppsp(grid, s, t, method="et", budget=Budget(max_steps=3))
        assert not ans.exact
        assert ans.distance >= true - 1e-9  # μ is always an upper bound
        assert ans.budget_report.exhausted
        assert "max_steps" in ans.budget_report.reason
        assert ans.run.steps <= 3

    def test_unlimited_budget_stays_exact(self, grid, grid_query):
        s, t, true = grid_query
        ans = ppsp(grid, s, t, method="bids", budget=Budget())
        assert ans.exact
        assert ans.distance == pytest.approx(true)
        assert not ans.budget_report.exhausted

    def test_zero_wall_time_stops_immediately(self, grid, grid_query):
        s, t, _ = grid_query
        ans = ppsp(grid, s, t, method="bids", budget=Budget(wall_time=0.0))
        assert not ans.exact
        assert ans.run.steps == 0
        assert np.isinf(ans.distance)

    def test_sssp_budget_row_is_upper_bound(self, grid, grid_query):
        s, t, true = grid_query
        ans = ppsp(grid, s, t, method="sssp", budget=Budget(max_steps=4))
        assert not ans.exact
        assert ans.distance >= true - 1e-9

    def test_relaxation_budget(self, grid, grid_query):
        s, t, _ = grid_query
        ans = ppsp(grid, s, t, method="et", budget=Budget(max_relaxations=50))
        assert not ans.exact
        assert "max_relaxations" in ans.budget_report.reason


class TestBatchBudgets:
    QUERIES = [(0, 143), (5, 100), (7, 60)]

    @pytest.mark.parametrize("method", ["multi", "plain-bids", "sssp-vc"])
    def test_shared_budget_marks_batch_inexact(self, grid, method):
        res = batch_ppsp(grid, self.QUERIES, method=method, budget=Budget(max_steps=2))
        assert not res.exact
        report = res.details["budget_report"]
        assert report.exhausted
        # Distances degrade to upper bounds (inf for unreached queries),
        # never undercutting the true distances.
        from repro.baselines.dijkstra import dijkstra_ppsp

        for (s, t), d in res.distances.items():
            assert d >= dijkstra_ppsp(grid, s, t) - 1e-9

    def test_generous_budget_stays_exact(self, grid):
        res = batch_ppsp(grid, self.QUERIES, budget=Budget(max_steps=10_000))
        assert res.exact
        assert not res.details["budget_report"].exhausted

    def test_shared_meter_spans_runs(self, grid):
        # One meter across the whole batch: it accumulates the steps of
        # every per-pair run, not just the last one.
        single = BudgetMeter(Budget())
        batch_ppsp(grid, self.QUERIES[:1], method="plain-bids", budget=single)
        shared = BudgetMeter(Budget())
        batch_ppsp(grid, self.QUERIES, method="plain-bids", budget=shared)
        assert single.steps > 0
        assert shared.steps > single.steps
