"""Chaos suite: every injected corruption class is detected or recovered.

ISSUE acceptance criterion: under a fixed seed, each fault class from
:class:`repro.robustness.FaultInjector` is either caught by the
:class:`~repro.robustness.InvariantAuditor` (checked mode) or absorbed
by the :func:`~repro.robustness.resilient_ppsp` fallback chain, and a
budget-exhausted run returns ``exact=False`` with a finite upper bound
that never undercuts the true distance.

Injection steps are derived from a clean traced run (``mu_window``), so
the scenarios self-calibrate to the search instead of hard-coding step
numbers that would drift with engine changes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ppsp
from repro.robustness import (
    Budget,
    FaultInjector,
    InvariantAuditor,
    resilient_ppsp,
)
from repro.robustness.resilient import REFERENCE_RUNG
from repro.robustness.faults import InjectedFault

from .conftest import mu_window

SEED = 2025  # one fixed seed for the whole suite (CI runs it verbatim)

ENGINE_METHODS = ["sssp", "et", "bids", "astar", "bidastar"]


def checked(graph, s, t, method, injector):
    return ppsp(
        graph, s, t, method=method,
        auditor=InvariantAuditor(seed=SEED),
        fault_injector=injector,
    )


class TestAuditorCatchesEachCorruptionClass:
    @pytest.mark.parametrize("method", ENGINE_METHODS)
    def test_corrupt_dist_detected(self, grid, grid_query, method):
        s, t, _ = grid_query
        injector = FaultInjector(
            seed=SEED, corrupt_dist_at=2, corrupt_dist_count=3
        )
        with pytest.raises(Exception) as exc:
            checked(grid, s, t, method, injector)
        assert exc.value.kind == "dist-increase"
        assert injector.fired == [(2, "corrupt-dist")]

    @pytest.mark.parametrize("method", ENGINE_METHODS)
    def test_drop_frontier_detected(self, grid, grid_query, method):
        s, t, _ = grid_query
        injector = FaultInjector(seed=SEED, drop_frontier_at=2)
        with pytest.raises(Exception) as exc:
            checked(grid, s, t, method, injector)
        assert exc.value.kind == "frontier-drop"
        assert injector.fired == [(2, "drop-frontier")]

    @pytest.mark.parametrize("method", ["et", "bids", "astar", "bidastar"])
    def test_corrupt_mu_detected(self, grid, grid_query, method):
        s, t, _ = grid_query
        # Shrink μ just after it first becomes finite: the fake bound has
        # no witnessing path in the distance table.
        first_finite, total = mu_window(grid, s, t, method)
        assert first_finite is not None and first_finite + 1 < total
        injector = FaultInjector(seed=SEED, corrupt_mu_at=first_finite + 1,
                                 mu_factor=0.25)
        with pytest.raises(Exception) as exc:
            checked(grid, s, t, method, injector)
        assert exc.value.kind == "mu-unwitnessed"
        assert injector.fired == [(first_finite + 1, "corrupt-mu")]

    @pytest.mark.parametrize("method", ["astar", "bidastar"])
    def test_perturbed_heuristic_detected(self, grid, grid_query, method):
        s, t, _ = grid_query
        injector = FaultInjector(seed=SEED, perturb_heuristic=True)
        with pytest.raises(Exception) as exc:
            checked(grid, s, t, method, injector)
        assert exc.value.kind in ("heuristic-endpoint", "heuristic-inconsistent")
        assert injector.fired == [(-1, "perturb-heuristic")]

    def test_injected_exception_surfaces_unchecked(self, grid, grid_query):
        s, t, _ = grid_query
        injector = FaultInjector(seed=SEED, raise_at=1)
        with pytest.raises(InjectedFault):
            ppsp(grid, s, t, method="bids", fault_injector=injector)


class TestFallbackChainRecoversEachClass:
    """The same corruptions, but resilient_ppsp must deliver an exact answer.

    Checked mode turns silent corruption into a (permanent)
    InvariantViolation; the chain then walks down to a rung the spent
    injector no longer corrupts — or to the engine-free reference rung.
    """

    def recovered(self, grid, s, t, true, injector, **kwargs):
        res = resilient_ppsp(
            grid, s, t, checked=True, fault_injector=injector, **kwargs
        )
        assert res.exact
        assert res.distance == pytest.approx(true)
        return res

    def test_recovers_from_corrupt_dist(self, grid, grid_query):
        s, t, true = grid_query
        injector = FaultInjector(seed=SEED, corrupt_dist_at=2, corrupt_dist_count=3)
        res = self.recovered(grid, s, t, true, injector)
        assert res.attempts[0].outcome == "error"
        assert "dist-increase" in res.attempts[0].error

    def test_recovers_from_dropped_frontier(self, grid, grid_query):
        s, t, true = grid_query
        injector = FaultInjector(seed=SEED, drop_frontier_at=2)
        res = self.recovered(grid, s, t, true, injector)
        assert "frontier-drop" in res.attempts[0].error

    def test_recovers_from_corrupt_mu(self, grid, grid_query):
        s, t, true = grid_query
        first_finite, _ = mu_window(grid, s, t, "bidastar")
        injector = FaultInjector(seed=SEED, corrupt_mu_at=first_finite + 1)
        self.recovered(grid, s, t, true, injector)
        assert injector.fired  # the corruption really happened

    def test_recovers_from_perturbed_heuristic(self, grid, grid_query):
        s, t, true = grid_query
        # Only the A*-family rung has heuristics to corrupt; the chain's
        # geometry-free bids rung must answer.
        injector = FaultInjector(seed=SEED, perturb_heuristic=True)
        res = self.recovered(grid, s, t, true, injector)
        assert res.method in ("bids", "et")

    def test_recovers_from_raised_fault(self, grid, grid_query):
        s, t, true = grid_query
        injector = FaultInjector(seed=SEED, raise_at=2, max_fires=1)
        res = self.recovered(grid, s, t, true, injector)
        assert res.method == "bids"
        assert [(a.method, a.outcome) for a in res.attempts] == [
            ("bidastar", "error"), ("bids", "ok"),
        ]

    def test_recovers_from_persistent_crashes_via_reference(self, grid, grid_query):
        s, t, true = grid_query
        injector = FaultInjector(seed=SEED, raise_at=0, max_fires=100)
        res = self.recovered(grid, s, t, true, injector)
        assert res.method == REFERENCE_RUNG


class TestBudgetExhaustionCriterion:
    @pytest.mark.parametrize("method", ["et", "bids", "astar", "bidastar"])
    def test_exhausted_run_keeps_finite_upper_bound(self, grid, grid_query, method):
        s, t, true = grid_query
        # Cut the search after μ is finite but before natural termination:
        # the degraded answer must be a finite bound >= the true distance.
        first_finite, total = mu_window(grid, s, t, method)
        assert first_finite is not None and first_finite + 1 < total
        ans = ppsp(grid, s, t, method=method, budget=Budget(max_steps=first_finite + 1))
        assert not ans.exact
        assert np.isfinite(ans.distance)
        assert ans.distance >= true - 1e-9
        assert ans.budget_report.exhausted

    def test_determinism_under_fixed_seed(self, grid, grid_query):
        s, t, _ = grid_query

        def run():
            injector = FaultInjector(seed=SEED, corrupt_dist_at=2,
                                     corrupt_dist_count=3)
            try:
                checked(grid, s, t, "bids", injector)
            except Exception as err:  # noqa: BLE001
                return (err.kind, err.step, str(err), tuple(injector.fired))
            return None

        first, second = run(), run()
        assert first is not None
        assert first == second
