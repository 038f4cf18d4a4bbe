"""Fallback chains: resilient_ppsp survives failing rungs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.dijkstra import dijkstra_ppsp
from repro.graphs import from_edges
from repro.robustness import (
    DEFAULT_CHAIN,
    Budget,
    FaultInjector,
    ResilientAnswer,
    resilient_ppsp,
)
from repro.robustness.resilient import REFERENCE_RUNG


class TestHappyPath:
    def test_first_rung_answers(self, grid, grid_query):
        s, t, true = grid_query
        res = resilient_ppsp(grid, s, t)
        assert res.exact
        assert res.method == DEFAULT_CHAIN[0] == "bidastar"
        assert res.distance == pytest.approx(true)
        assert [a.outcome for a in res.attempts] == ["ok"]

    def test_path_delegates_to_engine_answer(self, grid, grid_query):
        s, t, true = grid_query
        res = resilient_ppsp(grid, s, t)
        path = res.path()
        assert path[0] == s and path[-1] == t

    def test_query_validated_up_front(self, grid):
        with pytest.raises(ValueError, match="target vertex 99999"):
            resilient_ppsp(grid, 0, 99999)


class TestDegradedRungs:
    def test_coordless_graph_falls_through_to_bids(self, grid_query):
        # No coordinates: bidastar cannot build heuristics and errors out;
        # the chain must recover on the geometry-free bids rung.
        g = from_edges([0, 1, 2], [1, 2, 3], [1.0, 2.0, 3.0], directed=False)
        res = resilient_ppsp(g, 0, 3)
        assert res.exact
        assert res.method == "bids"
        assert res.distance == pytest.approx(6.0)
        assert res.attempts[0].method == "bidastar"
        assert res.attempts[0].outcome == "error"

    def test_failed_rung_hands_query_to_next_rung(self, grid, grid_query):
        s, t, true = grid_query
        injector = FaultInjector(seed=1, raise_at=2, max_fires=1)
        res = resilient_ppsp(grid, s, t, fault_injector=injector)
        assert res.exact
        assert res.distance == pytest.approx(true)
        # Each rung runs once: the failed one is not tried again.
        assert [(a.method, a.outcome) for a in res.attempts] == [
            ("bidastar", "error"),
            ("bids", "ok"),
        ]

    def test_permanent_faults_drop_to_reference(self, grid, grid_query):
        s, t, true = grid_query
        # Fire a permanent fault at step 0 of every engine rung: only the
        # engine-free Dijkstra oracle can answer.
        injector = FaultInjector(seed=1, raise_at=0, max_fires=100)
        res = resilient_ppsp(grid, s, t, fault_injector=injector)
        assert res.exact
        assert res.method == REFERENCE_RUNG
        assert res.distance == pytest.approx(true)
        engine_tries = [a for a in res.attempts if a.method != REFERENCE_RUNG]
        assert {a.method for a in engine_tries} == set(DEFAULT_CHAIN)
        assert all(a.outcome == "error" for a in engine_tries)

    def test_budgeted_chain_without_reference_returns_bound(self, grid, grid_query):
        s, t, true = grid_query
        res = resilient_ppsp(
            grid, s, t, budget=Budget(max_steps=1), reference_fallback=False
        )
        assert isinstance(res, ResilientAnswer)
        assert not res.exact
        assert res.distance >= true - 1e-9  # best μ across rungs: still a bound
        assert all(a.outcome == "inexact" for a in res.attempts)

    def test_budgeted_chain_with_reference_is_exact(self, grid, grid_query):
        s, t, true = grid_query
        res = resilient_ppsp(grid, s, t, budget=Budget(max_steps=1))
        assert res.exact
        assert res.method == REFERENCE_RUNG
        assert res.distance == pytest.approx(true)

    def test_reference_rung_has_no_path_state(self, grid, grid_query):
        s, t, _ = grid_query
        injector = FaultInjector(seed=1, raise_at=0, max_fires=100)
        res = resilient_ppsp(grid, s, t, fault_injector=injector)
        with pytest.raises(NotImplementedError, match="dijkstra-reference"):
            res.path()

    def test_unreachable_is_exact_inf(self):
        g = from_edges([0], [1], [1.0], num_vertices=4, directed=True)
        res = resilient_ppsp(g, 3, 0)
        assert res.exact
        assert not res.reachable
        assert np.isinf(res.distance)
