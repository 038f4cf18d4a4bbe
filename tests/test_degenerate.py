"""Degenerate inputs: boundary queries, bad ids, bad weights, empty batches.

Robustness satellite of the framework: every edge case must produce
either a correct answer or a clear, early error — never a cryptic numpy
traceback from deep inside the engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import batch_ppsp, ppsp, solve_batch, validate_query
from repro.core.paths import PathError
from repro.graphs import build_graph, from_edges, road_graph
from repro.graphs.csr import Graph
from repro.heuristics import ZeroHeuristic
from repro.robustness import Budget
from repro.verify import CertificateChecker

METHODS = ["sssp", "et", "bids", "astar", "bidastar"]
BATCH_METHODS = ["multi", "plain-bids", "plain-star-bids", "sssp-plain", "sssp-vc"]


def _run(graph, s, t, method):
    """ppsp() with explicit zero heuristics on coordinate-free graphs."""
    kwargs = {}
    if graph.coords is None:
        if method == "astar":
            kwargs["heuristic"] = ZeroHeuristic()
        elif method == "bidastar":
            kwargs["heuristic_to_source"] = ZeroHeuristic()
            kwargs["heuristic_to_target"] = ZeroHeuristic()
    return ppsp(graph, s, t, method=method, **kwargs)


class TestSourceEqualsTarget:
    @pytest.mark.parametrize("method", METHODS)
    def test_distance_zero(self, small_road, method):
        ans = ppsp(small_road, 7, 7, method=method)
        assert ans.distance == 0.0
        assert ans.exact
        assert ans.reachable

    @pytest.mark.parametrize("method", METHODS)
    def test_trivial_path(self, small_road, method):
        assert ppsp(small_road, 7, 7, method=method).path() == [7]

    def test_batch_with_identical_pair(self, small_road):
        res = batch_ppsp(small_road, [(3, 3), (0, 10)])
        assert res.distances[(3, 3)] == 0.0


class TestSelfPairUnderBudget:
    """A self pair is answered by its bind (μ = 0), so it is exact under
    any budget, even one that cuts the run before its first step."""

    @pytest.mark.parametrize("method", METHODS)
    def test_ppsp_cut_before_first_step(self, method):
        g = road_graph(10, 10, seed=1)
        ans = ppsp(g, 5, 5, method=method, budget=Budget(max_steps=0), certify=True)
        assert ans.distance == 0.0
        assert ans.exact
        report = CertificateChecker().check(g, ans.certificate, expected_distance=0.0)
        assert report.proven == "exact"

    def test_plain_batch_unit_cut_before_first_step(self):
        g = road_graph(10, 10, seed=1)
        res = solve_batch(g, [(0, 99), (5, 5)], method="plain-bids",
                          budget=Budget(max_steps=11))
        assert res.answers[(5, 5)].distance == 0.0
        assert res.answers[(5, 5)].exact
        assert res.answers[(5, 5)].outcome == "ok"

    def test_cut_multi_unit_certifies_its_self_pair_exact(self):
        # One composite unit that a relaxation budget cuts: every other
        # key degrades to an upper bound, the self pair stays exact.
        g = road_graph(30, 30, seed=3)
        pairs = [(715, 551), (551, 848), (848, 715), (541, 848), (69, 2), (709, 709)]
        res = solve_batch(g, pairs, method="multi",
                          budget=Budget(max_relaxations=1500), certify=True)
        assert [a.exact for a in res.answers.values()] == [False] * 5 + [True]
        ans = res.answers[(709, 709)]
        assert (ans.distance, ans.outcome) == (0.0, "ok")
        assert ans.certificate.exact
        report = CertificateChecker().check(g, ans.certificate, expected_distance=0.0)
        assert report.proven == "exact"


class TestUnreachable:
    @pytest.mark.parametrize("method", METHODS)
    def test_infinite_distance(self, disconnected_graph, method):
        ans = _run(disconnected_graph, 0, 4, method)
        assert np.isinf(ans.distance)
        assert ans.exact  # proven disconnected, not budget-limited
        assert not ans.reachable

    @pytest.mark.parametrize("method", METHODS)
    def test_path_raises_path_error(self, disconnected_graph, method):
        ans = _run(disconnected_graph, 0, 4, method)
        with pytest.raises(PathError):
            ans.path()

    @pytest.mark.parametrize("method", BATCH_METHODS)
    def test_batch_mixes_reachable_and_not(self, disconnected_graph, method):
        res = batch_ppsp(disconnected_graph, [(0, 2), (0, 4)], method=method)
        assert res.distances[(0, 2)] == pytest.approx(2.0)
        assert np.isinf(res.distances[(0, 4)])


class TestEmptyBatch:
    @pytest.mark.parametrize("queries", [[], ()])
    def test_empty_queries(self, small_road, queries):
        res = batch_ppsp(small_road, queries)
        assert res.distances == {}
        assert res.num_searches == 0
        assert res.exact

    def test_unknown_method_still_rejected(self, small_road):
        with pytest.raises(ValueError, match="unknown"):
            batch_ppsp(small_road, [], method="bogus")


class TestEndpointValidation:
    @pytest.mark.parametrize("bad", [-1, 144, 10**9])
    def test_ppsp_bad_source(self, small_road, bad):
        with pytest.raises(ValueError, match=f"source vertex {bad} out of range"):
            ppsp(small_road, bad, 0)

    @pytest.mark.parametrize("bad", [-5, 144])
    def test_ppsp_bad_target(self, small_road, bad):
        with pytest.raises(ValueError, match=f"target vertex {bad} out of range"):
            ppsp(small_road, 0, bad)

    def test_error_names_graph(self, small_road):
        with pytest.raises(ValueError, match="'small-road' with 144 vertices"):
            ppsp(small_road, 0, 999)

    def test_empty_graph_rejected(self):
        g = from_edges([], [], [], num_vertices=0)
        with pytest.raises(ValueError, match="no vertices"):
            ppsp(g, 0, 0)

    def test_validate_query_is_public(self, small_road):
        validate_query(small_road, 0, 143)  # fine
        with pytest.raises(ValueError):
            validate_query(small_road, 0, 144)

    @pytest.mark.parametrize("method", BATCH_METHODS)
    def test_batch_bad_endpoint(self, small_road, method):
        with pytest.raises(ValueError, match=r"vertex 999 out of range"):
            batch_ppsp(small_road, [(0, 5), (3, 999)], method=method)


class TestBadWeightsRejectedAtConstruction:
    def test_negative_weight_names_edge(self):
        with pytest.raises(ValueError, match=r"edge #1 \(0 -> 2\) has negative"):
            build_graph([(0, 1, 1.0), (0, 2, -3.0)], directed=True)

    def test_nan_weight_names_edge(self):
        with pytest.raises(ValueError, match=r"edge #0 \(0 -> 1\) has NaN"):
            build_graph([(0, 1, float("nan"))], directed=True)

    def test_first_bad_edge_reported(self):
        with pytest.raises(ValueError, match="edge #1"):
            build_graph(
                [(0, 1, 1.0), (1, 2, -1.0), (2, 3, -2.0)], directed=True
            )

    def test_validate_false_escape_hatch(self):
        # Diagnostic loads (repro info) may bypass checks deliberately.
        g = Graph(
            indptr=np.array([0, 1, 1], dtype=np.int64),
            indices=np.array([1], dtype=np.int64),
            weights=np.array([-5.0]),
            directed=True,
            validate=False,
        )
        assert g.num_edges == 1

    def test_zero_weight_is_fine(self):
        g = build_graph([(0, 1, 0.0)], directed=True)
        assert ppsp(g, 0, 1, method="sssp").distance == 0.0
