"""PPSP engine tests: the shared Alg. 2 executor."""

import numpy as np
import pytest

from repro.baselines import dijkstra
from repro.core.engine import run_policy
from repro.core.policies import BiDS, EarlyTermination, SsspPolicy
from repro.core.stepping import BellmanFord, DeltaStepping
from repro.robustness import Budget


class TestBasicExecution:
    def test_line_graph_distances(self, line_graph):
        res = run_policy(line_graph, SsspPolicy(0))
        assert np.allclose(res.distances_from(0), [0, 1, 3, 6, 10])

    def test_diamond_takes_cheaper_route(self, diamond_graph):
        res = run_policy(diamond_graph, SsspPolicy(0))
        assert res.distances_from(0)[3] == 3.0

    def test_unreachable_is_inf(self, disconnected_graph):
        res = run_policy(disconnected_graph, SsspPolicy(0))
        d = res.distances_from(0)
        assert np.isinf(d[3]) and np.isinf(d[4])

    def test_source_distance_zero(self, line_graph):
        res = run_policy(line_graph, SsspPolicy(2))
        assert res.distances_from(0)[2] == 0.0

    def test_result_shape_matches_num_sources(self, line_graph):
        res = run_policy(line_graph, BiDS(0, 4))
        assert res.dist.shape == (2, 5)

    def test_steps_and_relaxations_counted(self, line_graph):
        res = run_policy(line_graph, SsspPolicy(0))
        assert res.steps >= 1
        assert res.relaxations >= 4

    def test_meter_accumulates(self, line_graph):
        res = run_policy(line_graph, SsspPolicy(0))
        assert res.meter.work > 0
        assert res.meter.steps == res.steps
        assert len(res.meter.step_work) == res.steps


class TestEngineOptions:
    def test_max_steps_truncates(self, small_road):
        res = run_policy(small_road, SsspPolicy(0), budget=Budget(max_steps=2))
        assert res.steps == 2
        assert res.exhausted

    @pytest.mark.parametrize("mode", ["auto", "sparse", "dense"])
    def test_frontier_modes_agree(self, small_road, mode):
        res = run_policy(small_road, SsspPolicy(0), frontier_mode=mode)
        assert np.allclose(res.distances_from(0), dijkstra(small_road, 0))

    def test_pull_relax_same_answer(self, small_road):
        a = run_policy(small_road, SsspPolicy(0))
        b = run_policy(small_road, SsspPolicy(0), pull_relax=True)
        assert np.allclose(a.distances_from(0), b.distances_from(0))

    def test_pull_relax_never_more_steps(self, small_knn):
        """Pull relaxation tightens distances earlier, so steps can only
        stay equal or drop."""
        a = run_policy(small_knn, SsspPolicy(0), strategy=DeltaStepping(50.0))
        b = run_policy(
            small_knn, SsspPolicy(0), strategy=DeltaStepping(50.0), pull_relax=True
        )
        assert b.steps <= a.steps
        assert np.allclose(a.distances_from(0), b.distances_from(0))

    def test_external_meter_used(self, line_graph):
        from repro.parallel.cost_model import WorkDepthMeter

        m = WorkDepthMeter()
        res = run_policy(line_graph, SsspPolicy(0), meter=m)
        assert res.meter is m
        assert m.work > 0

    def test_engine_reusable_across_runs(self, small_road):
        strategy = DeltaStepping(25.0)
        r1 = run_policy(small_road, SsspPolicy(0), strategy=strategy)
        r2 = run_policy(small_road, SsspPolicy(5), strategy=strategy)
        assert np.allclose(r1.distances_from(0), dijkstra(small_road, 0))
        assert np.allclose(r2.distances_from(0), dijkstra(small_road, 5))


class TestDirectedGraphs:
    def test_directed_sssp(self):
        from repro.graphs import build_graph

        g = build_graph([(0, 1, 1.0), (1, 2, 1.0)], directed=True)
        d = run_policy(g, SsspPolicy(0)).distances_from(0)
        assert list(d) == [0.0, 1.0, 2.0]
        d2 = run_policy(g, SsspPolicy(2)).distances_from(0)
        assert np.isinf(d2[0]) and np.isinf(d2[1])

    def test_directed_bids_uses_reverse_for_backward(self):
        from repro.graphs import build_graph

        # One-way path 0 -> 1 -> 2: BiDS backward search from 2 must
        # traverse reversed arcs to meet the forward search.
        g = build_graph([(0, 1, 2.0), (1, 2, 3.0)], directed=True)
        res = run_policy(g, BiDS(0, 2))
        assert res.answer == 5.0

    def test_directed_asymmetric_distances(self):
        from repro.graphs import build_graph

        g = build_graph([(0, 1, 1.0), (1, 0, 7.0)], directed=True)
        assert run_policy(g, BiDS(0, 1)).answer == 1.0
        assert run_policy(g, BiDS(1, 0)).answer == 7.0


class TestEdgeCases:
    def test_single_vertex_graph(self):
        from repro.graphs import build_graph

        g = build_graph([], num_vertices=1)
        res = run_policy(g, SsspPolicy(0))
        assert res.distances_from(0)[0] == 0.0

    def test_source_out_of_range_rejected(self, line_graph):
        with pytest.raises(ValueError):
            run_policy(line_graph, SsspPolicy(99))

    def test_zero_weight_edges(self):
        from repro.graphs import build_graph

        g = build_graph([(0, 1, 0.0), (1, 2, 0.0), (2, 3, 1.0)])
        d = run_policy(g, SsspPolicy(0)).distances_from(0)
        assert list(d) == [0.0, 0.0, 0.0, 1.0]

    def test_parallel_edges_resolved_to_min(self):
        from repro.graphs import from_edges

        g = from_edges([0, 0], [1, 1], [5.0, 3.0], num_vertices=2)
        assert run_policy(g, SsspPolicy(0)).distances_from(0)[1] == 3.0

    def test_et_terminates_under_bellman_ford(self, small_social):
        res = run_policy(small_social, EarlyTermination(0, 5), strategy=BellmanFord())
        assert res.answer == dijkstra(small_social, 0)[5]
