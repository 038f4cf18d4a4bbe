"""Ablation benchmarks for the design choices of Sec. 5 / App. B.

Not a paper table, but the knobs the paper calls out: sparse-dense
frontier switching, bidirectional relaxation, Δ sensitivity, stepping
strategy choice, and the disconnected-query early exit.
"""

import numpy as np
import pytest

from repro.core.engine import run_policy
from repro.core.policies import BiDS, SsspPolicy
from repro.core.stepping import BellmanFord, DeltaStepping, DijkstraOrder, RhoStepping
from repro.graphs import build_graph
from repro.kernels.calibrate import calibrate_delta

from conftest import pair_at


class TestFrontierModes:
    @pytest.mark.parametrize("mode", ["auto", "sparse", "dense"])
    def test_sssp_frontier_mode(self, benchmark, road, mode):
        delta = calibrate_delta(road)
        res = benchmark.pedantic(
            lambda: run_policy(
                road, SsspPolicy(0), strategy=DeltaStepping(delta), frontier_mode=mode
            ),
            rounds=3,
            iterations=1,
        )
        assert np.isfinite(res.distances_from(0)).sum() > 0.9 * road.num_vertices


class TestBidirectionalRelaxation:
    @pytest.mark.parametrize("pull", [False, True], ids=["push-only", "push+pull"])
    def test_pull_relax(self, benchmark, knn, pull):
        delta = calibrate_delta(knn)
        res = benchmark.pedantic(
            lambda: run_policy(
                knn, SsspPolicy(0), strategy=DeltaStepping(delta), pull_relax=pull
            ),
            rounds=3,
            iterations=1,
        )
        assert res.steps > 0


class TestDeltaSensitivity:
    @pytest.mark.parametrize("factor", [0.25, 1.0, 4.0, 16.0], ids=lambda f: f"delta-x{f:g}")
    def test_delta_scaling(self, benchmark, road, factor):
        """The paper tunes Δ by doubling; this shows the cost surface."""
        delta = calibrate_delta(road) * factor
        s, t = pair_at(road, 50.0)
        res = benchmark.pedantic(
            lambda: run_policy(road, BiDS(s, t), strategy=DeltaStepping(delta)),
            rounds=3,
            iterations=1,
        )
        assert np.isfinite(res.answer)


class TestSteppingStrategies:
    @pytest.mark.parametrize(
        "make",
        [
            lambda d: DeltaStepping(d),
            lambda d: RhoStepping(64),
            lambda d: BellmanFord(),
            lambda d: DijkstraOrder(),
        ],
        ids=["delta", "rho", "bellman-ford", "dijkstra-order"],
    )
    def test_strategy(self, benchmark, road, make):
        delta = calibrate_delta(road)
        s, t = pair_at(road, 50.0)
        res = benchmark.pedantic(
            lambda: run_policy(road, BiDS(s, t), strategy=make(delta)),
            rounds=3,
            iterations=1,
        )
        assert np.isfinite(res.answer)


class TestDisconnectedEarlyExit:
    @pytest.fixture(scope="class")
    def split_graph(self):
        # A big component and a 30-vertex island.
        big = [(i, i + 1, 1.0) for i in range(2000)]
        island = [(2100 + i, 2100 + i + 1, 1.0) for i in range(30)]
        return build_graph(big + island, num_vertices=2200)

    @pytest.mark.parametrize("early_exit", [True, False], ids=["early-exit", "full-search"])
    def test_disconnected_query(self, benchmark, split_graph, early_exit):
        res = benchmark.pedantic(
            lambda: run_policy(
                split_graph, BiDS(0, 2110, disconnected_early_exit=early_exit)
            ),
            rounds=3,
            iterations=1,
        )
        assert np.isinf(res.answer)
