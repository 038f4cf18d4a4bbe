"""Stress and invariant tests: partial runs, adversarial graphs, scale.

These pin the *internal* invariants of the engine (not just final
answers): tentative distances are always admissible, truncated runs
leave consistent state, adversarial weight distributions don't break
pruning, and repeated runs are deterministic.
"""

import numpy as np
import pytest

from repro.baselines import dijkstra
from repro.core.engine import run_policy
from repro.core.policies import BiDAStar, BiDS, EarlyTermination, MultiPPSP, SsspPolicy
from repro.core.query_graph import QueryGraph
from repro.core.stepping import BellmanFord, DeltaStepping, default_strategy
from repro.graphs import build_graph, from_edges, road_graph, social_graph
from repro.robustness import Budget

# Nightly suite: excluded from tier-1 by the default `-m` filter.
pytestmark = pytest.mark.slow


class TestPartialRunInvariants:
    """Even a truncated run must only hold admissible distances."""

    @pytest.mark.parametrize("steps", [1, 2, 5, 10])
    def test_tentative_distances_admissible(self, small_road, steps):
        ref = dijkstra(small_road, 0)
        res = run_policy(small_road, SsspPolicy(0), budget=Budget(max_steps=steps))
        got = res.distances_from(0)
        finite = np.isfinite(got)
        assert (got[finite] >= ref[finite] - 1e-9).all()

    @pytest.mark.parametrize("steps", [1, 3, 7])
    def test_bids_mu_always_upper_bound(self, small_road, steps):
        s, t = 0, 100
        ref = dijkstra(small_road, s)[t]
        res = run_policy(small_road, BiDS(s, t), budget=Budget(max_steps=steps))
        assert res.answer >= ref - 1e-9

    def test_resuming_semantics_complete_run_exact(self, small_road):
        """A run without a budget is a fixpoint: a second engine pass
        started from scratch reproduces identical distances."""
        a = run_policy(small_road, SsspPolicy(3)).distances_from(0)
        b = run_policy(small_road, SsspPolicy(3)).distances_from(0)
        assert np.array_equal(a, b)


class TestAdversarialWeights:
    def test_extreme_weight_ratio(self):
        """Weights spanning 12 orders of magnitude."""
        rng = np.random.default_rng(1)
        n, m = 60, 240
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        keep = src != dst
        w = 10.0 ** rng.uniform(-6, 6, keep.sum())
        g = from_edges(src[keep], dst[keep], w, num_vertices=n, dedupe=True)
        ref = dijkstra(g, 0)
        for t in (10, 30, 59):
            got = run_policy(g, BiDS(0, int(t))).answer
            if np.isinf(ref[t]):
                assert np.isinf(got)
            else:
                assert got == pytest.approx(ref[t])

    def test_all_zero_weights(self):
        g = build_graph([(i, i + 1, 0.0) for i in range(30)])
        assert run_policy(g, BiDS(0, 30)).answer == 0.0
        assert run_policy(g, EarlyTermination(0, 30)).answer == 0.0

    def test_single_heavy_bridge(self):
        """Two cliques joined by one enormous edge: μ/2 pruning must not
        cut the only crossing."""
        edges = [(i, j, 1.0) for i in range(10) for j in range(i + 1, 10)]
        edges += [(10 + i, 10 + j, 1.0) for i in range(10) for j in range(i + 1, 10)]
        edges += [(4, 14, 1e6)]
        g = build_graph(edges)
        ref = dijkstra(g, 0)[19]
        assert run_policy(g, BiDS(0, 19)).answer == pytest.approx(ref)

    def test_skewed_weights_all_strategies(self):
        """CH5-style skew (the paper's scalability outlier) stays exact."""
        rng = np.random.default_rng(2)
        n, m = 80, 320
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        keep = src != dst
        w = rng.lognormal(0.0, 3.0, keep.sum())
        g = from_edges(src[keep], dst[keep], w, num_vertices=n, dedupe=True)
        ref = dijkstra(g, 1)[70]
        for strategy in (DeltaStepping(0.01), DeltaStepping(1e4), BellmanFord()):
            got = run_policy(g, BiDS(1, 70), strategy=strategy).answer
            if np.isinf(ref):
                assert np.isinf(got)
            else:
                assert got == pytest.approx(ref)


class TestDeterminism:
    def test_engine_is_deterministic(self, small_road):
        runs = [run_policy(small_road, BiDS(0, 120)) for _ in range(3)]
        assert len({r.answer for r in runs}) == 1
        assert len({r.steps for r in runs}) == 1
        assert len({r.relaxations for r in runs}) == 1
        assert all(np.array_equal(runs[0].dist, r.dist) for r in runs)

    def test_batch_deterministic(self, small_road):
        qg = QueryGraph.clique([0, 30, 60, 90])
        a = run_policy(small_road, MultiPPSP(qg))
        b = run_policy(small_road, MultiPPSP(qg))
        assert a.answer == b.answer
        assert a.meter.work == b.meter.work


class TestModerateScale:
    """Larger-than-fixture graphs exercise dense-mode frontiers and the
    grouped relaxation paths."""

    @pytest.fixture(scope="class")
    def big_road(self):
        return road_graph(60, 60, seed=9)

    @pytest.fixture(scope="class")
    def big_social(self):
        return social_graph(5000, avg_degree=12, seed=9)

    def test_road_at_scale(self, big_road):
        ref = dijkstra(big_road, 0)
        for t in (1000, 2500, 3599):
            for policy in (BiDS(0, t), BiDAStar(0, t)):
                got = run_policy(big_road, policy).answer
                assert got == pytest.approx(ref[t]), (t, type(policy).__name__)

    def test_social_at_scale_dense_frontier(self, big_social):
        ref = dijkstra(big_social, 0)
        got = run_policy(big_social, SsspPolicy(0), frontier_mode="dense")
        assert np.allclose(got.distances_from(0), ref)

    def test_batch_at_scale(self, big_road):
        rng = np.random.default_rng(4)
        verts = rng.choice(big_road.num_vertices, size=8, replace=False).tolist()
        qg = QueryGraph.random_pattern(verts, 12, seed=1)
        res = run_policy(big_road, MultiPPSP(qg))
        for (s, t), d in res.answer.items():
            assert d == pytest.approx(dijkstra(big_road, s)[t])

    def test_engine_reuse_many_queries(self, big_road):
        strategy = default_strategy(big_road)
        rng = np.random.default_rng(5)
        for _ in range(5):
            s, t = (int(x) for x in rng.integers(0, big_road.num_vertices, 2))
            got = run_policy(big_road, BiDS(s, t), strategy=strategy).answer
            assert got == pytest.approx(dijkstra(big_road, s)[t])


class TestLargeBatches:
    def test_32_query_batch_chunked(self, small_road):
        from repro.core.batch import solve_batch

        rng = np.random.default_rng(11)
        n = small_road.num_vertices
        pairs = [tuple(int(x) for x in rng.choice(n, 2, replace=False)) for _ in range(32)]
        full = solve_batch(small_road, pairs, method="multi", max_sources=8)
        assert full.details["chunks"] >= 4
        for (s, t), d in full.distances.items():
            ref = dijkstra(small_road, s)[t]
            if np.isinf(ref):
                assert np.isinf(d)
            else:
                assert d == pytest.approx(ref)

    def test_batch_with_repeated_and_self_queries(self, small_road):
        from repro.core.batch import solve_batch

        pairs = [(0, 50), (50, 0), (0, 50), (7, 7), (0, 7)]
        for method in ("multi", "sssp-vc", "sssp-plain"):
            res = solve_batch(small_road, pairs, method=method)
            assert res.distance(7, 7) == 0.0
            assert res.distance(0, 50) == pytest.approx(dijkstra(small_road, 0)[50])

    def test_dense_frontier_multi_batch(self, small_social):
        from repro.core.batch import solve_batch

        rng = np.random.default_rng(12)
        verts = rng.choice(small_social.num_vertices, size=6, replace=False).tolist()
        from repro.core.query_graph import QueryGraph

        qg = QueryGraph.clique(verts)
        res = solve_batch(small_social, qg, method="multi", frontier_mode="dense")
        for (s, t), d in res.distances.items():
            ref = dijkstra(small_social, s)[t]
            if np.isinf(ref):
                assert np.isinf(d)
            else:
                assert d == pytest.approx(ref)
