"""Batch PPSP solver tests: MultiPPSP policy and the four strategies."""

import numpy as np
import pytest

from repro.baselines import dijkstra
from repro.core.batch import BATCH_METHODS, solve_batch
from repro.core.engine import run_policy
from repro.core.policies import BiDS, MultiPPSP
from repro.core.query_graph import PATTERNS, QueryGraph
from repro.core.stepping import DeltaStepping


def oracle(graph, qg):
    out = {}
    for i, j in qg.edges:
        s, t = int(qg.vertices[i]), int(qg.vertices[j])
        out[(s, t)] = float(dijkstra(graph, s)[t])
    return out


class TestMultiPPSPPolicy:
    def test_single_pair(self, line_graph):
        res = run_policy(line_graph, MultiPPSP(QueryGraph([(0, 4)])))
        assert res.answer[(0, 4)] == 10.0

    def test_chain_three_stops(self, line_graph):
        res = run_policy(line_graph, MultiPPSP(QueryGraph.chain([0, 2, 4])))
        assert res.answer[(0, 2)] == 3.0
        assert res.answer[(2, 4)] == 7.0

    def test_self_query_zero(self, line_graph):
        res = run_policy(line_graph, MultiPPSP(QueryGraph([(1, 1), (0, 2)])))
        assert res.answer[(1, 1)] == 0.0

    def test_disconnected_query_inf(self, disconnected_graph):
        res = run_policy(disconnected_graph, MultiPPSP(QueryGraph([(0, 4), (0, 2)])))
        assert np.isinf(res.answer[(0, 4)])
        assert res.answer[(0, 2)] == 2.0

    def test_shared_vertex_search_count(self, small_road):
        """A star batch searches from |Vq| vertices, not 2x queries."""
        qg = QueryGraph.star(0, [10, 20, 30])
        pol = MultiPPSP(qg)
        assert pol.num_sources == 4

    def test_loop_only_batch_answers_zero(self, line_graph):
        res = run_policy(line_graph, MultiPPSP(QueryGraph([(1, 1)])))
        assert res.answer[(1, 1)] == 0.0

    def test_requires_query_graph_type(self):
        with pytest.raises(TypeError):
            MultiPPSP([(0, 1)])

    def test_vertex_out_of_range(self, line_graph):
        with pytest.raises(ValueError):
            run_policy(line_graph, MultiPPSP(QueryGraph([(0, 99)])))

    def test_mu_max_radius_shrinks(self, small_road):
        res = run_policy(small_road, MultiPPSP(QueryGraph([(0, 5), (0, 17)])))
        pol = res.policy
        assert np.isfinite(pol.mu_max).all()

    @pytest.mark.parametrize("pattern", list(PATTERNS))
    def test_all_patterns_match_oracle(self, pattern, small_road):
        rng = np.random.default_rng(5)
        verts = rng.choice(small_road.num_vertices, size=6, replace=False).tolist()
        qg = PATTERNS[pattern](verts)
        res = run_policy(small_road, MultiPPSP(qg))
        ref = oracle(small_road, qg)
        for key, val in res.answer.items():
            assert val == pytest.approx(ref[key]), (pattern, key)


class TestSolveBatch:
    @pytest.mark.parametrize("method", BATCH_METHODS)
    def test_every_method_matches_oracle(self, method, small_knn):
        rng = np.random.default_rng(6)
        from repro.graphs.connectivity import largest_component

        lcc = largest_component(small_knn)
        verts = rng.choice(lcc, size=6, replace=False).tolist()
        qg = QueryGraph.random_pattern(verts, 8, seed=2)
        res = solve_batch(small_knn, qg, method=method)
        ref = oracle(small_knn, qg)
        assert res.method == method
        for key, val in res.distances.items():
            assert val == pytest.approx(ref[key]), key

    def test_accepts_raw_pairs(self, line_graph):
        res = solve_batch(line_graph, [(0, 2), (2, 4)])
        assert res.distance(0, 2) == 3.0
        assert res.distance(4, 2) == 7.0  # symmetric lookup

    def test_unknown_method_rejected(self, line_graph):
        with pytest.raises(ValueError, match="unknown batch method"):
            solve_batch(line_graph, [(0, 1)], method="magic")

    def test_strategy_reset_per_run(self, small_road):
        class CountingDelta(DeltaStepping):
            resets = 0

            def reset(self):
                CountingDelta.resets += 1

        solve_batch(small_road, [(0, 5), (7, 9)], method="plain-bids",
                    strategy=CountingDelta(25.0))
        assert CountingDelta.resets == 2  # one shared strategy, reset per query

    def test_num_searches_accounting(self, small_road):
        qg = QueryGraph.star(0, [5, 9, 13])
        assert solve_batch(small_road, qg, method="multi").num_searches == 4
        assert solve_batch(small_road, qg, method="plain-bids").num_searches == 6
        assert solve_batch(small_road, qg, method="sssp-vc").num_searches == 1
        assert solve_batch(small_road, qg, method="sssp-plain").num_searches == 1

    @pytest.mark.parametrize("pairs, method, searches, work", [
        ([(1, 2)], "sssp-plain", 1, 694.0),
        ([(1, 2)], "multi", 2, 12.0),
        # An isolated self pair adds no SSSP, and its Multi-BiDS search
        # is pruned after extracting the vertex itself.
        ([(5, 5), (1, 2)], "sssp-plain", 1, 694.0),
        ([(5, 5), (1, 2)], "multi", 3, 13.0),
        ([(5, 5), (7, 7)], "sssp-plain", 0, 0.0),
        ([(5, 5), (7, 7)], "sssp-vc", 0, 0.0),
        ([(5, 5), (7, 7)], "multi", 2, 2.0),
    ])
    def test_self_pairs_start_no_full_search(self, pairs, method, searches, work):
        from repro.graphs import road_graph
        from repro.verify import CertificateChecker

        g = road_graph(10, 10, seed=1)
        res = solve_batch(g, pairs, method=method, certify=True)
        assert (res.num_searches, res.meter.work) == (searches, work)
        for s, t in pairs:
            d = res.distance(s, t)
            assert d == pytest.approx(float(dijkstra(g, s)[t]))
            cert = res.answer(s, t).certificate
            report = CertificateChecker().check(g, cert, expected_distance=d)
            assert report.valid and report.proven == "exact"

    def test_vc_fewer_searches_than_plain_on_chain(self, small_road):
        qg = QueryGraph.chain([0, 5, 9, 13, 17, 21])
        vc = solve_batch(small_road, qg, method="sssp-vc")
        plain = solve_batch(small_road, qg, method="sssp-plain")
        assert vc.num_searches < plain.num_searches
        assert vc.meter.work < plain.meter.work

    def test_multi_shares_work_on_clique(self, small_road):
        """Multi-BiDS beats plain per-query BiDS in work on a clique."""
        rng = np.random.default_rng(7)
        verts = rng.choice(small_road.num_vertices, size=6, replace=False).tolist()
        qg = QueryGraph.clique(verts)
        multi = solve_batch(small_road, qg, method="multi")
        plain = solve_batch(small_road, qg, method="plain-bids")
        assert multi.meter.work < plain.meter.work

    def test_plain_star_overlaps_depth(self, small_road):
        """Plain* runs queries concurrently: same work, less depth."""
        qg = QueryGraph.separate([0, 40, 80, 120, 7, 77])
        serial = solve_batch(small_road, qg, method="plain-bids")
        overlap = solve_batch(small_road, qg, method="plain-star-bids")
        assert overlap.meter.work == pytest.approx(serial.meter.work)
        assert overlap.meter.depth < serial.meter.depth

    def test_directed_batch(self):
        from repro.graphs import build_graph

        g = build_graph(
            [(0, 1, 1.0), (1, 2, 2.0), (3, 1, 4.0), (2, 3, 1.0)], directed=True
        )
        qg = QueryGraph([(0, 2), (3, 2)], directed=True)
        ref = {(0, 2): 3.0, (3, 2): 6.0}
        for method in ("multi", "plain-bids", "sssp-plain", "sssp-vc"):
            res = solve_batch(g, qg, method=method)
            for key, val in ref.items():
                assert res.distances[key] == pytest.approx(val), (method, key)


class TestBatchBudget:
    """A batch is exact when its runs finish on their own, even when they
    spend the shared budget to its last unit."""

    @pytest.mark.parametrize("limit", [{"max_steps": 11}, {"max_relaxations": 292}])
    def test_budget_spent_exactly_is_exact(self, limit):
        from repro.graphs import road_graph
        from repro.robustness import Budget

        g = road_graph(10, 10, seed=1)
        run = run_policy(g, BiDS(0, 99))
        assert (run.steps, run.relaxations) == (11, 292)
        free = solve_batch(g, [(0, 99)], method="plain-bids")
        res = solve_batch(g, [(0, 99)], method="plain-bids", budget=Budget(**limit))
        assert res.exact
        assert res.distance(0, 99) == free.distance(0, 99)
        assert "budget_report" in res.details

    def test_budget_one_step_short_is_inexact(self):
        from repro.graphs import road_graph
        from repro.robustness import Budget

        g = road_graph(10, 10, seed=1)
        res = solve_batch(g, [(0, 99)], method="plain-bids", budget=Budget(max_steps=10))
        assert not res.exact
        assert res.details["budget_report"].exhausted


@pytest.fixture(scope="module")
def one_way():
    """A one-way street grid, six random pairs (none asked both ways)
    and each pair's Dijkstra distance."""
    from repro.experiments.ext_directed import directed_road

    g = directed_road(400, seed=5)
    rng = np.random.default_rng(5)
    pairs = [tuple(int(v) for v in rng.choice(g.num_vertices, 2, replace=False))
             for _ in range(6)]
    assert not {(t, s) for s, t in pairs} & set(pairs)
    truth = {(s, t): float(dijkstra(g, s)[t]) for s, t in pairs}
    return g, pairs, truth


class TestDirectedBatch:
    """A directed batch answers each pair in its asked orientation only."""

    @pytest.mark.parametrize("form", ["pairs", "query-graph"])
    @pytest.mark.parametrize("method", BATCH_METHODS)
    def test_matches_dijkstra(self, one_way, method, form):
        g, pairs, truth = one_way
        queries = pairs if form == "pairs" else QueryGraph(pairs, directed=True)
        res = solve_batch(g, queries, method=method)
        for (s, t), want in truth.items():
            assert res.distance(s, t) == pytest.approx(want, rel=1e-9), (s, t)
            # (t, s) was never asked: no answer, and no path, in either form.
            with pytest.raises(ValueError, match="never part of this batch"):
                res.distance(t, s)
            if method in ("plain-bids", "plain-star-bids"):
                continue  # these modes keep no paths at all
            with pytest.raises(KeyError):
                res.path(t, s)
            if np.isfinite(want):
                path = res.path(s, t)
                assert path[0] == s and path[-1] == t
                hops = [g.neighbor_weights(u)[g.neighbors(u) == v] for u, v in zip(path, path[1:])]
                assert all(len(w) for w in hops), "path uses a non-arc"
                assert sum(float(w.min()) for w in hops) == pytest.approx(want, rel=1e-9)

    def test_undirected_query_graph_rejected(self, one_way):
        g, pairs, _ = one_way
        with pytest.raises(ValueError, match="directed"):
            solve_batch(g, QueryGraph(pairs), method="multi")

    @pytest.mark.parametrize("pairs, searches, work", [
        ([(5, 5)], 0, 0.0),
        ([(5, 5), (1, 2)], 1, 2370.0),
        ([(1, 2)], 1, 2370.0),
    ])
    def test_vertex_cover_roots_no_self_pair(self, one_way, pairs, searches, work):
        """A directed self pair joins two distinct copies of one vertex;
        the cover must not root an SSSP that answers only that pair."""
        g = one_way[0]
        res = solve_batch(g, pairs, method="sssp-vc")
        assert (res.num_searches, res.meter.work) == (searches, work)
        for s, t in pairs:
            assert res.distance(s, t) == pytest.approx(float(dijkstra(g, s)[t]))


class TestBatchResult:
    def test_distance_lookup_both_orders(self, line_graph):
        res = solve_batch(line_graph, [(0, 3)])
        assert res.distance(0, 3) == res.distance(3, 0) == 6.0

    def test_missing_query_raises_naming_the_pair(self, line_graph):
        res = solve_batch(line_graph, [(0, 3)])
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            res.distance(1, 2)
        # ... in either orientation: the reversed key must not surface
        # as a bare KeyError.
        with pytest.raises(ValueError, match="never part of this batch"):
            res.distance(2, 1)
