"""Packed and chunked Multi-BiDS plans (Alg. 2, Sec. 4.2 space control)
and directed VC tests."""

import numpy as np
import pytest

from repro.baselines import dijkstra
from repro.core.batch import PACK_SOURCES, plan_units, solve_batch
from repro.core.query_graph import QueryGraph, vertex_cover


def _endpoints(unit) -> int:
    return QueryGraph(unit.pairs, directed=unit.directed).num_vertices


def _stored(qg):
    """Stored (s, t) keys of a query graph's edges, in edge order."""
    verts = qg.vertices
    return [(int(verts[i]), int(verts[j])) for i, j in qg.edges]


class TestPackedPlan:
    """``plan_units`` packs whole components, in plan order, into a few
    balanced composite units (Alg. 2)."""

    def test_disjoint_pairs_balance_into_two_units(self, small_road):
        pairs = [(2 * i, 2 * i + 1) for i in range(13)]  # 26 endpoints
        plan = plan_units(small_road, QueryGraph(pairs), "multi")
        assert [_endpoints(u) for u in plan.units] == [14, 12]
        assert [key for u in plan.units for key in u.pairs] == pairs
        assert plan.parallel and plan.components == 13
        res = solve_batch(small_road, pairs, method="multi")
        assert res.details["components"] == 13 and "chunks" not in res.details
        assert res.num_searches == 26

    def test_units_keep_plan_order_within_the_bound(self, small_road):
        rng = np.random.default_rng(4)
        n = small_road.num_vertices
        pairs = [tuple(int(x) for x in rng.choice(n, 2, replace=False)) for _ in range(40)]
        qg = QueryGraph(pairs)
        plan = plan_units(small_road, qg, "multi")
        comps = [_stored(comp) for comp in qg.components()]
        assert plan.components == len(comps) > 1 and len(plan.units) > 1
        assert all(_endpoints(u) <= PACK_SOURCES for u in plan.units)
        # Consecutive whole components, in the order the batch names them.
        flat = [key for u in plan.units for key in u.pairs]
        assert flat == [key for comp in comps for key in comp] == list(plan.owner)
        for u in plan.units:
            for comp in comps:
                assert set(comp) <= set(u.pairs) or not set(comp) & set(u.pairs)

    def test_a_component_is_never_split_by_default(self, small_road):
        star = QueryGraph.star(0, list(range(1, 21)))  # 21 endpoints, one component
        plan = plan_units(small_road, star, "multi")
        assert len(plan.units) == 1 and _endpoints(plan.units[0]) == 21
        chunked = plan_units(small_road, star, "multi", max_sources=8)
        assert all(_endpoints(u) <= 8 for u in chunked.units)
        assert len(chunked.units) > 1 and not chunked.parallel
        assert chunked.max_sources == 8

    def test_components_count_survives_packing(self, small_road):
        pairs = [(0, 5), (5, 9), (20, 30), (40, 40)]
        res = solve_batch(small_road, pairs, method="multi")
        assert res.details["components"] == 3
        assert len(res._units) == 1

    def test_directed_bound_counts_source_and_target_copies(self):
        from repro.experiments.ext_directed import directed_road

        g = directed_road(400, seed=5)
        # One component over four copies of three vertices: 10 is a
        # source and a target.
        qg = QueryGraph([(10, 40), (90, 40), (90, 10)], directed=True)
        assert len(qg.components()) == 1 and qg.num_vertices == 4
        plan = plan_units(g, qg, "multi", max_sources=3)
        assert len(plan.units) == 2
        assert all(_endpoints(u) <= 3 for u in plan.units)
        full = solve_batch(g, qg, method="multi")
        chunked = solve_batch(g, qg, method="multi", max_sources=3)
        assert chunked.distances == full.distances


class TestChunkedMulti:
    def test_chunked_matches_unchunked(self, small_road):
        rng = np.random.default_rng(1)
        verts = rng.choice(small_road.num_vertices, size=10, replace=False).tolist()
        qg = QueryGraph.clique(verts[:6])
        full = solve_batch(small_road, qg, method="multi")
        chunked = solve_batch(small_road, qg, method="multi", max_sources=3)
        assert chunked.distances.keys() == full.distances.keys()
        for k in full.distances:
            assert chunked.distances[k] == pytest.approx(full.distances[k])
        assert chunked.details["chunks"] > 1

    def test_no_chunking_when_small_enough(self, small_road):
        qg = QueryGraph.chain([0, 5, 9])
        res = solve_batch(small_road, qg, method="multi", max_sources=10)
        assert "chunks" not in res.details

    def test_chunk_bounds_respected(self, small_road):
        rng = np.random.default_rng(2)
        verts = rng.choice(small_road.num_vertices, size=12, replace=False).tolist()
        qg = QueryGraph.separate(verts)  # 6 disjoint pairs
        res = solve_batch(small_road, qg, method="multi", max_sources=4)
        # 12 endpoints, <=4 per chunk -> at least 3 chunks.
        assert res.details["chunks"] >= 3
        ref = {k: dijkstra(small_road, k[0])[k[1]] for k in res.distances}
        for k, v in res.distances.items():
            assert v == pytest.approx(ref[k])

    def test_max_sources_only_for_multi(self, small_road):
        with pytest.raises(ValueError, match="multi"):
            solve_batch(small_road, [(0, 1)], method="plain-bids", max_sources=4)

    def test_max_sources_too_small(self, small_road):
        with pytest.raises(ValueError, match="at least 2"):
            solve_batch(small_road, [(0, 1), (2, 3)], method="multi", max_sources=1)

    def test_directed_chunked(self):
        from repro.graphs import build_graph

        g = build_graph(
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 9.0)],
            directed=True,
        )
        pairs = [(0, 2), (1, 3), (2, 0), (3, 1)]
        qg = QueryGraph(pairs, directed=True)
        full = solve_batch(g, qg, method="multi")
        chunked = solve_batch(g, qg, method="multi", max_sources=4)
        for k, v in full.distances.items():
            assert chunked.distances[k] == pytest.approx(v)


class TestDirectedVertexCover:
    def test_bipartite_cover_is_optimal_star(self):
        # All queries share source 0: cover = {0's source copy}.
        qg = QueryGraph([(0, 1), (0, 2), (0, 3)], directed=True)
        cover = vertex_cover(qg)
        assert len(cover) == 1
        assert qg.direction[cover[0]] == 1
        assert qg.vertices[cover[0]] == 0

    def test_both_roles_vertex_gets_two_copies(self):
        qg = QueryGraph([(0, 1), (1, 2)], directed=True)
        # vertex 1 appears as target copy and source copy.
        roles = [(int(v), int(d)) for v, d in zip(qg.vertices, qg.direction)]
        assert (1, 1) in roles and (1, -1) in roles

    def test_koenig_matches_bruteforce(self):
        """König cover size == optimum found by enumeration."""
        from itertools import combinations

        rng = np.random.default_rng(5)
        for trial in range(10):
            pairs = [
                (int(a), int(b))
                for a, b in zip(rng.integers(0, 4, 6), rng.integers(4, 8, 6))
            ]
            qg = QueryGraph(pairs, directed=True)
            cover = vertex_cover(qg)
            edges = qg.edges
            # Brute force minimum.
            best = None
            k = qg.num_vertices
            for size in range(0, k + 1):
                found = False
                for subset in combinations(range(k), size):
                    chosen = set(subset)
                    if all(a in chosen or b in chosen for a, b in edges):
                        best, found = size, True
                        break
                if found:
                    break
            assert len(cover) == best, (trial, pairs)

    def test_directed_sssp_vc_answers_with_both_roles(self):
        from repro.graphs import build_graph

        g = build_graph(
            [(0, 1, 1.0), (1, 2, 2.0), (2, 0, 4.0), (2, 1, 8.0)], directed=True
        )
        pairs = [(0, 1), (2, 1)]  # vertex 1 is only ever a target
        qg = QueryGraph(pairs, directed=True)
        res = solve_batch(g, qg, method="sssp-vc")
        assert res.num_searches == 1  # backward SSSP from 1 covers both
        assert res.distances[(0, 1)] == pytest.approx(1.0)
        assert res.distances[(2, 1)] == pytest.approx(5.0)
