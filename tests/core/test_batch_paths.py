"""BatchResult.path tests: shortest paths out of batch solvers."""

import numpy as np
import pytest

from repro.core.batch import solve_batch
from repro.core.paths import PathError
from repro.core.query_graph import QueryGraph


def check_path(graph, path, s, t, want_len):
    assert path[0] == s and path[-1] == t
    total = 0.0
    for u, v in zip(path[:-1], path[1:]):
        nbrs = graph.neighbors(u)
        hit = np.flatnonzero(nbrs == v)
        assert len(hit), f"({u}, {v}) not an edge"
        total += graph.neighbor_weights(u)[hit].min()
    assert total == pytest.approx(want_len)


@pytest.mark.parametrize("method", ["multi", "sssp-vc", "sssp-plain"])
class TestBatchPaths:
    def test_paths_realize_distances(self, method, small_road):
        qg = QueryGraph.clique([0, 40, 90, 130])
        res = solve_batch(small_road, qg, method=method)
        for (s, t), d in res.distances.items():
            check_path(small_road, res.path(s, t), s, t, d)

    def test_reversed_lookup(self, method, small_road):
        res = solve_batch(small_road, [(3, 99)], method=method)
        p = res.path(99, 3)
        check_path(small_road, p, 99, 3, res.distance(3, 99))

    def test_trivial_pair(self, method, small_road):
        res = solve_batch(small_road, [(7, 7), (0, 9)], method=method)
        assert res.path(7, 7) == [7]

    def test_unknown_pair_raises(self, method, small_road):
        res = solve_batch(small_road, [(0, 9)], method=method)
        with pytest.raises(KeyError):
            res.path(1, 2)


class TestBatchPathEdgeCases:
    def test_plain_methods_decline(self, small_road):
        res = solve_batch(small_road, [(0, 9)], method="plain-bids")
        with pytest.raises(NotImplementedError, match="multi"):
            res.path(0, 9)

    def test_disconnected_pair_raises_patherror(self, disconnected_graph):
        res = solve_batch(disconnected_graph, [(0, 4)], method="multi")
        with pytest.raises(PathError):
            res.path(0, 4)

    def test_directed_multi_paths(self):
        from repro.graphs import build_graph

        g = build_graph(
            [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (3, 0, 1.0), (0, 2, 9.0)],
            directed=True,
        )
        qg = QueryGraph([(0, 2), (2, 0), (1, 3)], directed=True)
        for method in ("multi", "sssp-vc"):
            res = solve_batch(g, qg, method=method)
            for (s, t), d in res.distances.items():
                check_path(g, res.path(s, t), s, t, d)

    def test_star_paths_through_sssp_cover(self, small_knn):
        """SSMT: the single covering SSSP serves every leaf's path."""
        qg = QueryGraph.star(0, [50, 100, 150, 200, 250])
        res = solve_batch(small_knn, qg, method="sssp-vc")
        assert res.num_searches == 1
        for (s, t), d in res.distances.items():
            check_path(small_knn, res.path(s, t), s, t, d)

    def test_multi_stop_legs(self, small_road):
        from repro.core.query_types import multi_stop

        stops = [0, 40, 80, 120]
        res = multi_stop(small_road, stops)
        full = []
        for a, b in zip(stops[:-1], stops[1:]):
            leg = res.path(a, b)
            check_path(small_road, leg, a, b, res.distance(a, b))
            full.extend(leg[:-1])
        full.append(stops[-1])
        assert full[0] == stops[0] and full[-1] == stops[-1]


class TestChunkedPaths:
    def test_paths_survive_chunking(self, small_road):
        qg = QueryGraph.clique([0, 30, 60, 90, 120, 3])
        res = solve_batch(small_road, qg, method="multi", max_sources=3)
        assert res.details["chunks"] > 1
        for (s, t), d in res.distances.items():
            check_path(small_road, res.path(s, t), s, t, d)

    def test_unknown_pair_in_chunked(self, small_road):
        res = solve_batch(small_road, [(0, 9), (20, 30)], method="multi", max_sources=2)
        with pytest.raises(KeyError):
            res.path(0, 30)


class TestUnitPathWalks:
    """Each unit walks a path at most once, and only when asked."""

    @pytest.fixture
    def stitches(self, monkeypatch):
        import repro.core.batch as batch

        calls = []
        real = batch.stitch_bidirectional_path

        def counted(graph, d_fwd, d_bwd, s, t):
            calls.append((s, t))
            return real(graph, d_fwd, d_bwd, s, t)

        monkeypatch.setattr(batch, "stitch_bidirectional_path", counted)
        return calls

    def test_certified_unit_walks_once_for_cert_and_path(self, small_road, stitches):
        from repro.core.batch import plan_units, run_unit

        (unit,) = plan_units(small_road, QueryGraph.clique([0, 40, 90]), "multi").units
        res = run_unit(small_road, unit, certify=True, track_processed=True).detach()
        assert sorted(stitches) == sorted(unit.pairs)
        for key in unit.pairs:
            # One object: the certificate's witness is the cached walk.
            assert res.answers[key].certificate.path is res.paths[key]

    def test_serial_batch_walks_only_asked_paths(self, small_road, stitches):
        res = solve_batch(small_road, QueryGraph.clique([0, 40, 90]), method="multi")
        assert stitches == []
        res.path(90, 0)
        res.path(0, 90)
        assert stitches == [(0, 90)]
