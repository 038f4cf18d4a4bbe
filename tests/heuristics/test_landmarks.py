"""ALT landmark heuristic tests."""

import numpy as np
import pytest

from repro.baselines import dijkstra
from repro.core.engine import run_policy
from repro.core.policies import AStar, BiDAStar, EarlyTermination
from repro.heuristics.landmarks import LandmarkSet, select_landmarks_farthest


class TestLandmarkSet:
    def test_build_and_shape(self, small_social):
        ls = LandmarkSet(small_social, k=4)
        assert ls.k == 4
        assert ls.dist.shape == (4, small_social.num_vertices)

    def test_random_placement(self, small_social):
        ls = LandmarkSet(small_social, k=3, method="random", seed=1)
        assert ls.k == 3
        assert len(set(ls.landmarks.tolist())) == 3

    def test_k_clamped_to_n(self, line_graph):
        ls = LandmarkSet(line_graph, k=50)
        assert ls.k <= line_graph.num_vertices

    def test_directed_rejected(self):
        from repro.graphs import build_graph

        g = build_graph([(0, 1, 1.0)], directed=True)
        with pytest.raises(ValueError, match="undirected"):
            LandmarkSet(g, k=1)

    def test_invalid_params(self, line_graph):
        with pytest.raises(ValueError):
            LandmarkSet(line_graph, k=0)
        with pytest.raises(ValueError):
            LandmarkSet(line_graph, k=2, method="fancy")

    def test_lower_bound_is_valid(self, small_social):
        ls = LandmarkSet(small_social, k=4)
        d0 = dijkstra(small_social, 0)
        for v in (5, 50, 200):
            if np.isfinite(d0[v]):
                assert ls.lower_bound(0, v) <= d0[v] + 1e-6

    def test_lower_bound_exact_at_landmark(self, small_social):
        ls = LandmarkSet(small_social, k=4)
        l = int(ls.landmarks[0])
        d = dijkstra(small_social, l)
        for v in (3, 30):
            if np.isfinite(d[v]):
                assert ls.lower_bound(l, v) == pytest.approx(d[v])


class TestFarthestSelection:
    def test_landmarks_spread(self, small_road):
        marks, dist = select_landmarks_farthest(small_road, 4, seed=2)
        assert len(set(marks.tolist())) == 4
        # Pairwise landmark distances should be large relative to the
        # typical vertex distance (they sit near the periphery).
        d01 = dist[0][marks[1]]
        typical = np.median(dist[0][np.isfinite(dist[0])])
        assert d01 > typical

    def test_covers_disconnected_components(self, disconnected_graph):
        marks, dist = select_landmarks_farthest(disconnected_graph, 3, seed=0)
        # Some landmark must land in each component.
        comp_a = {0, 1, 2}
        comp_b = {3, 4}
        chosen = set(marks.tolist())
        assert chosen & comp_a and chosen & comp_b


class TestALTHeuristicProperties:
    def test_admissible_everywhere(self, small_social):
        ls = LandmarkSet(small_social, k=5)
        t = 123
        h = ls.heuristic_to(t)
        d = dijkstra(small_social, t)
        hv = h(np.arange(small_social.num_vertices))
        finite = np.isfinite(d)
        assert (hv[finite] <= d[finite] + 1e-6).all()

    def test_consistent_everywhere(self, small_social):
        ls = LandmarkSet(small_social, k=5)
        h = ls.heuristic_to(77)
        src, dst, w = small_social.edges()
        assert (h(src) <= w + h(dst) + 1e-6).all()

    def test_zero_at_target(self, small_social):
        ls = LandmarkSet(small_social, k=3)
        t = 9
        assert ls.heuristic_to(t)(np.array([t]))[0] == pytest.approx(0.0)


class TestALTWithAStar:
    """The extension's point: A* on graphs without coordinates."""

    def test_astar_exact_on_social(self, small_social):
        ls = LandmarkSet(small_social, k=6)
        rng = np.random.default_rng(3)
        for _ in range(5):
            s, t = (int(x) for x in rng.integers(0, small_social.num_vertices, 2))
            ref = dijkstra(small_social, s)[t]
            got = run_policy(small_social, AStar(s, t, heuristic=ls.heuristic_to(t))).answer
            if np.isinf(ref):
                assert np.isinf(got)
            else:
                assert got == pytest.approx(ref), (s, t)

    def test_bidastar_exact_on_social(self, small_social):
        ls = LandmarkSet(small_social, k=6)
        s, t = 10, 333
        ref = dijkstra(small_social, s)[t]
        got = run_policy(
            small_social,
            BiDAStar(
                s, t,
                heuristic_to_source=ls.heuristic_to(s),
                heuristic_to_target=ls.heuristic_to(t),
            ),
        ).answer
        assert got == pytest.approx(ref)

    def test_alt_bidastar_prunes_vs_et(self, small_social):
        """ALT guidance should cut relaxations versus plain ET."""
        ls = LandmarkSet(small_social, k=8)
        rng = np.random.default_rng(4)
        total_et, total_alt = 0, 0
        for _ in range(3):
            s, t = (int(x) for x in rng.integers(0, small_social.num_vertices, 2))
            et = run_policy(small_social, EarlyTermination(s, t))
            alt = run_policy(
                small_social,
                BiDAStar(
                    s, t,
                    heuristic_to_source=ls.heuristic_to(s),
                    heuristic_to_target=ls.heuristic_to(t),
                ),
            )
            assert (np.isinf(et.answer) and np.isinf(alt.answer)) or (
                alt.answer == pytest.approx(et.answer)
            )
            total_et += et.relaxations
            total_alt += alt.relaxations
        assert total_alt < total_et


class TestHeuristicRowCache:
    def test_same_target_returns_cached_instance(self, small_social):
        ls = LandmarkSet(small_social, k=4)
        h1 = ls.heuristic_to(7)
        h2 = ls.heuristic_to(7)
        assert h2 is h1
        assert ls.cache_hits == 1 and ls.cache_misses == 1

    def test_cache_false_builds_fresh(self, small_social):
        ls = LandmarkSet(small_social, k=4)
        h1 = ls.heuristic_to(7)
        h2 = ls.heuristic_to(7, cache=False)
        assert h2 is not h1
        assert ls.cache_hits == 0  # bypass does not touch the counters

    def test_lru_bound_respected(self, small_social):
        ls = LandmarkSet(small_social, k=3, max_cached_targets=2)
        ls.heuristic_to(1)
        ls.heuristic_to(2)
        ls.heuristic_to(3)  # evicts target 1
        assert len(ls._h_cache) == 2
        before = ls.cache_misses
        ls.heuristic_to(1)
        assert ls.cache_misses == before + 1

    def test_zero_bound_disables_cache(self, small_social):
        ls = LandmarkSet(small_social, k=3, max_cached_targets=0)
        assert ls.heuristic_to(1) is not ls.heuristic_to(1)
        assert len(ls._h_cache) == 0

    def test_cached_rows_memoize_evaluations(self, small_social):
        """The cached wrapper keeps its memo table across queries."""
        ls = LandmarkSet(small_social, k=4)
        h = ls.heuristic_to(9)
        h(np.arange(50))
        evaluated = h.evaluated
        again = ls.heuristic_to(9)
        again(np.arange(50))  # same vertices: all memo hits
        assert again.evaluated == evaluated

    def test_cached_values_match_fresh(self, small_social):
        ls = LandmarkSet(small_social, k=4)
        v = np.arange(small_social.num_vertices)
        cached = ls.heuristic_to(11)(v)
        fresh = ls.heuristic_to(11, cache=False)(v)
        np.testing.assert_allclose(cached, fresh)
