"""WarmEngine: correctness vs cold path, engine reuse, caching, invalidation."""

import numpy as np
import pytest

from repro import ppsp, warm
from repro.core.paths import PathError
from repro.heuristics.landmarks import LandmarkSet
from repro.perf import WarmEngine

METHODS = ("sssp", "et", "astar", "bids", "bidastar")


class TestCorrectness:
    @pytest.mark.parametrize("method", METHODS)
    def test_matches_cold_ppsp(self, small_road, method):
        engine = WarmEngine(small_road)
        for s, t in [(0, 100), (5, 77), (140, 3)]:
            cold = ppsp(small_road, s, t, method=method)
            hot = engine.query(s, t, method=method)
            assert hot.distance == pytest.approx(cold.distance)
            assert hot.exact and not hot.cached

    @pytest.mark.parametrize("method", METHODS)
    def test_miss_equals_cold_ppsp(self, small_road, method):
        """A warm miss is a cold ``ppsp`` call: same distance, counters,
        path, and a certificate that checks."""
        from repro.verify import CertificateChecker

        engine = WarmEngine(small_road, verify_hits=True)
        checker = CertificateChecker()
        for s, t in [(0, 100), (5, 77), (140, 3)]:
            cold = ppsp(small_road, s, t, method=method)
            hot = engine.query(s, t, method=method, path=True, use_cache=False)
            assert (hot.distance, hot.exact) == (cold.distance, cold.exact)
            assert (hot.steps, hot.relaxations) == (cold.run.steps, cold.run.relaxations)
            assert (hot.work, hot.depth) == (cold.run.meter.work, cold.run.meter.depth)
            assert hot.path() == cold.path()
            report = checker.check(small_road, hot.certificate,
                                   expected_distance=hot.distance)
            assert report.valid

    def test_path_capture(self, small_road):
        engine = WarmEngine(small_road)
        cold = ppsp(small_road, 0, 100, method="bids")
        hot = engine.query(0, 100, method="bids", path=True)
        p = hot.path()
        assert p[0] == 0 and p[-1] == 100
        assert len(p) == len(cold.path())

    def test_path_not_captured_raises(self, small_road):
        engine = WarmEngine(small_road)
        ans = engine.query(0, 100, method="bids")
        with pytest.raises(ValueError, match="path=True"):
            ans.path()

    def test_unreachable_and_self_queries(self, disconnected_graph):
        engine = WarmEngine(disconnected_graph)
        assert not engine.query(0, 4, method="bids").reachable
        with pytest.raises(PathError):
            engine.query(0, 4, method="bids", path=True).path()
        self_q = engine.query(2, 2, method="et", path=True)
        assert self_q.distance == 0.0 and self_q.path() == [2]

    def test_validates_endpoints(self, small_road):
        engine = WarmEngine(small_road)
        with pytest.raises(ValueError, match="out of range"):
            engine.query(0, 10_000)

    def test_unknown_method(self, small_road):
        with pytest.raises(ValueError, match="unknown method"):
            WarmEngine(small_road).query(0, 1, method="dfs")

    def test_astar_without_coords_or_landmarks(self, small_social):
        engine = WarmEngine(small_social)
        with pytest.raises(ValueError, match="no coordinates"):
            engine.query(0, 5, method="astar")


class TestPooling:
    def test_no_state_leak_between_pooled_queries(self, small_road):
        """The one reused engine (and its stepping strategy) must not let
        one query's state bleed into the next."""
        engine = WarmEngine(small_road)
        first = engine.query(0, 100, method="et", use_cache=False)
        # A query whose search stays far from vertex 100:
        engine.query(130, 143, method="et", use_cache=False)
        again = engine.query(0, 100, method="et", use_cache=False)
        assert again.distance == pytest.approx(first.distance)


class TestResultCache:
    def test_repeat_query_hits(self, small_road):
        engine = WarmEngine(small_road)
        a = engine.query(0, 100)
        b = engine.query(0, 100)
        assert not a.cached and b.cached
        assert b.distance == a.distance
        assert engine.results.hits == 1

    def test_cache_hit_does_no_engine_work(self, small_road, monkeypatch):
        engine = WarmEngine(small_road)
        engine.query(0, 100)

        def no_run(*args, **kwargs):
            raise AssertionError("a cache hit ran the engine")

        monkeypatch.setattr("repro.api.run_policy", no_run)
        assert engine.query(0, 100).cached

    def test_path_upgrade_misses_then_stores(self, small_road):
        engine = WarmEngine(small_road)
        engine.query(0, 100)  # cached without path
        a = engine.query(0, 100, path=True)  # must recompute to get a path
        assert not a.cached and a.path()
        b = engine.query(0, 100, path=True)  # now cached with path
        assert b.cached and b.path() == a.path()

    def test_use_cache_false_bypasses(self, small_road):
        engine = WarmEngine(small_road)
        engine.query(0, 100)
        assert not engine.query(0, 100, use_cache=False).cached

    def test_invalidate_forces_recompute(self, small_road):
        engine = WarmEngine(small_road)
        engine.query(0, 100)
        engine.invalidate()
        assert not engine.query(0, 100).cached

    def test_invalidation_semantics_after_mutation(self, small_road):
        """Mutating weights in place + invalidate() yields fresh answers."""
        engine = WarmEngine(small_road)
        d_old = engine.query(0, 100, method="et").distance
        old = small_road.weights.copy()
        try:
            small_road.weights *= 2.0
            engine.invalidate()
            d_new = engine.query(0, 100, method="et").distance
            assert d_new == pytest.approx(2.0 * d_old)
        finally:
            small_road.weights[:] = old


class TestHeuristicCache:
    def test_h_rows_reused_across_queries(self, small_road):
        """Second query to the same target must not recompute h values
        the first query already evaluated (Sec. 5 memoization, lifted
        to engine scope)."""
        engine = WarmEngine(small_road)
        engine.query(0, 100, method="astar", use_cache=False)
        h = engine.heuristic_for(100)
        evaluated_after_first = h.evaluated
        engine.query(5, 100, method="astar", use_cache=False)
        # Some vertices overlap between the two searches; their h values
        # came from the memo table, so evaluations grow sublinearly.
        touched_twice = h.calls - h.evaluated
        assert touched_twice > 0
        assert h.evaluated >= evaluated_after_first

    def test_landmark_graphs_use_attached_set(self, small_social):
        ls = LandmarkSet(small_social, k=4)
        engine = WarmEngine(small_social, landmarks=ls)
        from repro.baselines import dijkstra

        ref = dijkstra(small_social, 10)[200]
        got = engine.query(10, 200, method="astar")
        if np.isinf(ref):
            assert not got.reachable
        else:
            assert got.distance == pytest.approx(ref)
        assert ls.cache_misses >= 1
        engine.query(30, 200, method="astar")
        # The engine-level LRU shadows the landmark cache: the reused
        # row hits there (same memoized instance either way).
        assert engine.stats()["heuristics"]["hits"] >= 1

    def test_invalidate_clears_landmark_cache(self, small_social):
        ls = LandmarkSet(small_social, k=3)
        engine = WarmEngine(small_social, landmarks=ls)
        engine.query(10, 200, method="astar")
        engine.invalidate()
        assert len(ls._h_cache) == 0


class TestBatch:
    def test_batch_matches_cold(self, small_road):
        from repro import batch_ppsp

        pairs = [(0, 100), (5, 77), (140, 3)]
        engine = WarmEngine(small_road)
        cold = batch_ppsp(small_road, pairs, method="multi")
        hot = engine.batch(pairs, method="multi")
        for p in pairs:
            assert hot.distance(*p) == pytest.approx(cold.distance(*p))

    def test_batch_keeps_paths(self, small_road):
        """A warm batch keeps its path state, like a cold one."""
        from repro import batch_ppsp

        engine = WarmEngine(small_road)
        res = engine.batch([(0, 100)], method="multi")
        p = res.path(0, 100)
        assert p[0] == 0 and p[-1] == 100
        assert p == batch_ppsp(small_road, [(0, 100)], method="multi").path(0, 100)

    def test_batch_seeds_result_cache(self, small_road):
        engine = WarmEngine(small_road)
        engine.batch([(0, 100)], method="multi")
        assert engine.query(0, 100, method="bids").cached


class TestStats:
    def test_stats_shape(self, small_road):
        engine = WarmEngine(small_road)
        engine.query(0, 100)
        s = engine.stats()
        assert s["queries"] == 1
        assert {"results", "heuristics"} <= set(s)

    def test_warm_factory(self, small_road):
        engine = warm(small_road, result_cache_size=2)
        assert isinstance(engine, WarmEngine)
        assert engine.results.stats()["maxsize"] == 2
