"""Extension benchmarks: ALT landmarks, PLL tradeoff, PnP baseline.

Not paper artifacts, but the extension features DESIGN.md lists —
benchmarked so regressions in the added subsystems are visible.
"""

import numpy as np
import pytest

from repro.baselines.pll import PrunedLandmarkLabeling
from repro.baselines.pnp import pnp_ppsp
from repro.core.engine import run_policy
from repro.core.policies import BiDAStar, BiDS
from repro.core.stepping import DeltaStepping
from repro.experiments.harness import run_single_query
from repro.kernels.calibrate import calibrate_delta
from repro.heuristics.landmarks import LandmarkSet

from conftest import pair_at


class TestALT:
    @pytest.fixture(scope="class")
    def landmarks(self, social):
        return LandmarkSet(social, k=6)

    def test_preprocess(self, benchmark, social):
        ls = benchmark.pedantic(lambda: LandmarkSet(social, k=6), rounds=2, iterations=1)
        assert ls.k == 6

    def test_alt_bidastar_query(self, benchmark, social, landmarks):
        delta = calibrate_delta(social)
        s, t = pair_at(social, 50.0)

        def run():
            return run_policy(
                social,
                BiDAStar(
                    s, t,
                    heuristic_to_source=landmarks.heuristic_to(s),
                    heuristic_to_target=landmarks.heuristic_to(t),
                ),
                strategy=DeltaStepping(delta),
            )

        res = benchmark.pedantic(run, rounds=3, iterations=1)
        ref = run_single_query(social, "et", s, t, delta=delta).answer
        assert res.answer == pytest.approx(ref, rel=1e-6)

    def test_alt_reduces_work_vs_bids(self, social, landmarks):
        delta = calibrate_delta(social)
        s, t = pair_at(social, 50.0)
        alt = run_policy(
            social,
            BiDAStar(
                s, t,
                heuristic_to_source=landmarks.heuristic_to(s),
                heuristic_to_target=landmarks.heuristic_to(t),
            ),
            strategy=DeltaStepping(delta),
        )
        bids = run_policy(social, BiDS(s, t), strategy=DeltaStepping(delta))
        assert alt.relaxations < bids.relaxations


class TestPLL:
    def test_build_index(self, benchmark, knn):
        pll = benchmark.pedantic(
            lambda: PrunedLandmarkLabeling(knn), rounds=1, iterations=1
        )
        assert pll.exact

    def test_query_is_fast(self, benchmark, knn):
        pll = PrunedLandmarkLabeling(knn)
        s, t = pair_at(knn, 50.0)
        got = benchmark(lambda: pll.query(s, t))
        ref = run_single_query(knn, "bids", s, t, delta=calibrate_delta(knn)).answer
        assert got == pytest.approx(ref, rel=1e-6)


class TestPnP:
    def test_pnp_query(self, benchmark, road):
        s, t = pair_at(road, 50.0)
        delta = calibrate_delta(road)
        got = benchmark.pedantic(
            lambda: pnp_ppsp(road, s, t, strategy=DeltaStepping(delta)),
            rounds=3,
            iterations=1,
        )
        ref = run_single_query(road, "bids", s, t, delta=delta).answer
        assert got == pytest.approx(ref, rel=1e-6)


class TestChunkedBatch:
    @pytest.mark.parametrize("max_sources", [None, 4], ids=["unchunked", "chunk4"])
    def test_clique_batch(self, benchmark, road, batch_vertices, max_sources):
        from repro.core.batch import solve_batch
        from repro.core.query_graph import QueryGraph

        delta = calibrate_delta(road)
        qg = QueryGraph.clique(batch_vertices(road))
        res = benchmark.pedantic(
            lambda: solve_batch(
                road, qg, method="multi", max_sources=max_sources,
                strategy=DeltaStepping(delta),
            ),
            rounds=3,
            iterations=1,
        )
        assert len(res.distances) == qg.num_edges
