"""Engine microbenchmarks: the primitives the hot loop is made of.

Regression guards for the vectorized kernels — a slowdown in any of
these inflates every experiment in the repo.
"""

import numpy as np
import pytest

from repro.core.frontier import Frontier
from repro.parallel.primitives import expand_ranges


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(0)


class TestPrimitives:
    def test_expand_ranges_large(self, benchmark, rng):
        k = 20_000
        starts = rng.integers(0, 1_000_000, k)
        counts = rng.integers(0, 12, k)
        out = benchmark(lambda: expand_ranges(starts, counts))
        assert len(out) == counts.sum()

    def test_relax_batch_kernel(self, benchmark, road):
        """The full gather-relax-scatter inner loop on a real frontier."""
        from repro.core.engine import _relax_batch
        from repro.kernels import get_kernel

        kernel = get_kernel(None)
        n = road.num_vertices
        frontier = np.arange(0, n, 3, dtype=np.int64)

        def run():
            dist = np.full(n, np.inf)
            dist[frontier] = 1.0
            return _relax_batch(road, frontier, dist, n, kernel, False)

        changed, edges = benchmark(run)
        assert edges > 0


class TestFrontierOps:
    @pytest.mark.parametrize("mode", ["sparse", "dense"])
    def test_add_extract_cycle(self, benchmark, rng, mode):
        def run():
            f = Frontier(100_000, mode=mode)
            for _ in range(20):
                f.add(rng.integers(0, 100_000, 2_000))
                current = f.ids()  # the engine's extract/defer split
                f.replace(current[current > 50_000], assume_sorted=True)
            return len(f)

        size = benchmark.pedantic(run, rounds=3, iterations=1)
        assert size >= 0

    def test_auto_switching_overhead(self, benchmark, rng):
        def run():
            f = Frontier(50_000, mode="auto")
            # Grow past the dense threshold, shrink back to sparse.
            f.add(rng.integers(0, 50_000, 10_000))
            f.replace(rng.integers(0, 50_000, 100))
            f.add(rng.integers(0, 50_000, 10_000))
            return f.is_dense

        benchmark.pedantic(run, rounds=3, iterations=1)
