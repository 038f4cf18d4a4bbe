"""Fig. 7 benchmarks: batch PPSP strategies per query-graph pattern.

One benchmark per (pattern, strategy) on the road representative —
the cells of the paper's heatmap.  Wall-clock here tracks total work;
the Plain-vs-Plain* parallel-overlap distinction lives on the simulated
machine (``python -m repro.experiments.fig7``).
"""

import pytest

from repro.core.batch import BATCH_METHODS, solve_batch
from repro.core.query_graph import PATTERNS
from repro.core.stepping import DeltaStepping
from repro.kernels.calibrate import calibrate_delta


@pytest.mark.parametrize("pattern", list(PATTERNS))
@pytest.mark.parametrize("method", BATCH_METHODS)
def test_batch_pattern(benchmark, road, batch_vertices, pattern, method):
    delta = calibrate_delta(road)
    verts = batch_vertices(road)
    qg = PATTERNS[pattern](verts)

    res = benchmark.pedantic(
        lambda: solve_batch(road, qg, method=method, strategy=DeltaStepping(delta)),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    # Cross-check against Multi-BiDS once per cell.
    ref = solve_batch(road, qg, method="multi", strategy=DeltaStepping(delta))
    for key, val in res.distances.items():
        assert val == pytest.approx(ref.distance(*key), rel=1e-6)
