"""Fig. 4 benchmarks: running time vs. distance percentile.

One benchmark per (method, doubling percentile bucket) on the road
representative — the series the paper plots.
"""

import pytest

from repro.analysis.percentiles import target_at_percentile
from repro.experiments.harness import run_single_query
from repro.kernels.calibrate import calibrate_delta
from repro.graphs.connectivity import largest_component

PERCENTILE_POINTS = (1.0, 5.0, 25.0, 50.0, 75.0, 100.0)
METHODS = ("sssp", "et", "bids", "astar", "bidastar")


@pytest.mark.parametrize("percentile", PERCENTILE_POINTS, ids=lambda p: f"p{p:g}")
@pytest.mark.parametrize("method", METHODS)
def test_time_vs_percentile(benchmark, road, method, percentile):
    delta = calibrate_delta(road)
    s = int(largest_component(road)[0])
    t = target_at_percentile(road, s, percentile)
    timing = benchmark.pedantic(
        lambda: run_single_query(road, method, s, t, delta=delta),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    ref = run_single_query(road, "sssp", s, t, delta=delta).answer
    assert timing.answer == pytest.approx(ref, rel=1e-6)
