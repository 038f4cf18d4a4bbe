"""Table 4 benchmarks: every single-PPSP method at every percentile.

One benchmark per (method, percentile) on each representative graph —
the cells of the paper's Tab. 4.  A* rows only run on graphs with
coordinates, like the paper's "-" cells.
"""

import pytest

from repro.experiments.harness import HEURISTIC_METHODS, run_single_query
from repro.kernels.calibrate import calibrate_delta

from conftest import pair_at

METHODS = ("sssp", "et", "bids", "astar", "bidastar", "gi-et", "gi-astar", "mbq-et", "mbq-astar")
PERCENTILES = (1.0, 50.0, 99.0)


@pytest.mark.parametrize("percentile", PERCENTILES, ids=lambda p: f"p{int(p)}")
@pytest.mark.parametrize("method", METHODS)
def test_single_ppsp(benchmark, rep_graph, method, percentile):
    if method in HEURISTIC_METHODS and not rep_graph.has_coords():
        pytest.skip("A* needs coordinates (paper's '-' cells)")
    delta = calibrate_delta(rep_graph)
    s, t = pair_at(rep_graph, percentile)

    timing = benchmark.pedantic(
        lambda: run_single_query(rep_graph, method, s, t, delta=delta),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    # Answers are audited: all methods agree with our SSSP on this pair.
    ref = run_single_query(rep_graph, "sssp", s, t, delta=delta).answer
    assert timing.answer == pytest.approx(ref, rel=1e-6)
