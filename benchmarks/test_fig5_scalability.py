"""Fig. 5 benchmarks: the scalability pipeline on the simulated machine.

Benchmarks the execution that produces the work/depth profile, then
derives and sanity-checks the speedup curve the figure plots.
"""

import pytest

from repro.experiments.fig5 import PROCESSOR_COUNTS, collect
from repro.parallel.cost_model import speedup_curve
from repro.experiments.harness import run_single_query
from repro.kernels.calibrate import calibrate_delta

from conftest import pair_at

METHODS = ("sssp", "et", "bids")


@pytest.mark.parametrize("method", METHODS)
def test_speedup_curve_pipeline(benchmark, rep_graph, method):
    delta = calibrate_delta(rep_graph)
    s, t = pair_at(rep_graph, 50.0)

    def run():
        timing = run_single_query(rep_graph, method, s, t, delta=delta)
        return speedup_curve(timing.meter, list(PROCESSOR_COUNTS))

    curve = benchmark.pedantic(run, rounds=3, iterations=1)
    assert curve[1] == pytest.approx(1.0)
    assert curve[192] >= curve[1]


def test_collect_whole_figure(benchmark, road):
    data = benchmark.pedantic(
        lambda: collect(road, methods=METHODS), rounds=2, iterations=1
    )
    assert set(data["curves"]) == set(METHODS)
