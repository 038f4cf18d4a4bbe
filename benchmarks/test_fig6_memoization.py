"""Fig. 6 benchmarks: A*/BiD-A* with and without heuristic memoization.

The ablation of Sec. 5: memoization removes repeated geometric-distance
computation.  Road uses spherical (expensive) heuristics, k-NN Euclidean
(cheap) — the paper's contrast.
"""

import pytest

from repro.experiments.harness import run_single_query
from repro.kernels.calibrate import calibrate_delta

from conftest import pair_at

VARIANTS = [
    ("astar", False),
    ("astar", True),
    ("bidastar", False),
    ("bidastar", True),
]


@pytest.mark.parametrize("graph_fixture", ["road", "knn"])
@pytest.mark.parametrize(
    "method,memoize", VARIANTS, ids=[f"{m}{'+memo' if x else ''}" for m, x in VARIANTS]
)
def test_memoization(benchmark, request, graph_fixture, method, memoize):
    g = request.getfixturevalue(graph_fixture)
    delta = calibrate_delta(g)
    s, t = pair_at(g, 50.0)
    timing = benchmark.pedantic(
        lambda: run_single_query(g, method, s, t, delta=delta, memoize=memoize),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )
    ref = run_single_query(g, "et", s, t, delta=delta).answer
    assert timing.answer == pytest.approx(ref, rel=1e-6)


def test_memoization_reduces_heuristic_evaluations(road):
    """The mechanism itself, independent of wall clock: memoized runs
    evaluate the geometry strictly fewer times."""
    from repro.core.engine import run_policy
    from repro.core.policies import AStar
    from repro.core.stepping import DeltaStepping

    delta = calibrate_delta(road)
    s, t = pair_at(road, 50.0)
    memo = run_policy(road, AStar(s, t, memoize=True), strategy=DeltaStepping(delta))
    plain = run_policy(road, AStar(s, t, memoize=False), strategy=DeltaStepping(delta))
    assert memo.policy.heuristic.evaluated < plain.policy.heuristic.evaluated
