"""The overhead contract of the observability layer, pinned.

Two halves, matching ``docs/observability.md``:

* **disabled is free** — with no observer the instrumented sites cost
  one ``is None`` test each: deterministic engine counters are
  bit-identical to an uninstrumented run;
* **enabled is bounded** — with an observer attached, runs carry a
  StepTrace and update counters, which may cost real time but stays
  within a loose wall-clock multiple of the disabled path.

Marked ``bench``: the wall-clock half is timing-sensitive, so the suite
runs with the benchmark tier, not tier-1.
"""

from __future__ import annotations

import time

import pytest

from repro.graphs import road_graph
from repro.obs import Observer
from repro.perf.warm import WarmEngine

pytestmark = [pytest.mark.obs, pytest.mark.bench]

METHODS = ("sssp", "et", "astar", "bids", "bidastar")
ROUNDS = 3
#: loose bound: tracing + counter updates may cost, but never this much.
MAX_ENABLED_SLOWDOWN = 5.0
WALL_SLACK_S = 0.05


@pytest.fixture(scope="module")
def graph():
    return road_graph(12, 12, seed=5, name="overhead-road")


@pytest.fixture(scope="module")
def pairs(graph):
    n = graph.num_vertices
    return [(0, n - 1), (3, n - 4), (7, n // 2)]


def test_disabled_observer_counters_bit_identical(graph, pairs):
    """Same warm query with and without an observer: identical counters."""
    plain = WarmEngine(graph)
    assert plain.observer is None  # default-off
    observed = WarmEngine(graph, observer=Observer())
    for method in METHODS:
        for s, t in pairs:
            a = plain.query(s, t, method=method, use_cache=False)
            b = observed.query(s, t, method=method, use_cache=False)
            assert (a.steps, a.relaxations, a.work) == (b.steps, b.relaxations, b.work)
            assert a.distance == b.distance


def test_enabled_observer_within_wall_bound(graph, pairs):
    """Enabled-path wall clock stays within a loose multiple of disabled."""
    disabled = WarmEngine(graph)
    enabled = WarmEngine(graph, observer=Observer())

    def measure(engine) -> float:
        for s, t in pairs:  # prime heuristics outside the clock
            engine.query(s, t, method="bidastar", use_cache=False)
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            for method in METHODS:
                for s, t in pairs:
                    engine.query(s, t, method=method, use_cache=False)
        return time.perf_counter() - t0

    cold = measure(disabled)
    warm = measure(enabled)
    assert warm <= cold * MAX_ENABLED_SLOWDOWN + WALL_SLACK_S, (
        f"observer-enabled path took {warm:.4f}s vs {cold:.4f}s disabled"
    )
