"""The overhead contract of the observability layer, pinned.

Two halves, matching ``docs/observability.md``:

* **disabled is free** — with no observer the instrumented sites cost
  one ``is None`` test each: deterministic engine counters are
  bit-identical to an uninstrumented run;
* **enabled is bounded** — with an observer attached, runs carry a
  StepTrace and update counters, which may cost real time but stays
  within a loose wall-clock multiple of the disabled path.

The bit-identity half is deterministic and runs in tier-1.  The
wall-clock half is timing-sensitive, so it carries the ``bench`` marker
and runs with the markers lifted (``pytest tests/obs -m ''``).
"""

from __future__ import annotations

import time

import pytest

from repro import ppsp
from repro.graphs import road_graph
from repro.obs import Observer

pytestmark = pytest.mark.obs

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
    """Same query with and without an observer: identical counters."""
    obs = Observer()
    for method in METHODS:
        for s, t in pairs:
            a = ppsp(graph, s, t, method=method)
            b = ppsp(graph, s, t, method=method, observer=obs)
            assert (a.run.steps, a.run.relaxations, a.run.meter.work) == (
                b.run.steps, b.run.relaxations, b.run.meter.work)
            assert a.distance == b.distance


@pytest.mark.bench
def test_enabled_observer_within_wall_bound(graph, pairs):
    """Enabled-path wall clock stays within a loose multiple of disabled."""

    def measure(observer) -> float:
        t0 = time.perf_counter()
        for _ in range(ROUNDS):
            for method in METHODS:
                for s, t in pairs:
                    ppsp(graph, s, t, method=method, observer=observer)
        return time.perf_counter() - t0

    disabled = measure(None)
    enabled = measure(Observer())
    assert enabled <= disabled * MAX_ENABLED_SLOWDOWN + WALL_SLACK_S, (
        f"observer-enabled path took {enabled:.4f}s vs {disabled:.4f}s disabled"
    )
