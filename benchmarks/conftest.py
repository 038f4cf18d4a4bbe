"""Shared benchmark fixtures.

Benchmarks run the same code paths as the experiment modules at tiny
scale so ``pytest benchmarks/ --benchmark-only`` regenerates a
representative row of every paper table/figure in seconds.  The full
tables come from ``python -m repro.experiments.<name> --scale small``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.percentiles import sample_query_pairs, target_at_percentile
from repro.kernels.calibrate import calibrate_delta
from repro.experiments.suite import build_graph
from repro.graphs.connectivity import largest_component

#: one representative per category (the paper's Fig. 4 selection).
REPRESENTATIVES = ("OK", "IT", "NA", "GL5")


def pytest_collection_modifyitems(items):
    """Everything under benchmarks/ carries the ``bench`` marker."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session", params=REPRESENTATIVES)
def rep_graph(request):
    return build_graph(request.param, "tiny")


@pytest.fixture(scope="session")
def road():
    return build_graph("NA", "tiny")


@pytest.fixture(scope="session")
def social():
    return build_graph("OK", "tiny")


@pytest.fixture(scope="session")
def knn():
    return build_graph("GL5", "tiny")


def pair_at(graph, percentile: float, seed: int = 42) -> tuple[int, int]:
    return sample_query_pairs(graph, percentile, num_pairs=1, seed=seed)[0]


@pytest.fixture(scope="session")
def delta_of():
    return calibrate_delta


@pytest.fixture(scope="session")
def batch_vertices():
    def make(graph, k: int = 6, seed: int = 13):
        rng = np.random.default_rng(seed)
        lcc = largest_component(graph)
        return rng.choice(lcc, size=k, replace=False).tolist()

    return make
