"""Differential slice: the production kernel vs the ``np.minimum.at`` oracle.

Reuses the seeded random-geometric instance family of
``tests/test_differential.py`` (directed/undirected, zero-weight edges,
disconnected pairs) — a spread of seeds, every single-query method and
every batch solver.  The oracle runs through ``kernel=``, the hook a
caller-built kernel uses; distances and paths must be byte-equal to a
default run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import batch_ppsp, ppsp, solve_batch
from repro.core.batch import BATCH_METHODS
from repro.kernels import Kernel

from ..test_differential import METHODS, _random_geometric
from .test_scatter import UfuncAtKernel


def _batch_observables(res, pairs) -> tuple:
    """Distance bytes plus each asked pair's path (or exception name)."""
    paths = []
    for s, t in pairs:
        try:
            paths.append(res.path(s, t))
        except Exception as exc:  # noqa: BLE001 — the outcome is the observable
            paths.append(type(exc).__name__)
    dist = np.array([res.distance(s, t) for s, t in pairs], dtype=np.float64)
    return dist.tobytes(), paths, res.meter.work


@pytest.mark.parametrize("seed", range(0, 50, 5))
def test_single_methods_identical_across_kernels(seed):
    graph, pairs = _random_geometric(seed)
    for s, t in pairs:
        for method in METHODS:
            ref = ppsp(graph, s, t, method=method)
            got = ppsp(graph, s, t, method=method, kernel=UfuncAtKernel())
            assert got.run.dist.tobytes() == ref.run.dist.tobytes(), (seed, method, s, t)
            assert got.distance == ref.distance, (seed, method, s, t)
            if ref.reachable:
                assert got.path() == ref.path(), (seed, method, s, t)


@pytest.mark.parametrize("seed", range(0, 50, 10))
def test_batch_solvers_identical_across_kernels(seed):
    graph, pairs = _random_geometric(seed)
    for bmethod in BATCH_METHODS:
        ref = batch_ppsp(graph, pairs, method=bmethod)
        got = batch_ppsp(graph, pairs, method=bmethod, kernel=UfuncAtKernel())
        assert got.distances == ref.distances, (seed, bmethod)
        assert _batch_observables(got, pairs) == _batch_observables(ref, pairs), (
            seed, bmethod,
        )


def test_string_kernel_rejected():
    graph, pairs = _random_geometric(1)
    s, t = pairs[0]
    for name in ("ufunc_at", "sort_reduceat"):
        with pytest.raises(TypeError, match="Kernel instance"):
            ppsp(graph, s, t, kernel=name)
        with pytest.raises(TypeError, match="Kernel instance"):
            solve_batch(graph, pairs, method="multi", kernel=name)


@pytest.mark.parametrize("kernel", [Kernel(), UfuncAtKernel(), "sort_reduceat"])
def test_process_backend_rejects_kernel(kernel):
    """A kernel cannot ship to pool workers; the check runs before any fork."""
    graph, pairs = _random_geometric(1)
    with pytest.raises(ValueError, match="kernel"):
        solve_batch(graph, pairs, method="multi", backend="process", workers=1,
                    kernel=kernel)
