"""gather_relax vs the expand_ranges / src_idx construction of the original engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import build_graph, social_graph
from repro.kernels.relax import gather_relax
from repro.parallel.primitives import expand_ranges


def _reference_gather(graph, eids, v, src_off, dist):
    """The pre-kernel engine construction, kept verbatim as the oracle."""
    starts = graph.indptr[v]
    counts = (graph.indptr[v + 1] - starts).astype(np.int64)
    edge_idx = expand_ranges(starts, counts)
    src_idx = np.repeat(np.arange(len(v)), counts)
    te = src_off[src_idx] + graph.indices[edge_idx]
    new_d = dist[eids][src_idx] + graph.weights[edge_idx]
    return te, new_d, int(counts.sum())


def _check(graph, eids, v, src_off, dist):
    te, new_d, m = gather_relax(graph, eids, v, src_off, dist)
    ref_te, ref_nd, ref_m = _reference_gather(graph, eids, v, src_off, dist)
    assert m == ref_m
    assert te.dtype == np.int64
    assert np.array_equal(te, ref_te)
    # Bit-identical floats: both paths add the same weight to the same
    # tentative distance.
    assert new_d.tobytes() == ref_nd.tobytes()


@pytest.mark.parametrize("seed", range(12))
def test_matches_reference_random(seed):
    rng = np.random.default_rng(seed)
    g = social_graph(int(rng.integers(20, 120)), seed=seed)
    n = g.num_vertices
    k = int(rng.integers(1, 4))
    dist = rng.uniform(0.0, 5.0, size=k * n)
    size = int(rng.integers(1, n))
    v = rng.integers(0, n, size=size).astype(np.int64)
    src = rng.integers(0, k, size=size).astype(np.int64)
    eids = src * n + v
    src_off = src * n
    _check(g, eids, v, src_off, dist)


def test_zero_degree_sources_are_dropped():
    # Vertex 2 has no outgoing edges; a batch containing it must not
    # corrupt neighbouring segments.
    g = build_graph([(0, 1, 1.0), (1, 2, 2.0)], num_vertices=4, directed=True)
    dist = np.array([0.0, 1.0, 3.0, np.inf])
    v = np.array([0, 2, 1, 3], dtype=np.int64)
    eids = v.copy()
    src_off = np.zeros(4, dtype=np.int64)
    _check(g, eids, v, src_off, dist)


def test_all_zero_degree_batch():
    g = build_graph([(0, 1, 1.0)], num_vertices=3, directed=True)
    dist = np.array([0.0, 1.0, np.inf])
    v = np.array([1, 2], dtype=np.int64)  # both sinks
    te, new_d, m = gather_relax(g, v.copy(), v, np.zeros(2, dtype=np.int64), dist)
    assert m == 0
    assert len(te) == 0
