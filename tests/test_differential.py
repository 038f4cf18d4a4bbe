"""Differential tests: every PPSP method vs reference Dijkstra.

Seeded random geometric graphs — directed and undirected, sparse enough
to leave disconnected pairs, with coincident points producing genuine
zero-weight edges — checked on distance AND path validity, both cold
(:func:`repro.ppsp`) and through a shared :class:`~repro.perf.WarmEngine`.
Edge weights are Euclidean lengths scaled by a factor >= 1, so the
geometric heuristic stays admissible and consistent on every instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ppsp
from repro.baselines import dijkstra
from repro.graphs import from_edges
from repro.perf import WarmEngine

METHODS = ("sssp", "et", "astar", "bids", "bidastar")
NUM_SEEDS = 50
PAIRS_PER_GRAPH = 4
# The acceptance floor: >= 200 distinct (graph, query) cases.
assert NUM_SEEDS * PAIRS_PER_GRAPH >= 200


def _random_geometric(seed: int):
    """A random geometric instance plus its query pairs.

    - vertices are uniform 2-D points; a handful are exact duplicates of
      earlier points, so their connecting edges have weight 0.0;
    - weight(u, v) = ||p_u - p_v|| * U(1.0, 1.5) — never below the
      Euclidean distance, keeping A*'s heuristic admissible;
    - every third seed is directed;
    - edge count is low enough that some instances are disconnected.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 80))
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    # Coincident duplicates -> zero-length (hence zero-weight) edges.
    dup = rng.integers(0, n // 2, size=max(2, n // 10))
    pts[-len(dup):] = pts[dup]

    m = int(n * rng.uniform(1.2, 2.5))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # Wire each duplicate to its original so weight-0 edges always exist.
    src = np.concatenate([src, np.arange(n - len(dup), n)])
    dst = np.concatenate([dst, dup])
    stretch = rng.uniform(1.0, 1.5, size=len(src))
    w = np.linalg.norm(pts[src] - pts[dst], axis=1) * stretch

    graph = from_edges(
        src, dst, w,
        num_vertices=n,
        directed=(seed % 3 == 0),
        coords=pts,
        coord_system="euclidean",
        dedupe=True,
        name=f"diff-{seed}",
    )
    pairs = [
        (int(rng.integers(0, n)), int(rng.integers(0, n)))
        for _ in range(PAIRS_PER_GRAPH)
    ]
    return graph, pairs


def _edge_weight(graph, u: int, v: int) -> float:
    """Weight of arc u -> v; fails the test if the arc does not exist."""
    nbrs = graph.neighbors(u)
    mask = nbrs == v
    assert mask.any(), f"path uses non-edge {u} -> {v}"
    return float(graph.neighbor_weights(u)[mask].min())


def _check_path(graph, path, s: int, t: int, distance: float) -> None:
    """Valid endpoints, every hop an arc, total weight == distance."""
    assert path[0] == s and path[-1] == t
    total = sum(_edge_weight(graph, u, v) for u, v in zip(path, path[1:]))
    assert total == pytest.approx(distance, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("seed", range(NUM_SEEDS))
def test_methods_agree_with_dijkstra(seed):
    graph, pairs = _random_geometric(seed)
    engine = WarmEngine(graph)
    for s, t in pairs:
        ref = float(dijkstra(graph, s)[t])
        for method in METHODS:
            cold = ppsp(graph, s, t, method=method)
            assert cold.distance == pytest.approx(ref), (
                f"seed={seed} {method} cold: {cold.distance} != {ref} "
                f"for ({s}, {t})"
            )
            hot = engine.query(s, t, method=method, path=True, use_cache=False)
            assert hot.distance == pytest.approx(ref), (
                f"seed={seed} {method} warm: {hot.distance} != {ref} "
                f"for ({s}, {t})"
            )
            if np.isfinite(ref):
                _check_path(graph, cold.path(), s, t, ref)
                _check_path(graph, hot.path(), s, t, ref)


@pytest.mark.parametrize("seed", range(0, NUM_SEEDS, 7))
def test_warm_cache_hits_match_reference(seed):
    """Cached answers must be byte-identical to the first computation."""
    graph, pairs = _random_geometric(seed)
    engine = WarmEngine(graph)
    for s, t in pairs:
        first = engine.query(s, t, method="bids")
        again = engine.query(s, t, method="bids")
        assert again.cached
        assert again.distance == first.distance
        ref = float(dijkstra(graph, s)[t])
        assert first.distance == pytest.approx(ref)


def test_instance_family_covers_required_shapes():
    """The generator really produces the shapes the suite claims to cover."""
    directed = undirected = zero_w = disconnected = 0
    for seed in range(NUM_SEEDS):
        graph, pairs = _random_geometric(seed)
        directed += graph.directed
        undirected += not graph.directed
        zero_w += bool((graph.weights == 0.0).any())
        dist = dijkstra(graph, pairs[0][0])
        disconnected += bool(np.isinf(dist).any())
    assert directed > 0 and undirected > 0
    assert zero_w > NUM_SEEDS // 2
    assert disconnected > 0
