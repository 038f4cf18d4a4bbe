"""Directed routing: one-way streets and directed batch queries.

The paper's techniques "also apply to directed graphs" (Sec. 1, 4.4):
backward searches traverse the reverse graph, and batch query points
split into source/target copies forming a bipartite query graph whose
*optimal* vertex cover comes from König's theorem.  This example builds
a downtown grid where many streets are one-way, runs directed BiDS both
ways (asymmetric distances!), and dispatches a directed batch.

Run: ``python examples/one_way_streets.py``
"""

import numpy as np

import repro
from repro.core.query_graph import QueryGraph, vertex_cover
from repro.graphs import from_edges
from repro.heuristics.geometric import euclidean_distance


def build_downtown(blocks: int = 24, seed: int = 12):
    """A blocks x blocks street grid; alternating rows/columns one-way."""
    rng = np.random.default_rng(seed)
    n = blocks * blocks
    vid = np.arange(n).reshape(blocks, blocks)
    coords = np.stack(np.meshgrid(np.arange(blocks), np.arange(blocks), indexing="ij"),
                      axis=-1).reshape(n, 2).astype(float) * 100.0
    src, dst = [], []
    for r in range(blocks):
        for c in range(blocks - 1):
            a, b = vid[r, c], vid[r, c + 1]
            if r % 2 == 0:
                src.append(a), dst.append(b)       # eastbound one-way
            else:
                src.append(b), dst.append(a)       # westbound one-way
            if rng.random() < 0.3:                 # some two-way avenues
                src.append(b if r % 2 == 0 else a)
                dst.append(a if r % 2 == 0 else b)
    for c in range(blocks):
        for r in range(blocks - 1):
            a, b = vid[r, c], vid[r + 1, c]
            if c % 2 == 0:
                src.append(a), dst.append(b)
            else:
                src.append(b), dst.append(a)
            if rng.random() < 0.3:
                src.append(b if c % 2 == 0 else a)
                dst.append(a if c % 2 == 0 else b)
    src, dst = np.array(src), np.array(dst)
    w = euclidean_distance(coords[src], coords[dst]) * rng.uniform(1.0, 1.2, len(src))
    return from_edges(src, dst, w, num_vertices=n, directed=True,
                      coords=coords, coord_system="euclidean", name="downtown")


def main() -> None:
    graph = build_downtown()
    print(f"graph: {graph} (one-way streets)\n")

    depot, mall = 5, graph.num_vertices - 9
    there = repro.ppsp(graph, depot, mall, method="bids")
    back = repro.ppsp(graph, mall, depot, method="bids")
    print(f"depot -> mall: {there.distance:9.1f} m  ({len(there.path())} intersections)")
    print(f"mall -> depot: {back.distance:9.1f} m  ({len(back.path())} intersections)")
    print(f"one-way detour asymmetry: {abs(there.distance - back.distance):.1f} m\n")

    # A dispatch batch: three couriers, two drop-off points; the same
    # vertex appears as both a source and a target, which is exactly the
    # case needing separate source/target copies on directed graphs.
    rng = np.random.default_rng(3)
    a, b, c, d = (int(v) for v in rng.choice(graph.num_vertices, size=4, replace=False))
    pairs = [(a, c), (b, c), (c, d), (a, d)]
    qg = QueryGraph(pairs, directed=True)
    cover = vertex_cover(qg)
    print(f"batch {pairs}")
    print(f"query graph: {qg.num_vertices} copies "
          f"({(qg.direction == 1).sum()} source-side, {(qg.direction == -1).sum()} target-side)")
    print("optimal SSSP cover (König):",
          [(int(qg.vertices[i]), "fwd" if qg.direction[i] > 0 else "bwd") for i in cover])

    multi = repro.batch_ppsp(graph, qg, method="multi")
    vc = repro.batch_ppsp(graph, qg, method="sssp-vc")
    print(f"\nMulti-BiDS ({multi.num_searches} searches) vs VC-SSSP ({vc.num_searches} SSSPs):")
    for s, t in pairs:
        dm, dv = multi.distance(s, t), vc.distance(s, t)
        assert abs(dm - dv) < 1e-6
        print(f"  {s:5d} -> {t:5d}: {dm:9.1f} m")
    print("\nboth strategies agree on every directed query")


if __name__ == "__main__":
    main()
