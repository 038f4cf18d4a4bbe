"""Extension experiment — batch PPSP on directed graphs (Sec. 4.4).

The paper's evaluation symmetrizes its graphs; Sec. 4.4 sketches the
directed story: query points split into sources and targets (a
bipartite query graph), Multi-BiDS runs forward searches from sources
and backward searches from targets over the reverse graph, and the
optimal SSSP cover comes from bipartite matching.  This experiment
exercises exactly that machinery at suite-ish scale:

* directed analogs of the road suite (one-way grid streets) and a
  directed power-law graph;
* batches whose query points overlap in *both roles* (the case that
  forces the source/target copy split);
* all batch methods validated against one another, with König cover
  sizes compared to the naive all-sources strategy.

Run: ``python -m repro.experiments.ext_directed [--scale small]``
"""

from __future__ import annotations

import argparse

import numpy as np

from ..core.batch import solve_batch
from ..core.query_graph import QueryGraph, vertex_cover
from ..core.stepping import DeltaStepping
from ..graphs.connectivity import largest_component
from ..graphs.csr import from_edges
from ..graphs.generators import uniform_random_weights
from ..kernels.calibrate import calibrate_delta
from .harness import render_table, save_results

__all__ = ["directed_road", "directed_social", "collect", "main"]

_SIZES = {"tiny": 900, "small": 6_000, "medium": 20_000}


def directed_road(n_target: int, *, seed: int = 51):
    """One-way street grid: alternating row/column directions plus a
    sprinkling of two-way avenues (same construction as the example)."""
    from ..heuristics.geometric import euclidean_distance

    side = max(int(np.sqrt(n_target)), 4)
    rng = np.random.default_rng(seed)
    n = side * side
    vid = np.arange(n).reshape(side, side)
    coords = (
        np.stack(np.meshgrid(np.arange(side), np.arange(side), indexing="ij"), axis=-1)
        .reshape(n, 2)
        .astype(float)
        * 100.0
    )
    src, dst = [], []
    for r in range(side):
        for c in range(side - 1):
            a, b = int(vid[r, c]), int(vid[r, c + 1])
            fwd = r % 2 == 0
            src.append(a if fwd else b)
            dst.append(b if fwd else a)
            if rng.random() < 0.3:
                src.append(b if fwd else a)
                dst.append(a if fwd else b)
    for c in range(side):
        for r in range(side - 1):
            a, b = int(vid[r, c]), int(vid[r + 1, c])
            fwd = c % 2 == 0
            src.append(a if fwd else b)
            dst.append(b if fwd else a)
            if rng.random() < 0.3:
                src.append(b if fwd else a)
                dst.append(a if fwd else b)
    src, dst = np.array(src), np.array(dst)
    w = euclidean_distance(coords[src], coords[dst]) * rng.uniform(1.0, 1.2, len(src))
    return from_edges(
        src, dst, w, num_vertices=n, directed=True,
        coords=coords, coord_system="euclidean", name="dir-road",
    )


def directed_social(n: int, *, avg_degree: float = 10.0, seed: int = 52):
    """Directed power-law graph (arcs kept one-way, paper-style weights)."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    p = ranks ** (-1.0 / 1.3)
    p /= p.sum()
    m = int(n * avg_degree)
    src = rng.choice(n, size=m, p=p)
    dst = rng.choice(n, size=m, p=p)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    w = uniform_random_weights(len(src), rng)
    return from_edges(
        src, dst, w, num_vertices=n, directed=True, dedupe=True, name="dir-social"
    )


def _overlapping_batch(graph, k: int, seed: int) -> QueryGraph:
    """k queries whose endpoints reuse vertices in both roles."""
    rng = np.random.default_rng(seed)
    lcc = largest_component(graph)
    verts = [int(v) for v in rng.choice(lcc, size=k, replace=False)]
    pairs = [(verts[i], verts[(i + 1) % k]) for i in range(k)]  # directed cycle
    pairs += [(verts[0], verts[k // 2])]
    return QueryGraph(pairs, directed=True)


def collect(scale: str = "small", *, seed: int = 61) -> dict:
    out: dict[str, dict] = {}
    n = _SIZES[scale]
    for graph in (directed_road(n, seed=seed), directed_social(n, seed=seed + 1)):
        delta = calibrate_delta(graph)
        qg = _overlapping_batch(graph, 6, seed + 2)
        cover = vertex_cover(qg)
        results = {}
        answers: dict[str, dict] = {}
        for method in ("multi", "plain-bids", "sssp-vc", "sssp-plain"):
            res = solve_batch(graph, qg, method=method, strategy=DeltaStepping(delta))
            results[method] = {
                "work": res.meter.work,
                "simulated_96p": res.meter.simulated_time(96),
                "num_searches": res.num_searches,
            }
            answers[method] = res.distances
        ref = answers["multi"]
        for method, dists in answers.items():
            for key, val in dists.items():
                want = ref[key]
                if not (np.isinf(val) and np.isinf(want)) and not np.isclose(
                    val, want, rtol=1e-9, atol=1e-9
                ):
                    raise AssertionError(f"{graph.name}/{method}: {key} {val} != {want}")
        out[graph.name] = {
            "n": graph.num_vertices,
            "queries": qg.num_edges,
            "query_copies": qg.num_vertices,
            "koenig_cover": len(cover),
            "methods": results,
        }
    return out


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    args = parser.parse_args(argv)

    data = collect(args.scale)
    methods = ("multi", "plain-bids", "sssp-vc", "sssp-plain")
    cells: dict[tuple[str, str], object] = {}
    for gname, row in data.items():
        for m in methods:
            cells[(gname, m)] = row["methods"][m]["simulated_96p"]
        cells[(gname, "searches (VC)")] = str(row["methods"]["sssp-vc"]["num_searches"])
        cells[(gname, "searches (plain)")] = str(
            row["methods"]["sssp-plain"]["num_searches"]
        )
    print(render_table(
        "Directed batches: simulated 96p seconds per strategy",
        list(data.keys()),
        list(methods) + ["searches (VC)", "searches (plain)"],
        cells,
    ))
    save_results(f"ext_directed_{args.scale}", data)
    return data


if __name__ == "__main__":
    main()
