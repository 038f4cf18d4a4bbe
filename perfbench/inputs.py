"""Seeded inputs for the benchmark workloads.

Run as a separate process so that the measured process sees only the
files written here: the graph (``graph.npz``, written with
``repro.graphs.io.save_npz``) and the query stream (``queries.npz``).

    python3 perfbench/inputs.py --workload road-p2p --seed 1 --out DIR

The same workload and seed always give byte-identical inputs.  The map
(the graph, the warm-up queries and, for service-bursts, the depots) is
the same for every seed, so runs on different seeds differ only in their
timed traffic; query endpoints are drawn from the graph's largest
connected component, so every query has a finite answer.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

#: road_graph(200, 200): n = 40k, about 150k arcs, spherical coordinates.
ROAD_SHAPE = (200, 200)
#: social_graph(20000): about 320k arcs, power-law degrees, no coordinates.
SOCIAL_N = 20000
#: single-query streams are longer than any run can use.
STREAM_QUERIES = 6000
WARMUP_QUERIES = 4
#: service-bursts: one burst of BURST_SIZE queries every BURST_INTERVAL_S.
BURST_SIZE = 16
BURST_INTERVAL_S = 0.5
MAX_BURSTS = 240
DEPOTS = 32
#: generator seed of the map, shared by every run.
MAP_SEED = 1
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _distinct_pairs(rng, vertices: np.ndarray, count: int) -> np.ndarray:
    """``count`` random (s, t) pairs with s != t, none repeated."""
    draws = rng.choice(vertices, size=(2 * count + 64, 2))
    draws = draws[draws[:, 0] != draws[:, 1]]
    _, first = np.unique(draws, axis=0, return_index=True)
    pairs = draws[np.sort(first)][:count]
    if len(pairs) < count:
        raise RuntimeError("not enough distinct query pairs")
    return pairs.astype(np.int64)


def _zipf_targets(rng, depots: np.ndarray, count: int) -> np.ndarray:
    """Targets drawn Zipf(1) over the depots: rank k has weight 1/k."""
    weights = 1.0 / np.arange(1, len(depots) + 1)
    return depots[rng.choice(len(depots), size=count, p=weights / weights.sum())]


def make_inputs(workload: str, seed: int, out_dir: str) -> None:
    """Write ``graph.npz`` and ``queries.npz`` for one workload and seed."""
    from repro.graphs import largest_component, road_graph, social_graph
    from repro.graphs.io import save_npz

    if workload in ("road-p2p", "service-bursts"):
        graph = road_graph(*ROAD_SHAPE, seed=MAP_SEED)
    elif workload == "social-p2p":
        graph = social_graph(SOCIAL_N, seed=MAP_SEED)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    lcc = largest_component(graph)
    os.makedirs(out_dir, exist_ok=True)
    save_npz(os.path.join(out_dir, "graph.npz"), graph)

    if workload == "service-bursts":
        depots = np.random.default_rng(MAP_SEED).choice(lcc, DEPOTS, replace=False)

        def traffic(rng):
            total = (MAX_BURSTS + 1) * BURST_SIZE
            sources = rng.choice(lcc, size=total)
            targets = _zipf_targets(rng, depots, total)
            return np.column_stack([sources, targets]).reshape(MAX_BURSTS + 1, BURST_SIZE, 2)

        np.savez(
            os.path.join(out_dir, "queries.npz"),
            warmup=traffic(np.random.default_rng([MAP_SEED, 12]))[0],
            bursts=traffic(np.random.default_rng([seed, 12]))[1:],
            interval_s=np.float64(BURST_INTERVAL_S),
        )
        return

    def traffic(rng):
        return _distinct_pairs(rng, lcc, WARMUP_QUERIES + STREAM_QUERIES)

    np.savez(
        os.path.join(out_dir, "queries.npz"),
        warmup=traffic(np.random.default_rng([MAP_SEED, 12]))[:WARMUP_QUERIES],
        stream=traffic(np.random.default_rng([seed, 12]))[WARMUP_QUERIES:],
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    make_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
