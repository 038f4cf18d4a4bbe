"""Figure 1 — search-space shapes of the four PPSP algorithms.

The paper's opening figure illustrates *where* each algorithm searches:
ET floods a ball around the source until the target settles; BiDS grows
two half-radius balls; A* sweeps an ellipse toward the target; BiD-A*
squeezes both searches toward the bisector.  This module reproduces the
figure measurably: run each algorithm on a road grid, mark every vertex
whose tentative distance became finite, and render the touched set as
an ASCII map over the vertex coordinates (plus the touched-count table,
which is the figure's quantitative content).

Run: ``python -m repro.experiments.fig1 [--size 40]``
"""

from __future__ import annotations

import argparse

import numpy as np

from ..core.engine import run_policy
from ..core.policies import AStar, BiDAStar, BiDS, EarlyTermination, SsspPolicy
from ..graphs.road import road_graph
from ..kernels.calibrate import calibrate_delta
from .harness import render_table, save_results

__all__ = ["touched_sets", "render_map", "main", "ALGORITHMS"]

ALGORITHMS = ("sssp", "et", "bids", "astar", "bidastar")


def touched_sets(graph, s: int, t: int, *, delta: float | None = None) -> dict[str, np.ndarray]:
    """Boolean touched-vertex mask per algorithm for one s-t query."""
    from ..core.stepping import DeltaStepping

    if delta is None:
        delta = calibrate_delta(graph)
    policies = {
        "sssp": SsspPolicy(s),
        "et": EarlyTermination(s, t),
        "bids": BiDS(s, t),
        "astar": AStar(s, t),
        "bidastar": BiDAStar(s, t),
    }
    out: dict[str, np.ndarray] = {}
    answers = {}
    for name, policy in policies.items():
        res = run_policy(graph, policy, strategy=DeltaStepping(delta))
        touched = np.isfinite(res.dist).any(axis=0)
        out[name] = touched
        answers[name] = res.answer[t] if name == "sssp" else res.answer
    ref = answers["sssp"]
    for name, val in answers.items():
        if not np.isclose(val, ref, rtol=1e-9, atol=1e-9):
            raise AssertionError(f"{name}: {val} != {ref}")
    return out


def render_map(
    graph, touched: np.ndarray, s: int, t: int, *, width: int = 60, height: int = 24
) -> str:
    """Project touched vertices onto a character grid by coordinates."""
    coords = graph.coords
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    cols = np.clip(((coords[:, 0] - lo[0]) / span[0] * (width - 1)).astype(int), 0, width - 1)
    rows = np.clip(((coords[:, 1] - lo[1]) / span[1] * (height - 1)).astype(int), 0, height - 1)
    grid = [[" "] * width for _ in range(height)]
    for v in np.flatnonzero(touched):
        grid[height - 1 - rows[v]][cols[v]] = "."
    for v, mark in ((s, "S"), (t, "T")):
        grid[height - 1 - rows[v]][cols[v]] = mark
    return "\n".join("".join(r) for r in grid)


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=40, help="road grid side length")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--maps", action="store_true", help="print the ASCII maps")
    # Accept --scale for run_all compatibility; grid size is the real knob.
    parser.add_argument("--scale", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    graph = road_graph(args.size, args.size, seed=args.seed)
    n = graph.num_vertices
    # A mid-distance pair across the map, like the paper's illustration.
    s = args.size // 4 * args.size + args.size // 4
    t = (3 * args.size // 4) * args.size + 3 * args.size // 4
    touched = touched_sets(graph, s, t)

    counts = {name: int(mask.sum()) for name, mask in touched.items()}
    cells = {
        (name, "touched"): f"{counts[name]:,}" for name in ALGORITHMS
    }
    for name in ALGORITHMS:
        cells[(name, "% of graph")] = 100.0 * counts[name] / n
    print(render_table(
        f"Fig. 1: vertices touched answering one query on a {args.size}x{args.size} road grid",
        list(ALGORITHMS),
        ["touched", "% of graph"],
        cells,
        fmt="{:.1f}",
    ))
    if args.maps:
        for name in ALGORITHMS:
            print(f"\n[{name}] search space ('.' = touched):")
            print(render_map(graph, touched[name], s, t))
    save_results("fig1", {"counts": counts, "n": n, "query": (s, t)})
    return {"touched": touched, "counts": counts}


if __name__ == "__main__":
    main()
