"""Figure 6 / Figure 10 — the A* memoization ablation (paper Sec. 5).

Times A* and BiD-A* with and without heuristic memoization on the road
and k-NN graphs (50th-percentile queries, as in Tab. 4's middle block)
and reports performance *relative to ET* — the paper's normalization,
where ET = 1 and higher is better.  Expected shapes: without memoization
A*/BiD-A* can fall below ET; with it they exceed ET; the gain is larger
on road graphs whose spherical heuristic is costlier than the k-NN
Euclidean one.

Run: ``python -m repro.experiments.fig6 [--scale small]``
"""

from __future__ import annotations

import argparse

from ..analysis.percentiles import sample_query_pairs
from ..analysis.stats import geometric_mean
from ..kernels.calibrate import calibrate_delta
from .harness import render_table, run_single_query, save_results
from .suite import graphs_with_coords

__all__ = ["collect", "main", "VARIANTS"]

VARIANTS = ("astar", "astar+memo", "bidastar", "bidastar+memo")


def collect(
    scale: str = "small",
    *,
    percentile: float = 50.0,
    num_pairs: int = 3,
    repeats: int = 1,
    seed: int = 5,
) -> dict:
    """relative[graph][variant] = t_ET / t_variant (higher is better)."""
    relative: dict[str, dict[str, float]] = {}
    categories: dict[str, str] = {}
    for spec, g in graphs_with_coords(scale):
        delta = calibrate_delta(g)
        pairs = sample_query_pairs(g, percentile, num_pairs=num_pairs, seed=seed)
        sums: dict[str, float] = {v: 0.0 for v in ("et",) + VARIANTS}
        for s, t in pairs:
            sums["et"] += run_single_query(g, "et", s, t, delta=delta, repeats=repeats).seconds
            for base in ("astar", "bidastar"):
                for memo in (False, True):
                    key = base + ("+memo" if memo else "")
                    sums[key] += run_single_query(
                        g, base, s, t, delta=delta, memoize=memo, repeats=repeats
                    ).seconds
        relative[spec.name] = {v: sums["et"] / sums[v] for v in VARIANTS}
        categories[spec.name] = spec.category
    return {"relative": relative, "categories": categories}


def category_means(data: dict) -> dict[str, dict[str, float]]:
    """Geometric-mean relative performance per category (the Fig. 6 bars)."""
    out: dict[str, dict[str, float]] = {}
    for cat in ("road", "knn"):
        graphs = [g for g, c in data["categories"].items() if c == cat]
        out[cat] = {
            v: geometric_mean([data["relative"][g][v] for g in graphs]) for v in VARIANTS
        }
    return out


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)

    data = collect(args.scale, num_pairs=args.pairs, repeats=args.repeats)
    rows = list(data["relative"].keys()) + ["road mean", "knn mean"]
    means = category_means(data)
    cells: dict[tuple[str, str], float] = {}
    for gname, vals in data["relative"].items():
        for v, x in vals.items():
            cells[(gname, v)] = x
    for cat in ("road", "knn"):
        for v, x in means[cat].items():
            cells[(f"{cat} mean", v)] = x
    print(render_table(
        "Fig. 6: performance relative to ET (higher is better; ET = 1.0)",
        rows,
        list(VARIANTS),
        cells,
        fmt="{:.2f}",
    ))
    save_results(f"fig6_{args.scale}", {"relative": data["relative"], "means": means})
    return data


if __name__ == "__main__":
    main()
