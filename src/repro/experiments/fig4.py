"""Figure 4 / Figure 8 — running time vs. distance percentile.

For each graph: pick a random source in the LCC, select targets at
doubling distance ranks (10th closest, 20th, 40th, ... farthest), and
time every algorithm per target.  Fig. 4 uses one representative graph
per category; ``--all`` produces the Fig. 8 version over the full suite.

Run: ``python -m repro.experiments.fig4 [--scale small] [--all]``
"""

from __future__ import annotations

import argparse

import numpy as np

from ..analysis.percentiles import doubling_rank_targets
from ..graphs.connectivity import largest_component
from ..kernels.calibrate import calibrate_delta
from .harness import (
    HEURISTIC_METHODS,
    OUR_METHODS,
    render_table,
    run_single_query,
    save_results,
)
from .suite import build_graph, build_suite

__all__ = ["collect", "main", "REPRESENTATIVES"]

#: One representative per category, as in the paper's Fig. 4.
REPRESENTATIVES = ("OK", "IT", "NA", "GL5")


def collect(
    graph,
    *,
    methods=OUR_METHODS,
    seed: int = 7,
    repeats: int = 1,
) -> dict:
    """series[method] = list of (percentile, seconds) for one graph."""
    rng = np.random.default_rng(seed)
    lcc = largest_component(graph)
    source = int(rng.choice(lcc))
    targets = doubling_rank_targets(graph, source)
    delta = calibrate_delta(graph)
    series: dict[str, list[tuple[float, float]]] = {m: [] for m in methods}
    for target, percentile in targets:
        for m in methods:
            if m in HEURISTIC_METHODS and not graph.has_coords():
                continue
            timing = run_single_query(graph, m, source, target, delta=delta, repeats=repeats)
            series[m].append((percentile, timing.seconds))
    return {"source": source, "series": {m: v for m, v in series.items() if v}}


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--all", action="store_true", help="all graphs (Fig. 8)")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--plot", action="store_true", help="ASCII charts")
    args = parser.parse_args(argv)

    if args.all:
        graphs = [(spec.name, g) for spec, g in build_suite(args.scale)]
    else:
        graphs = [(name, build_graph(name, args.scale)) for name in REPRESENTATIVES]

    results: dict[str, dict] = {}
    for name, g in graphs:
        data = collect(g, repeats=args.repeats)
        results[name] = data
        percentiles = [f"{p:.2f}%" for p, _ in next(iter(data["series"].values()))]
        cells = {
            (m, percentiles[i]): t
            for m, pts in data["series"].items()
            for i, (_, t) in enumerate(pts)
        }
        print(render_table(
            f"Fig. 4 ({name}): seconds vs distance percentile",
            list(data["series"].keys()),
            percentiles,
            cells,
        ))
        if args.plot:
            from ..analysis.plotting import ascii_line_chart

            print()
            print(ascii_line_chart(
                data["series"],
                title=f"Fig. 4 ({name}) — log time vs percentile",
                log_y=True,
                x_label="distance percentile",
                y_label="sec",
            ))
        print()
    save_results(f"fig4_{args.scale}{'_all' if args.all else ''}", results)
    return results


if __name__ == "__main__":
    main()
