"""Figure 5 / Figure 9 — self-relative speedups on the simulated machine.

For each graph and algorithm, runs a 50th-percentile query once,
collects its per-step work profile, and evaluates the Brent-bound
simulated running time at 1..192 processors (the paper's hardware is
96 cores / 192 hyperthreads).  The paper's observation to reproduce:
*plainer algorithms scale better* — pruning removes work per step but
not steps, so SSSP > ET > BiDS in speedup.

Run: ``python -m repro.experiments.fig5 [--scale small] [--all]``
"""

from __future__ import annotations

import argparse

from ..analysis.percentiles import sample_query_pairs
from ..kernels.calibrate import calibrate_delta
from ..parallel.cost_model import speedup_curve
from .harness import (
    HEURISTIC_METHODS,
    OUR_METHODS,
    render_table,
    run_single_query,
    save_results,
)
from .suite import build_graph, build_suite
from .fig4 import REPRESENTATIVES

__all__ = ["collect", "main", "PROCESSOR_COUNTS"]

PROCESSOR_COUNTS = (1, 2, 4, 8, 16, 32, 48, 96, 192)


def collect(
    graph,
    *,
    methods=OUR_METHODS,
    percentile: float = 50.0,
    seed: int = 11,
    processor_counts=PROCESSOR_COUNTS,
) -> dict:
    """curves[method] = {processors: speedup} for one graph."""
    delta = calibrate_delta(graph)
    (s, t) = sample_query_pairs(graph, percentile, num_pairs=1, seed=seed)[0]
    curves: dict[str, dict[int, float]] = {}
    for m in methods:
        if m in HEURISTIC_METHODS and not graph.has_coords():
            continue
        timing = run_single_query(graph, m, s, t, delta=delta)
        curves[m] = speedup_curve(timing.meter, list(processor_counts))
    return {"query": (s, t), "curves": curves}


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--all", action="store_true", help="all graphs (Fig. 9)")
    parser.add_argument("--plot", action="store_true", help="ASCII charts")
    args = parser.parse_args(argv)

    if args.all:
        graphs = [(spec.name, g) for spec, g in build_suite(args.scale)]
    else:
        graphs = [(name, build_graph(name, args.scale)) for name in REPRESENTATIVES]

    results: dict[str, dict] = {}
    for name, g in graphs:
        data = collect(g)
        results[name] = data
        cols = [str(p) for p in PROCESSOR_COUNTS]
        cells = {
            (m, str(p)): v for m, curve in data["curves"].items() for p, v in curve.items()
        }
        print(render_table(
            f"Fig. 5 ({name}): simulated self-relative speedup vs processors",
            list(data["curves"].keys()),
            cols,
            cells,
            fmt="{:.1f}",
        ))
        if args.plot:
            from ..analysis.plotting import ascii_line_chart

            series = {
                m: [(float(p), v) for p, v in curve.items()]
                for m, curve in data["curves"].items()
            }
            print()
            print(ascii_line_chart(
                series,
                title=f"Fig. 5 ({name}) — speedup vs processors",
                x_label="processors",
                y_label="x",
            ))
        print()
    save_results(f"fig5_{args.scale}{'_all' if args.all else ''}", results)
    return results


if __name__ == "__main__":
    main()
