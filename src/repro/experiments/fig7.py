"""Figure 7 — batch PPSP heatmap over query-graph patterns.

For every graph and each of the paper's eight query-graph patterns
(separate / chain / star / fork / diamond / bipartite / random /
clique, all over six query vertices), runs the five batch strategies —

* Multi-BiDS, Plain-BiDS (one at a time), Plain*-BiDS (simultaneous),
* SSSP from a vertex cover (VC), SSSP from all sources (Plain),

and reports each strategy's time normalized to the fastest on that
(graph, pattern) cell, exactly the paper's heatmap.  Times are the
simulated 96-processor machine times derived from measured work/depth:
the Plain-vs-Plain* distinction is purely about overlapping independent
queries on the parallel machine, which wall-clock on one Python core
cannot express (see DESIGN.md).

Run: ``python -m repro.experiments.fig7 [--scale small]``
"""

from __future__ import annotations

import argparse

import numpy as np

from ..analysis.stats import geometric_mean, normalize_to_best
from ..core.batch import solve_batch
from ..core.query_graph import PATTERNS
from ..core.stepping import DeltaStepping
from ..graphs.connectivity import largest_component
from ..kernels.calibrate import calibrate_delta
from .harness import render_table, save_results
from .suite import build_suite

__all__ = ["collect", "main", "METHOD_LABELS", "PROCESSORS"]

METHOD_LABELS = {
    "multi": "Multi",
    "plain-bids": "Plain",
    "plain-star-bids": "Plain*",
    "sssp-vc": "VC",
    "sssp-plain": "PlainSSSP",
}
PROCESSORS = 96


def collect(
    scale: str = "small",
    *,
    num_sources: int = 6,
    seed: int = 13,
    processors: int = PROCESSORS,
    patterns=tuple(PATTERNS),
) -> dict:
    """normalized[pattern][graph][method] = time / fastest-on-cell."""
    normalized: dict[str, dict[str, dict[str, float]]] = {p: {} for p in patterns}
    raw: dict[str, dict[str, dict[str, float]]] = {p: {} for p in patterns}
    for spec, g in build_suite(scale):
        delta = calibrate_delta(g)
        rng = np.random.default_rng(seed)
        lcc = largest_component(g)
        verts = rng.choice(lcc, size=num_sources, replace=False).tolist()
        for pattern in patterns:
            qg = PATTERNS[pattern](verts)
            times: dict[str, float] = {}
            answers: dict[str, dict] = {}
            for method in METHOD_LABELS:
                res = solve_batch(g, qg, method=method, strategy=DeltaStepping(delta))
                times[METHOD_LABELS[method]] = res.meter.simulated_time(processors)
                answers[method] = res.distances
            # All strategies must agree (a built-in audit).
            ref = answers["multi"]
            for method, dists in answers.items():
                for key, val in dists.items():
                    want = ref.get(key, ref.get((key[1], key[0])))
                    if not np.isclose(val, want, rtol=1e-6, atol=1e-6):
                        raise AssertionError(
                            f"{spec.name}/{pattern}/{method}: {key} -> {val} != {want}"
                        )
            raw[pattern][spec.name] = times
            normalized[pattern][spec.name] = normalize_to_best(times)
    return {"normalized": normalized, "raw": raw, "processors": processors}


def geomean_rows(normalized: dict) -> dict[str, dict[str, float]]:
    """The paper's GEOMEAN row: per pattern, mean over graphs per method."""
    out: dict[str, dict[str, float]] = {}
    for pattern, by_graph in normalized.items():
        methods = next(iter(by_graph.values())).keys()
        out[pattern] = {
            m: geometric_mean([by_graph[g][m] for g in by_graph]) for m in methods
        }
    return out


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--sources", type=int, default=6)
    parser.add_argument("--plot", action="store_true", help="ASCII heatmaps")
    args = parser.parse_args(argv)

    data = collect(args.scale, num_sources=args.sources)
    means = geomean_rows(data["normalized"])
    cols = list(METHOD_LABELS.values())
    for pattern, by_graph in data["normalized"].items():
        rows = list(by_graph.keys()) + ["GEOMEAN"]
        cells: dict[tuple[str, str], float] = {}
        for gname, vals in by_graph.items():
            for m, x in vals.items():
                cells[(gname, m)] = x
        for m, x in means[pattern].items():
            cells[("GEOMEAN", m)] = x
        if args.plot:
            from ..analysis.plotting import ascii_heatmap

            print(ascii_heatmap(
                rows,
                cols,
                cells,
                title=f"Fig. 7 ({pattern}): normalized time (dark = slow)",
                lo=1.0,
                hi=4.0,
            ))
        else:
            print(render_table(
                f"Fig. 7 ({pattern}): time normalized to fastest (lower is better)",
                rows,
                cols,
                cells,
                fmt="{:.2f}",
            ))
        print()
    save_results(f"fig7_{args.scale}", {"normalized": data["normalized"], "geomeans": means})
    return data


if __name__ == "__main__":
    main()
