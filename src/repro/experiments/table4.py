"""Table 4 — single-PPSP running times across the whole suite.

For each graph and each distance percentile (1st / 50th / 99th), times
our SSSP / ET / BiDS / A* / BiD-A* and the GraphIt- and MBQ-style
baselines on the same query pairs, and reports per-graph times plus the
paper's two geometric-mean columns ("Heur." = road+k-NN graphs, "All").

Run: ``python -m repro.experiments.table4 [--scale small] [--pairs 5]``
"""

from __future__ import annotations

import argparse

import numpy as np

from ..analysis.percentiles import sample_query_pairs
from ..kernels.calibrate import calibrate_delta
from .harness import (
    BASELINE_METHODS,
    HEURISTIC_METHODS,
    OUR_METHODS,
    geomean_or_none,
    render_table,
    run_single_query,
    save_results,
)
from .suite import SUITE, build_suite

__all__ = ["collect", "main", "PERCENTILES", "ALL_METHODS"]

PERCENTILES = (1.0, 50.0, 99.0)
ALL_METHODS = OUR_METHODS + BASELINE_METHODS


def collect(
    scale: str = "small",
    *,
    percentiles=PERCENTILES,
    num_pairs: int = 5,
    repeats: int = 1,
    methods=ALL_METHODS,
    seed: int = 42,
) -> dict:
    """times[percentile][method][graph] = geometric-mean seconds.

    Also validates every method's answer against our SSSP's on each pair
    (a built-in correctness audit of the whole table).
    """
    times: dict[float, dict[str, dict[str, float]]] = {
        p: {m: {} for m in methods} for p in percentiles
    }
    mismatches: list[str] = []
    for spec, g in build_suite(scale):
        delta = calibrate_delta(g)
        for p in percentiles:
            pairs = sample_query_pairs(g, p, num_pairs=num_pairs, seed=seed)
            per_method: dict[str, list[float]] = {m: [] for m in methods}
            answers: dict[tuple[int, int], float] = {}
            for s, t in pairs:
                for m in methods:
                    if m in HEURISTIC_METHODS and not g.has_coords():
                        continue
                    timing = run_single_query(g, m, s, t, delta=delta, repeats=repeats)
                    per_method[m].append(timing.seconds)
                    ref = answers.setdefault((s, t), timing.answer)
                    if not np.isclose(timing.answer, ref, rtol=1e-6, atol=1e-6):
                        mismatches.append(
                            f"{spec.name} p{p} {m} ({s},{t}): {timing.answer} != {ref}"
                        )
            for m in methods:
                if per_method[m]:
                    times[p][m][spec.name] = geomean_or_none(per_method[m])
    return {"times": times, "mismatches": mismatches}


_ROW_LABEL = {
    "sssp": "SSSP",
    "et": "Ours-ET",
    "bids": "Ours-BiDS",
    "astar": "Ours-A*",
    "bidastar": "Ours-BiD-A*",
    "gi-et": "GI-ET",
    "gi-astar": "GI-A*",
    "mbq-et": "MBQ-ET",
    "mbq-astar": "MBQ-A*",
}

_HEUR_GRAPHS = [s.name for s in SUITE if s.category in ("road", "knn")]
_ALL_GRAPHS = [s.name for s in SUITE]


def summarize(times: dict) -> dict:
    """Add the paper's MEAN columns (Heur. and All geometric means)."""
    out: dict = {}
    for p, by_method in times.items():
        out[p] = {}
        for m, by_graph in by_method.items():
            heur = [by_graph[g] for g in _HEUR_GRAPHS if g in by_graph]
            allg = [by_graph[g] for g in _ALL_GRAPHS if g in by_graph]
            out[p][m] = {
                "heur_mean": geomean_or_none(heur),
                "all_mean": geomean_or_none(allg) if len(allg) == len(_ALL_GRAPHS) else None,
            }
    return out


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--skip-baselines", action="store_true")
    args = parser.parse_args(argv)

    methods = OUR_METHODS if args.skip_baselines else ALL_METHODS
    data = collect(
        args.scale, num_pairs=args.pairs, repeats=args.repeats, methods=methods
    )
    times = data["times"]
    means = summarize(times)

    cols = _ALL_GRAPHS + ["Heur.", "ALL"]
    for p in times:
        cells: dict[tuple[str, str], object] = {}
        rows = [_ROW_LABEL[m] for m in methods]
        for m in methods:
            for gname, v in times[p][m].items():
                cells[(_ROW_LABEL[m], gname)] = v
            hm = means[p][m]["heur_mean"]
            am = means[p][m]["all_mean"]
            cells[(_ROW_LABEL[m], "Heur.")] = hm if hm else "-"
            cells[(_ROW_LABEL[m], "ALL")] = am if am else "-"
        print(render_table(f"Table 4, {int(p)}-th percentile (seconds)", rows, cols, cells))
        print()
    if data["mismatches"]:
        print("ANSWER MISMATCHES:")
        for line in data["mismatches"]:
            print(" ", line)
    save_results(f"table4_{args.scale}", {"times": times, "means": means,
                                          "mismatches": data["mismatches"]})
    return data


if __name__ == "__main__":
    main()
