"""Extension experiment — the SSMT crossover (Sec. 1 / Sec. 4.3 claim).

The paper: "the SSMT query with a small number of targets may still
benefit from running BiDS from all vertices, but when the target set T
becomes larger, one SSSP query from the source may give the best
performance ... even with five targets in an SSMT query, running SSSP
on the source may outperform other highly optimized solutions."

This experiment sweeps the number of SSMT targets and reports, per
graph, the simulated-machine time of Multi-BiDS vs one SSSP from the
source — locating the crossover target count the paper talks about.

Run: ``python -m repro.experiments.ext_ssmt [--scale small]``
"""

from __future__ import annotations

import argparse

import numpy as np

from ..core.batch import solve_batch
from ..core.query_graph import QueryGraph
from ..core.stepping import DeltaStepping
from ..graphs.connectivity import largest_component
from ..kernels.calibrate import calibrate_delta
from .harness import render_table, save_results
from .suite import build_suite

__all__ = ["collect", "main", "TARGET_COUNTS"]

TARGET_COUNTS = (1, 2, 3, 5, 8, 12)


def collect(
    scale: str = "small",
    *,
    target_counts=TARGET_COUNTS,
    processors: int = 96,
    seed: int = 37,
) -> dict:
    """ratio[graph][k] = T(multi) / T(one SSSP) at k targets (< 1: BiDS wins)."""
    out: dict[str, dict] = {}
    for spec, g in build_suite(scale):
        delta = calibrate_delta(g)
        rng = np.random.default_rng(seed)
        lcc = largest_component(g)
        picks = rng.choice(lcc, size=max(target_counts) + 1, replace=False)
        source = int(picks[0])
        ratios: dict[int, float] = {}
        crossover = None
        for k in target_counts:
            targets = [int(v) for v in picks[1 : k + 1]]
            qg = QueryGraph.star(source, targets)
            multi = solve_batch(g, qg, method="multi", strategy=DeltaStepping(delta))
            sssp = solve_batch(g, qg, method="sssp-plain", strategy=DeltaStepping(delta))
            for key, val in multi.distances.items():
                ref = sssp.distance(*key)
                if not np.isclose(val, ref, rtol=1e-9, atol=1e-9):
                    raise AssertionError(f"{spec.name} k={k} {key}: {val} != {ref}")
            ratio = multi.meter.simulated_time(processors) / sssp.meter.simulated_time(
                processors
            )
            ratios[k] = ratio
            if crossover is None and ratio > 1.0:
                crossover = k
        out[spec.name] = {
            "category": spec.category,
            "ratios": ratios,
            "crossover_targets": crossover,
        }
    return out


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    args = parser.parse_args(argv)

    data = collect(args.scale)
    cols = [str(k) for k in TARGET_COUNTS] + ["crossover"]
    cells: dict[tuple[str, str], object] = {}
    for gname, row in data.items():
        for k, r in row["ratios"].items():
            cells[(gname, str(k))] = r
        cells[(gname, "crossover")] = (
            str(row["crossover_targets"]) if row["crossover_targets"] else ">12"
        )
    print(render_table(
        "SSMT: T(Multi-BiDS) / T(one SSSP) vs #targets (<1 means BiDS wins)",
        list(data.keys()),
        cols,
        cells,
        fmt="{:.2f}",
    ))
    save_results(f"ext_ssmt_{args.scale}", data)
    return data


if __name__ == "__main__":
    main()
