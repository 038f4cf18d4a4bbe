r"""Extension experiment — stepping-strategy comparison (Sec. 6.1 context).

Orionet "also supports ρ-stepping and Bellman-Ford, and can easily be
integrated with other SSSP algorithms"; the paper picks Δ\*-stepping
"because it has the best performance on large-diameter graphs".  This
experiment runs the same BiDS queries under all four GetDist plug-ins
(Δ\*-stepping, ρ-stepping, Bellman-Ford, Dijkstra order) and reports
wall time, rounds, and relaxation work per graph, making the choice the
paper asserts reproducible.

Expected shape: Bellman-Ford minimizes rounds but wastes relaxations on
premature distances (worst on large-diameter road graphs); Dijkstra
order minimizes relaxations but needs the most rounds; Δ\*/ρ sit on the
sweet spot, with Δ\* ahead where the diameter is large.

Run: ``python -m repro.experiments.ext_strategies [--scale small]``
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ..analysis.percentiles import sample_query_pairs
from ..core.engine import run_policy
from ..core.policies import BiDS
from ..core.stepping import BellmanFord, DeltaStepping, DijkstraOrder, RhoStepping
from ..kernels.calibrate import calibrate_delta
from .harness import render_table, save_results
from .suite import build_suite

__all__ = ["collect", "main", "STRATEGIES"]

STRATEGIES = ("delta", "rho", "bellman-ford", "dijkstra")


def _make(name: str, delta: float):
    if name == "delta":
        return DeltaStepping(delta)
    if name == "rho":
        return RhoStepping(2048)
    if name == "bellman-ford":
        return BellmanFord()
    return DijkstraOrder()


def collect(
    scale: str = "small",
    *,
    percentile: float = 50.0,
    num_pairs: int = 3,
    seed: int = 29,
) -> dict:
    """stats[graph][strategy] = {seconds, steps, relaxations}."""
    out: dict[str, dict] = {}
    for spec, g in build_suite(scale):
        delta = calibrate_delta(g)
        pairs = sample_query_pairs(g, percentile, num_pairs=num_pairs, seed=seed)
        per: dict[str, dict[str, float]] = {
            s: {"seconds": 0.0, "steps": 0, "relaxations": 0} for s in STRATEGIES
        }
        for s_v, t_v in pairs:
            answers = {}
            for strat in STRATEGIES:
                t0 = time.perf_counter()
                res = run_policy(g, BiDS(s_v, t_v), strategy=_make(strat, delta))
                per[strat]["seconds"] += time.perf_counter() - t0
                per[strat]["steps"] += res.steps
                per[strat]["relaxations"] += res.relaxations
                answers[strat] = res.answer
            ref = answers["delta"]
            for strat, val in answers.items():
                if not np.isclose(val, ref, rtol=1e-9, atol=1e-9):
                    raise AssertionError(f"{spec.name}/{strat}: {val} != {ref}")
        for strat in STRATEGIES:
            for k in per[strat]:
                per[strat][k] /= num_pairs
        out[spec.name] = {"category": spec.category, "strategies": per}
    return out


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args(argv)

    data = collect(args.scale, num_pairs=args.pairs)
    for metric, fmt in (("seconds", "{:.4f}"), ("steps", "{:.0f}"), ("relaxations", "{:.0f}")):
        cells = {
            (gname, strat): row["strategies"][strat][metric]
            for gname, row in data.items()
            for strat in STRATEGIES
        }
        print(render_table(
            f"BiDS under each stepping strategy — mean {metric}/query",
            list(data.keys()),
            list(STRATEGIES),
            cells,
            fmt=fmt,
        ))
        print()
    save_results(f"ext_strategies_{args.scale}", data)
    return data


if __name__ == "__main__":
    main()
