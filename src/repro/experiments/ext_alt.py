"""Extension experiment — ALT landmarks on coordinate-free graphs.

The paper's A* rows are blank for social/web graphs (no coordinates).
This extension fills them with ALT landmark heuristics: after
preprocessing (k SSSPs), A* and BiD-A* run on any undirected graph.
The experiment reports, per social/web graph, the relaxation work of
ET / BiDS / ALT-A* / ALT-BiD-A* at the three distance percentiles, plus
the preprocessing cost, quantifying the preprocessing-vs-query tradeoff
the paper's Sec. 7 discusses.

Run: ``python -m repro.experiments.ext_alt [--scale small] [--landmarks 8]``
"""

from __future__ import annotations

import argparse
import time

from ..analysis.percentiles import sample_query_pairs
from ..core.engine import run_policy
from ..core.policies import AStar, BiDAStar, BiDS, EarlyTermination
from ..core.stepping import DeltaStepping
from ..heuristics.landmarks import LandmarkSet
from ..kernels.calibrate import calibrate_delta
from .harness import render_table, save_results
from .suite import build_suite

__all__ = ["collect", "main"]

ALGOS = ("et", "bids", "alt-astar", "alt-bidastar")


def collect(
    scale: str = "small",
    *,
    num_landmarks: int = 8,
    percentiles=(1.0, 50.0, 99.0),
    num_pairs: int = 3,
    seed: int = 17,
) -> dict:
    """work[graph][percentile][algo] = mean edge relaxations per query."""
    out: dict[str, dict] = {}
    for spec, g in build_suite(scale, categories=("social", "web")):
        delta = calibrate_delta(g)
        t0 = time.perf_counter()
        landmarks = LandmarkSet(g, k=num_landmarks)
        preprocess_seconds = time.perf_counter() - t0
        rows: dict[float, dict[str, float]] = {}
        for p in percentiles:
            pairs = sample_query_pairs(g, p, num_pairs=num_pairs, seed=seed)
            acc = {a: 0 for a in ALGOS}
            for s, t in pairs:
                policies = {
                    "et": EarlyTermination(s, t),
                    "bids": BiDS(s, t),
                    "alt-astar": AStar(s, t, heuristic=landmarks.heuristic_to(t)),
                    "alt-bidastar": BiDAStar(
                        s,
                        t,
                        heuristic_to_source=landmarks.heuristic_to(s),
                        heuristic_to_target=landmarks.heuristic_to(t),
                    ),
                }
                answers = {}
                for a, pol in policies.items():
                    res = run_policy(g, pol, strategy=DeltaStepping(delta))
                    acc[a] += res.relaxations
                    answers[a] = res.answer
                ref = answers["et"]
                for a, v in answers.items():
                    if abs(v - ref) > 1e-6 * max(abs(ref), 1.0):
                        raise AssertionError(f"{spec.name} {a}: {v} != {ref}")
            rows[p] = {a: acc[a] / num_pairs for a in ALGOS}
        out[spec.name] = {
            "work": rows,
            "preprocess_seconds": preprocess_seconds,
            "landmarks": num_landmarks,
        }
    return out


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=("tiny", "small", "medium"))
    parser.add_argument("--landmarks", type=int, default=8)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args(argv)

    data = collect(args.scale, num_landmarks=args.landmarks, num_pairs=args.pairs)
    for p in (1.0, 50.0, 99.0):
        cells = {
            (gname, a): row["work"][p][a]
            for gname, row in data.items()
            for a in ALGOS
        }
        print(render_table(
            f"ALT extension, {int(p)}-th percentile (mean edge relaxations/query)",
            list(data.keys()),
            list(ALGOS),
            cells,
            fmt="{:.0f}",
        ))
        print()
    print("preprocessing seconds:",
          {g: round(r["preprocess_seconds"], 3) for g, r in data.items()})
    save_results(f"ext_alt_{args.scale}", data)
    return data


if __name__ == "__main__":
    main()
