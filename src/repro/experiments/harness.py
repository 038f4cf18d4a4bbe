"""Shared experiment machinery: timed runs, table rendering.

Everything the per-table/figure experiment modules have in common lives
here so each experiment reads like its description in the paper:
pick graphs, pick query pairs at controlled percentiles, time the
algorithms, aggregate with geometric means.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

import numpy as np

from ..analysis.stats import geometric_mean
from ..baselines.graphit import graphit_ppsp
from ..baselines.mbq import mbq_ppsp
from ..core.engine import run_policy
from ..core.policies import AStar, BiDAStar, BiDS, EarlyTermination, SsspPolicy
from ..core.stepping import DeltaStepping
from ..kernels.calibrate import calibrate_delta
from ..parallel.cost_model import WorkDepthMeter

__all__ = [
    "timed",
    "run_single_query",
    "Timing",
    "OUR_METHODS",
    "BASELINE_METHODS",
    "HEURISTIC_METHODS",
    "render_table",
    "results_dir",
    "save_results",
]

OUR_METHODS = ("sssp", "et", "bids", "astar", "bidastar")
BASELINE_METHODS = ("gi-et", "gi-astar", "mbq-et", "mbq-astar")
#: methods that need coordinates (excluded on social/web graphs).
HEURISTIC_METHODS = {"astar", "bidastar", "gi-astar", "mbq-astar"}


@dataclass
class Timing:
    """One timed query: wall seconds, answer, and the work/depth meter."""

    seconds: float
    answer: float
    meter: WorkDepthMeter | None


def timed(fn, *, repeats: int = 1, warmup: int = 0) -> tuple[float, object]:
    """Best-effort paper timing: mean of ``repeats`` after ``warmup``."""
    for _ in range(warmup):
        fn()
    times = []
    out = None
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return float(np.mean(times)), out


def run_single_query(
    graph,
    method: str,
    s: int,
    t: int,
    *,
    delta: float | None = None,
    memoize: bool = True,
    repeats: int = 1,
    warmup: int = 0,
) -> Timing:
    """Time one PPSP query with any of ours or the baselines.

    Every engine-based method gets a fresh Δ*-stepping strategy with the
    graph-tuned Δ so comparisons isolate the algorithm, not the tuning.
    """
    if delta is None:
        delta = calibrate_delta(graph)

    if method in OUR_METHODS:
        def make_policy():
            if method == "sssp":
                return SsspPolicy(s)
            if method == "et":
                return EarlyTermination(s, t)
            if method == "bids":
                return BiDS(s, t)
            if method == "astar":
                return AStar(s, t, memoize=memoize)
            return BiDAStar(s, t, memoize=memoize)

        holder: dict[str, object] = {}

        def call():
            res = run_policy(graph, make_policy(), strategy=DeltaStepping(delta))
            holder["res"] = res
            return res

        seconds, _ = timed(call, repeats=repeats, warmup=warmup)
        res = holder["res"]
        answer = float(res.answer[t]) if method == "sssp" else float(res.answer)
        return Timing(seconds=seconds, answer=answer, meter=res.meter)

    if method in ("gi-et", "gi-astar"):
        holder = {}

        def call_gi():
            m = WorkDepthMeter()
            ans = graphit_ppsp(
                graph, s, t, delta=delta, use_astar=method == "gi-astar", meter=m
            )
            holder["meter"], holder["ans"] = m, ans
            return ans

        seconds, _ = timed(call_gi, repeats=repeats, warmup=warmup)
        return Timing(seconds=seconds, answer=float(holder["ans"]), meter=holder["meter"])

    if method in ("mbq-et", "mbq-astar"):
        holder = {}

        def call_mbq():
            m = WorkDepthMeter()
            ans = mbq_ppsp(graph, s, t, use_astar=method == "mbq-astar", meter=m)
            holder["meter"], holder["ans"] = m, ans
            return ans

        seconds, _ = timed(call_mbq, repeats=repeats, warmup=warmup)
        return Timing(seconds=seconds, answer=float(holder["ans"]), meter=holder["meter"])

    raise ValueError(f"unknown method {method!r}")


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def render_table(
    title: str,
    row_labels: list[str],
    col_labels: list[str],
    cells: dict[tuple[str, str], float | str],
    *,
    fmt: str = "{:.4f}",
) -> str:
    """Fixed-width text table in the style of the paper's tables."""
    width = max(8, *(len(c) + 2 for c in col_labels))
    label_w = max(12, *(len(r) + 2 for r in row_labels)) if row_labels else 12
    lines = [title, "=" * (label_w + width * len(col_labels))]
    lines.append(" " * label_w + "".join(c.rjust(width) for c in col_labels))
    for r in row_labels:
        row = [r.ljust(label_w)]
        for c in col_labels:
            v = cells.get((r, c), "-")
            if isinstance(v, float):
                v = fmt.format(v)
            row.append(str(v).rjust(width))
        lines.append("".join(row))
    return "\n".join(lines)


def results_dir() -> str:
    """Where experiment modules drop their JSON outputs."""
    here = os.environ.get("REPRO_RESULTS_DIR")
    if here is None:
        here = os.path.join(os.getcwd(), "results")
    os.makedirs(here, exist_ok=True)
    return here


def save_results(name: str, payload: dict) -> str:
    path = os.path.join(results_dir(), f"{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=float)
    return path


def geomean_or_none(values: list[float]) -> float | None:
    good = [v for v in values if v > 0 and np.isfinite(v)]
    return geometric_mean(good) if good else None
