"""Extension experiment — preprocessing-free vs. index-based queries.

The paper's Sec. 7: "preprocessing in shortest-path algorithms is
double-edged — queries can be significantly accelerated, [but] the
preprocessing can also take much time, and sometimes much more space",
so preprocessing-free methods win "when fewer total queries are
performed, graphs are larger, and/or graphs change frequently".

This experiment quantifies that break-even on our suite: per graph it
measures PLL preprocessing time and index size, PLL per-query time, and
Orionet BiDS per-query time, then reports the query count at which the
index pays for itself:

    break_even = preprocess_time / (t_bids - t_pll)

Run: ``python -m repro.experiments.ext_preprocessing [--scale tiny]``
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ..analysis.percentiles import sample_query_pairs
from ..baselines.ch import ContractionHierarchy
from ..baselines.pll import PrunedLandmarkLabeling
from ..core.engine import run_policy
from ..core.policies import BiDS
from ..core.stepping import DeltaStepping
from ..kernels.calibrate import calibrate_delta
from .harness import render_table, save_results
from .suite import build_suite

__all__ = ["collect", "main"]


#: one modest graph per category: index preprocessing is Θ(n·Dijkstra)
#: in Python, so the tradeoff is measured on representatives.
REPRESENTATIVES = ("OK", "IT", "AF", "HH5")


def collect(
    scale: str = "tiny",
    *,
    num_pairs: int = 10,
    seed: int = 23,
    include_ch: bool = True,
    graphs: tuple[str, ...] = REPRESENTATIVES,
) -> dict:
    """Per graph: preprocessing cost, query cost, and break-even counts.

    CH preprocessing on hub-heavy social/web graphs produces dense
    shortcut cores (its known weakness — and part of the tradeoff
    story); it is skipped there by default and measured on road/k-NN,
    its home turf.
    """
    out: dict[str, dict] = {}
    for spec, g in build_suite(scale):
        if graphs is not None and spec.name not in graphs:
            continue
        delta = calibrate_delta(g)
        t0 = time.perf_counter()
        pll = PrunedLandmarkLabeling(g)
        pll_prep = time.perf_counter() - t0

        ch = None
        ch_prep = None
        if include_ch and spec.category in ("road", "knn"):
            t0 = time.perf_counter()
            ch = ContractionHierarchy(g)
            ch_prep = time.perf_counter() - t0

        pairs = sample_query_pairs(g, 50.0, num_pairs=num_pairs, seed=seed)
        t_pll = t_bids = t_ch = 0.0
        for s, t in pairs:
            t0 = time.perf_counter()
            a = pll.query(s, t)
            t_pll += time.perf_counter() - t0
            t0 = time.perf_counter()
            res = run_policy(g, BiDS(s, t), strategy=DeltaStepping(delta))
            t_bids += time.perf_counter() - t0
            if not np.isclose(a, res.answer, rtol=1e-9, atol=1e-9):
                raise AssertionError(f"{spec.name}: PLL {a} != BiDS {res.answer}")
            if ch is not None:
                t0 = time.perf_counter()
                c = ch.query(s, t)
                t_ch += time.perf_counter() - t0
                if not np.isclose(c, res.answer, rtol=1e-9, atol=1e-9):
                    raise AssertionError(f"{spec.name}: CH {c} != BiDS {res.answer}")
        t_pll /= num_pairs
        t_bids /= num_pairs
        saving = t_bids - t_pll
        row = {
            "preprocess_seconds": pll_prep,
            "index_entries": pll.index_size,
            "index_per_vertex": pll.average_label_size(),
            "pll_query_seconds": t_pll,
            "bids_query_seconds": t_bids,
            "break_even_queries": (pll_prep / saving) if saving > 0 else float("inf"),
        }
        if ch is not None:
            t_ch /= num_pairs
            ch_saving = t_bids - t_ch
            row.update(
                ch_preprocess_seconds=ch_prep,
                ch_shortcuts=ch.shortcuts_added,
                ch_query_seconds=t_ch,
                ch_break_even_queries=(ch_prep / ch_saving) if ch_saving > 0 else float("inf"),
            )
        out[spec.name] = row
    return out


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny", choices=("tiny", "small", "medium"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--graphs", nargs="*", default=list(REPRESENTATIVES),
                        help="suite graph names to measure")
    args = parser.parse_args(argv)

    data = collect(args.scale, num_pairs=args.pairs, graphs=tuple(args.graphs))
    cols = [
        "PLL prep (s)", "labels/v", "PLL q (s)", "CH prep (s)", "CH q (s)",
        "BiDS q (s)", "PLL b/e #q", "CH b/e #q",
    ]
    cells: dict[tuple[str, str], object] = {}
    for gname, row in data.items():
        cells[(gname, "PLL prep (s)")] = f"{row['preprocess_seconds']:.2f}"
        cells[(gname, "labels/v")] = f"{row['index_per_vertex']:.1f}"
        cells[(gname, "PLL q (s)")] = f"{row['pll_query_seconds']:.2e}"
        cells[(gname, "BiDS q (s)")] = f"{row['bids_query_seconds']:.2e}"
        be = row["break_even_queries"]
        cells[(gname, "PLL b/e #q")] = "∞" if np.isinf(be) else f"{be:.0f}"
        if "ch_query_seconds" in row:
            cells[(gname, "CH prep (s)")] = f"{row['ch_preprocess_seconds']:.2f}"
            cells[(gname, "CH q (s)")] = f"{row['ch_query_seconds']:.2e}"
            cbe = row["ch_break_even_queries"]
            cells[(gname, "CH b/e #q")] = "∞" if np.isinf(cbe) else f"{cbe:.0f}"
    print(render_table(
        "Preprocessing tradeoff: PLL / CH indexes vs preprocessing-free BiDS",
        list(data.keys()),
        cols,
        cells,
    ))
    save_results(f"ext_preprocessing_{args.scale}", data)
    return data


if __name__ == "__main__":
    main()
