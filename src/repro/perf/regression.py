"""Benchmark-regression harness: a fixed seeded workload + tolerance gate.

``repro bench`` (and ``python -m repro.perf.regression``) runs a frozen
workload — every single-query method and the batch solvers — on two
seeded synthetic graphs, and emits a ``BENCH_<i>.json`` snapshot at the
repo root.  Each snapshot also embeds a comparison against the previous
``BENCH_*.json``, so the sequence of files *is* the project's
performance trajectory: any PR that silently regresses work counts or
wall-clock shows up as a failed tolerance gate.

Two kinds of numbers are recorded and gated differently:

* **deterministic counters** (engine work, steps, relaxations) are
  machine-independent: they must match the baseline within a tight
  tolerance (default 10%), and a miss is a hard regression;
* **wall-clock** is noisy and machine-dependent: it is recorded for
  trend reading and gated only by a loose tolerance (default 100%).

The workload is comparable across runs only when scale, seed, and
schema match; ``compare`` refuses (status ``incomparable``) otherwise.
"""

from __future__ import annotations

import json
import platform
import re
import time
from pathlib import Path

import numpy as np

__all__ = [
    "SCALES",
    "SEED",
    "run_benchmark",
    "compare",
    "find_baseline",
    "next_bench_path",
    "bench_command",
]

SCHEMA = 1
SEED = 1729
METHODS = ("sssp", "et", "astar", "bids", "bidastar")
BATCH_METHODS = ("multi", "plain-bids", "sssp-vc")
#: the acceptance bar: serve-time certificate verification on a clean
#: workload must cost less than this fraction of the unverified run.
#: Re-baselined 0.15 -> 0.25 when the kernel layer landed: the plain
#: solve got ~30% faster while the absolute certificate cost (path
#: walks + spot checks, deliberately solver-independent scalar code)
#: stayed ~3-4 ms, so the same verification work now reads ~0.12 on the
#: ratio.  The gate still catches real verification regressions — e.g.
#: emission or checking going superlinear — at double today's cost.
VERIFY_MAX_OVERHEAD = 0.25
#: the acceptance bar: steady-state micro-batched service throughput on
#: a warm persistent pool vs a fresh pool per batch call (which pays
#: pool spin-up + graph export every call).
MIN_SERVICE_SPEEDUP = 2.0
# Wall-clock baselines shorter than this are too noisy to gate on.
_WALL_FLOOR_S = 5e-3

SCALES = {
    "tiny": dict(road_side=8, knn_points=120, num_pairs=3, repeats=2,
                 batch_pairs=4,
                 verify_road_side=16, verify_pairs=6,
                 service_pairs=8, service_chunk=4, service_rounds=2),
    "small": dict(road_side=16, knn_points=400, num_pairs=4, repeats=3,
                  batch_pairs=6,
                  # Large enough that the serve baseline clears the wall
                  # floor, so the verify-overhead gate actually engages.
                  verify_road_side=96, verify_pairs=12,
                  # The stream coalesces to one full batch at the
                  # service's default flush size (the acceptance
                  # workload); it *arrives* in client chunks of 8.
                  service_pairs=32, service_chunk=8, service_rounds=3),
}


def build_workload(scale: str) -> dict:
    """The frozen graphs + query pairs for one scale (fully seeded)."""
    from ..graphs import knn_graph, road_graph
    from ..graphs.connectivity import largest_component
    from ..graphs.knn import uniform_points

    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; options: {sorted(SCALES)}")
    cfg = SCALES[scale]
    side = cfg["road_side"]
    graphs = {
        "road": road_graph(side, side, seed=SEED, name="bench-road"),
        "knn": knn_graph(
            uniform_points(cfg["knn_points"], 2, seed=SEED), k=5, name="bench-knn"
        ),
    }
    pairs: dict[str, list[tuple[int, int]]] = {}
    batch_pairs: dict[str, list[tuple[int, int]]] = {}
    for i, (name, g) in enumerate(sorted(graphs.items())):
        rng = np.random.default_rng(SEED + i)
        lcc = largest_component(g)
        chosen = rng.choice(lcc, size=2 * cfg["num_pairs"], replace=False)
        pairs[name] = [
            (int(chosen[2 * j]), int(chosen[2 * j + 1])) for j in range(cfg["num_pairs"])
        ]
        chosen_b = rng.choice(lcc, size=2 * cfg["batch_pairs"], replace=False)
        batch_pairs[name] = [
            (int(chosen_b[2 * j]), int(chosen_b[2 * j + 1]))
            for j in range(cfg["batch_pairs"])
        ]
    return {"config": cfg, "graphs": graphs, "pairs": pairs, "batch_pairs": batch_pairs}


def _workload_key(scale: str) -> str:
    return f"schema{SCHEMA}-scale:{scale}-seed:{SEED}"


def run_benchmark(scale: str = "small") -> dict:
    """Execute the full workload and return the snapshot payload."""
    from ..api import batch_ppsp, ppsp

    wl = build_workload(scale)
    cfg = wl["config"]
    repeats = cfg["repeats"]
    single: dict[str, dict] = {}
    batch: dict[str, dict] = {}

    for name in sorted(wl["graphs"]):
        g = wl["graphs"][name]
        qpairs = wl["pairs"][name]
        single[name] = {}

        for method in METHODS:
            # Cold: fresh policy/heuristic/arrays on every call.
            t0 = time.perf_counter()
            for _ in range(repeats):
                for s, t in qpairs:
                    ans = ppsp(g, s, t, method=method)
            cold_s = (time.perf_counter() - t0) / (repeats * len(qpairs))
            work = steps = relax = 0.0
            for s, t in qpairs:
                ans = ppsp(g, s, t, method=method)
                work += ans.run.meter.work
                steps += ans.run.steps
                relax += ans.run.relaxations
            single[name][method] = {
                "cold_s": cold_s,
                "work": work,
                "steps": steps,
                "relaxations": relax,
            }

        bpairs = wl["batch_pairs"][name]
        batch[name] = {}
        for bmethod in BATCH_METHODS:
            t0 = time.perf_counter()
            for _ in range(repeats):
                res = batch_ppsp(g, bpairs, method=bmethod)
            cold_s = (time.perf_counter() - t0) / repeats
            batch[name][bmethod] = {
                "cold_s": cold_s,
                "work": float(res.meter.work),
                "num_searches": res.num_searches,
            }

    verify = _verify_overhead(wl)
    service = _service_section(wl)
    gates = _gates(verify, service)
    return {
        "schema": SCHEMA,  # additive sections (e.g. "obs", "verify") do NOT
        # bump this: the workload key must stay comparable across snapshots.
        "kind": "repro-bench",
        "workload_key": _workload_key(scale),
        "scale": scale,
        "seed": SEED,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "created_unix": time.time(),
        "workload": {
            "config": {k: v for k, v in cfg.items()},
            "graphs": {
                name: {"n": g.num_vertices, "m": g.num_edges}
                for name, g in wl["graphs"].items()
            },
            "pairs": {k: v for k, v in wl["pairs"].items()},
        },
        "single": single,
        "batch": batch,
        "obs": _observed_metrics(wl),
        "verify": verify,
        "service": service,
        "gates": gates,
    }


def _observed_metrics(wl: dict) -> dict:
    """One instrumented pass per graph: per-phase engine metrics.

    Runs after (and independently of) the timed loops with its own
    observer, so it contributes nothing to the gated counters; the
    numbers land in the snapshot's additive ``"obs"`` section so
    work/pruning/μ-settlement are trended alongside the wall-clock
    trajectory.
    """
    from ..api import ppsp
    from ..obs import Observer

    out: dict[str, dict] = {}
    for name in sorted(wl["graphs"]):
        g = wl["graphs"][name]
        obs = Observer()
        rows: dict[str, dict] = {}
        for method in METHODS:
            for s, t in wl["pairs"][name]:
                with obs.span(method, source=s, target=t):
                    ppsp(g, s, t, method=method, observer=obs)
            spans = [sp for sp in obs.spans if sp.method == method]
            rows[method] = {
                "work": sum(sp.work for sp in spans),
                "depth": sum(sp.depth for sp in spans),
                "steps": sum(sp.steps for sp in spans),
                "pruned": sum(sp.pruned for sp in spans),
                "mu_settled_steps": [sp.mu_settled_step for sp in spans],
            }
        out[name] = {"methods": rows}
    return out


def _verify_overhead(wl: dict) -> dict:
    """Additive ``"verify"`` section: serve-time verification cost.

    Serves a dedicated seeded road workload (``verify_road_side`` /
    ``verify_pairs`` in the scale config — large enough at gated scales
    that the search dominates, the regime verification is built for)
    through :class:`ServePipeline` twice per round — plain, then with
    ``verify=True`` — and records the relative wall overhead of
    certificate emission + checking.  Rounds interleave the two sides
    so machine drift cancels; each side keeps its best-of-N.  A plain
    baseline below ``_WALL_FLOOR_S`` is recorded but ungated —
    sub-millisecond ratios are scheduler noise, not signal.

    The queries form a chain (consecutive pairs share an endpoint), so
    the batch is one query-graph component and both sides run a single
    Multi-BiDS engine pass: the ratio isolates certificate emission +
    checking instead of folding in per-component engine startup, which
    the batch rows already trend.
    """
    from ..graphs import road_graph
    from ..graphs.connectivity import largest_component
    from ..serve import ServePipeline

    cfg = wl["config"]
    side = cfg["verify_road_side"]
    g = road_graph(side, side, seed=SEED, name="bench-verify-road")
    rng = np.random.default_rng(SEED)
    lcc = largest_component(g)
    chosen = rng.choice(lcc, size=cfg["verify_pairs"] + 1, replace=False)
    pairs = [
        (int(chosen[j]), int(chosen[j + 1]))
        for j in range(cfg["verify_pairs"])
    ]

    # Best-of-8: the kernel layer cut the plain baseline by ~25%, so the
    # same absolute certificate cost now reads as a larger ratio and a
    # noisy best-of-4 minimum can push a ~0.10 true overhead past the
    # gate.  More interleaved rounds tighten both minima.
    rounds = 8
    best = {"plain": float("inf"), "verified": float("inf")}
    for _ in range(rounds):
        for label, flag in (("plain", False), ("verified", True)):
            pipe = ServePipeline(g, method="multi", verify=flag)
            t0 = time.perf_counter()
            pipe.run(pairs)
            best[label] = min(best[label], time.perf_counter() - t0)
    overhead = best["verified"] / best["plain"] - 1.0 if best["plain"] > 0 else 0.0
    gated = best["plain"] >= _WALL_FLOOR_S
    return {
        "workload": {"road_side": side, "num_pairs": len(pairs), "method": "multi"},
        "plain_s": best["plain"],
        "verified_s": best["verified"],
        "overhead": overhead,
        "gated": gated,
        "max_allowed_overhead": VERIFY_MAX_OVERHEAD,
        "worst_gated_overhead": overhead if gated else None,
        "pass": (not gated) or overhead <= VERIFY_MAX_OVERHEAD,
    }


def _service_section(wl: dict, *, workers: int = 2) -> dict:
    """Additive ``"service"`` section: micro-batched steady state vs
    per-call process batches.

    Both sides answer the same seeded query stream — which *arrives*
    in client chunks of ``service_chunk`` pairs — with the same batch
    method on the same worker count.  The **per-call** side does what
    callers did before the service existed: one ``solve_batch`` call per
    arrival chunk on a fresh ``ProcessPool(workers)`` closed after it,
    paying executor spin-up and the shared graph export on every call.
    The **service** side submits the same chunks to a warm
    :class:`~repro.serve.QueryService`, which coalesces them into
    ``max_batch`` windows executed on a persistent pool that attached
    the graph before timing began — so its steady-state cost is
    coalescing + shard pickling.  Rounds interleave the two sides
    (machine drift cancels) and each keeps its best-of-N; a per-call
    baseline under ``_WALL_FLOOR_S`` is recorded but ungated.
    ``identical`` re-checks the service answers against serial
    ``solve_batch`` on the very batch compositions the coalescer
    formed — the bit-identity invariant, which is gated
    unconditionally.

    A host that cannot run the process pool at all (no fork, no
    ``/dev/shm``) records the error and passes the gate vacuously —
    the section measures the service layer, not the host.
    """
    from ..core.batch import solve_batch
    from ..graphs.connectivity import largest_component
    from ..parallel.pool import ProcessPool
    from ..serve import QueryService

    cfg = wl["config"]
    g = wl["graphs"]["road"]
    rng = np.random.default_rng(SEED + 7)
    lcc = largest_component(g)
    num = cfg["service_pairs"]
    chosen = rng.choice(lcc, size=2 * num, replace=False)
    pairs = [(int(chosen[2 * j]), int(chosen[2 * j + 1])) for j in range(num)]
    chunk = cfg["service_chunk"]
    chunks = [pairs[i:i + chunk] for i in range(0, num, chunk)]
    max_batch = min(32, num)
    rounds = cfg["service_rounds"]
    workload = {
        "num_pairs": num, "chunk": chunk, "max_batch": max_batch,
        "workers": workers, "rounds": rounds, "method": "multi",
    }

    best = {"per_call": float("inf"), "service": float("inf")}
    try:
        with QueryService(
            g, method="multi", max_batch=max_batch, max_wait_ms=10_000.0,
            backend="process", workers=workers,
        ) as svc:
            svc.warm()
            # Priming round: workers attach the shared graph here, so
            # the timed rounds see the steady state a serving process
            # lives in.
            svc.submit_many(pairs)
            svc.drain()
            futs = []
            for _ in range(rounds):
                t0 = time.perf_counter()
                futs = []
                for part in chunks:
                    futs.extend(svc.submit_many(part))
                svc.drain()
                for f in futs:
                    f.result()
                best["service"] = min(best["service"], time.perf_counter() - t0)
                t0 = time.perf_counter()
                for part in chunks:
                    with ProcessPool(workers) as pool:
                        solve_batch(g, part, method="multi", pool=pool)
                best["per_call"] = min(best["per_call"], time.perf_counter() - t0)
            reference: dict[tuple[int, int], float] = {}
            for record in svc.batches:
                ref = solve_batch(g, list(record.keys), method="multi")
                for key in record.keys:
                    reference[key] = ref.distance(*key)
            identical = all(f.result().distance == reference[f.key] for f in futs)
            respawns = svc.stats()["respawns"]
    except Exception as exc:  # noqa: BLE001 — a poolless host is not a regression
        return {
            "workload": workload,
            "error": f"{type(exc).__name__}: {exc}",
            "gated": False,
            "min_required_speedup": MIN_SERVICE_SPEEDUP,
            "pass": True,
        }
    speedup = (
        best["per_call"] / best["service"] if best["service"] > 0 else float("inf")
    )
    gated = best["per_call"] >= _WALL_FLOOR_S
    return {
        "workload": workload,
        "per_call_s": best["per_call"],
        "service_s": best["service"],
        "speedup": speedup,
        "respawns": respawns,
        "identical": identical,
        "gated": gated,
        "min_required_speedup": MIN_SERVICE_SPEEDUP,
        "pass": identical and ((not gated) or speedup >= MIN_SERVICE_SPEEDUP),
    }


def _gates(verify: dict, service: dict) -> dict:
    """The acceptance gates computed from the measured workload."""
    return {
        "max_verify_overhead": VERIFY_MAX_OVERHEAD,
        "verify_overhead": verify["worst_gated_overhead"],
        "min_required_service_speedup": MIN_SERVICE_SPEEDUP,
        "service_speedup": service.get("speedup"),
        "pass": verify["pass"] and service["pass"],
    }


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------
def compare(
    current: dict,
    baseline: dict,
    *,
    work_tolerance: float = 0.10,
    wall_tolerance: float = 1.00,
) -> dict:
    """Tolerance-gate ``current`` against ``baseline``.

    Returns ``{"status": "ok" | "regression" | "incomparable", ...}``.
    Deterministic counters (work / steps / relaxations) are gated at
    ``work_tolerance`` relative increase; wall-clock at
    ``wall_tolerance``.  Wall entries whose baseline is below
    ``_WALL_FLOOR_S`` are skipped — sub-millisecond timings are
    scheduler noise, not signal.  Improvements never fail the gate.
    """
    if baseline.get("workload_key") != current.get("workload_key"):
        return {
            "status": "incomparable",
            "reason": (
                f"workload mismatch: baseline {baseline.get('workload_key')!r} "
                f"vs current {current.get('workload_key')!r}"
            ),
        }
    regressions: list[dict] = []
    checked = 0
    for graph, methods in current.get("single", {}).items():
        base_graph = baseline.get("single", {}).get(graph, {})
        for method, row in methods.items():
            base = base_graph.get(method)
            if base is None:
                continue
            for metric, tol in (
                ("work", work_tolerance),
                ("steps", work_tolerance),
                ("relaxations", work_tolerance),
                ("cold_s", wall_tolerance),
            ):
                cur_v, base_v = row.get(metric), base.get(metric)
                if cur_v is None or base_v is None or base_v <= 0:
                    continue
                if metric.endswith("_s") and base_v < _WALL_FLOOR_S:
                    continue
                checked += 1
                if cur_v > base_v * (1.0 + tol):
                    regressions.append({
                        "where": f"single.{graph}.{method}.{metric}",
                        "baseline": base_v,
                        "current": cur_v,
                        "ratio": cur_v / base_v,
                        "tolerance": tol,
                    })
    return {
        "status": "regression" if regressions else "ok",
        "checked": checked,
        "work_tolerance": work_tolerance,
        "wall_tolerance": wall_tolerance,
        "regressions": regressions,
    }


_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def _bench_files(directory: Path) -> list[tuple[int, Path]]:
    directory = Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for p in directory.iterdir():
        m = _BENCH_RE.match(p.name)
        if m:
            out.append((int(m.group(1)), p))
    return sorted(out)


def find_baseline(directory, *, exclude: Path | None = None) -> Path | None:
    """The highest-numbered ``BENCH_*.json`` (excluding the output file)."""
    files = [
        p for _, p in _bench_files(Path(directory))
        if exclude is None or p.resolve() != Path(exclude).resolve()
    ]
    return files[-1] if files else None


def next_bench_path(directory) -> Path:
    """The next snapshot name: one past the highest index, starting at 2.

    (``BENCH_2.json`` is the first snapshot because the harness landed
    in PR 2; the index tracks the PR trajectory, not a file count.)
    """
    files = _bench_files(Path(directory))
    idx = files[-1][0] + 1 if files else 2
    return Path(directory) / f"BENCH_{idx}.json"


# ----------------------------------------------------------------------
# Command entry (shared by ``repro bench`` and ``python -m``)
# ----------------------------------------------------------------------
def bench_command(
    *,
    scale: str = "small",
    output: str | None = None,
    baseline: str | None = None,
    directory: str = ".",
    work_tolerance: float = 0.10,
    wall_tolerance: float = 1.00,
    check: bool = False,
) -> tuple[dict, int]:
    """Run, compare, write, and summarize one benchmark snapshot.

    Returns ``(payload, exit_code)``; the exit code is nonzero only when
    ``check`` is set and the gate failed (a comparable baseline showed a
    regression, or an acceptance gate missed).
    """
    directory = Path(directory)
    out_path = Path(output) if output else next_bench_path(directory)
    payload = run_benchmark(scale)

    base_path = Path(baseline) if baseline else find_baseline(directory, exclude=out_path)
    if base_path is not None and base_path.exists():
        base = json.loads(base_path.read_text())
        payload["comparison"] = {
            "baseline_file": base_path.name,
            **compare(payload, base, work_tolerance=work_tolerance,
                      wall_tolerance=wall_tolerance),
        }
    else:
        payload["comparison"] = {"status": "no-baseline"}

    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    payload["output_file"] = str(out_path)

    failed = check and (
        payload["comparison"]["status"] == "regression" or not payload["gates"]["pass"]
    )
    return payload, 1 if failed else 0


def main(argv=None) -> int:
    """``python -m repro.perf.regression`` — the nightly entry point."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="small", choices=sorted(SCALES))
    parser.add_argument("--output", help="snapshot path (default: next BENCH_<i>.json)")
    parser.add_argument("--baseline", help="explicit baseline file to gate against")
    parser.add_argument("--dir", default=".", help="where BENCH_*.json live")
    parser.add_argument("--work-tolerance", type=float, default=0.10)
    parser.add_argument("--wall-tolerance", type=float, default=1.00)
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero on gate failure")
    args = parser.parse_args(argv)
    payload, rc = bench_command(
        scale=args.scale, output=args.output, baseline=args.baseline,
        directory=args.dir, work_tolerance=args.work_tolerance,
        wall_tolerance=args.wall_tolerance, check=args.check,
    )
    summary = {
        "output": payload["output_file"],
        "gates": payload["gates"],
        "comparison": payload["comparison"],
    }
    print(json.dumps(summary, indent=2))
    return rc


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
