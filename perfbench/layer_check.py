"""Layer-separation check: a slowdown in one layer moves only its workloads.

    python3 perfbench/layer_check.py

Two injected faults, each installed in the measured process and in its
set-up probe children:

``gather-30``
    ``gather_relax`` runs 30% slower (it busy-waits for 0.3 times its
    own duration).  social-p2p ``latency_p50_ms`` must get worse by more
    than its bound.
``run-shards-delay``
    ``ProcessPool.run_shards`` sleeps ``DELAY_S`` before dispatching.
    service-bursts ``latency_p50_ms`` must get worse by more than its
    bound, while every end-to-end metric of road-p2p and social-p2p
    stays within its bound.

For each expectation and each of SEEDS, the workload runs once with and
once without the fault, back to back, so the two runs see the same host;
which of the pair goes first alternates from seed to seed.  The median
over seeds of each metric's faulty / fault-free ratio, minus 1, is
compared with the metric's bound in BENCHMARK.json; every run lasts that
file's ``run_seconds``.  Exits 0 when every expectation holds.  The
wrappers live here, never in ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DELAY_S = 0.2
SEEDS = (1, 2, 3, 4)
#: (fault, workload, expectation): "moves" = latency_p50_ms worse than
#: its bound; "holds" = every end-to-end metric within its bound.
EXPECTATIONS = (
    ("gather-30", "social-p2p", "moves"),
    ("run-shards-delay", "service-bursts", "moves"),
    ("run-shards-delay", "road-p2p", "holds"),
    ("run-shards-delay", "social-p2p", "holds"),
)


def _spin_until(deadline: float) -> None:
    while time.perf_counter() < deadline:
        pass


def install(fault: str) -> None:
    """Install one fault in this process."""
    if fault == "gather-30":
        import repro.core.engine

        original = repro.core.engine.gather_relax

        def slow_gather_relax(*args, **kwargs):
            start = time.perf_counter()
            out = original(*args, **kwargs)
            _spin_until(time.perf_counter() + 0.3 * (time.perf_counter() - start))
            return out

        repro.core.engine.gather_relax = slow_gather_relax
    elif fault == "run-shards-delay":
        from repro.parallel.pool import ProcessPool

        original = ProcessPool.run_shards

        def delayed_run_shards(self, tasks, **kwargs):
            time.sleep(DELAY_S)
            return original(self, tasks, **kwargs)

        ProcessPool.run_shards = delayed_run_shards
    else:
        raise ValueError(f"unknown fault {fault!r}")


def run(workload: str, seed: int, seconds: int, fault: str | None) -> dict:
    """One untraced benchmark run; its end-to-end metric values."""
    if fault is None:
        cmd = [sys.executable, os.path.join(HERE, "run.py")]
    else:
        cmd = [sys.executable, __file__, "--inject", fault, "--"]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} fault {fault} exited {proc.returncode}")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: entry["value"] for name, entry in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inject", help="child mode: install FAULT, then run run.py")
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.inject:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        sys.path.insert(0, HERE)
        install(args.inject)
        import run as bench

        # Set-up probes are fresh processes: start them here, so they carry the fault.
        bench.SELF = [__file__, "--inject", args.inject, "--"]
        rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest
        return bench.main(rest)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    print(f"{'fault':<18} {'workload':<16} {'metric':<16} {'change per seed':<34} "
          f"{'median':>8} {'bound':>6}  verdict")
    for fault, workload, expect in EXPECTATIONS:
        changes: dict[str, list] = {}
        for k, seed in enumerate(SEEDS):
            order = (None, fault) if k % 2 == 0 else (fault, None)
            runs = {f: run(workload, seed, spec["run_seconds"], f) for f in order}
            for name, base in runs[None].items():
                changes.setdefault(name, []).append(runs[fault][name] / base - 1.0)
        for name in ["latency_p50_ms"] if expect == "moves" else list(changes):
            change = statistics.median(changes[name])
            passed = change > bounds[name] if expect == "moves" else change <= bounds[name]
            ok &= passed
            per_seed = " ".join(f"{c:+.1%}" for c in changes[name])
            print(f"{fault:<18} {workload:<16} {name:<16} {per_seed:<34} {change:>+8.1%} "
                  f"{bounds[name]:>6.2f}  {'pass' if passed else 'FAIL'} ({expect})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
