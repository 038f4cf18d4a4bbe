"""The repository benchmark: PPSP latency by graph category and under bursts.

    python3 perfbench/run.py --workload road-p2p --seed 1 --seconds 20 --trace 0

Workloads (``--workload``; ``all`` runs the three one after another):

``road-p2p``
    Closed loop, one client: ``repro.ppsp`` on ``road_graph(200, 200)``,
    methods cycling et, astar, bids, bidastar, each answer followed by
    ``.path()``.  Many small steps: per-step cost sets latency.
``social-p2p``
    Closed loop, one client: ``repro.ppsp`` on ``social_graph(20000)``,
    methods alternating et and bids.  Few huge steps: per-edge kernel
    cost sets latency.
``service-bursts``
    Open loop: every 0.5 s a burst of 16 queries (uniform sources,
    Zipf(1) targets over 32 depots) goes to a started
    ``QueryService(method="multi", backend="process", workers=2,
    verify=True)`` on the road graph.  Coalescing, the pool and
    certificate checks set latency.

No workload runs ``repro.perf`` (WarmEngine, BufferArena),
``repro.robustness``, ``serve.hedging``, ``serve.checkpoint``,
``repro.baselines`` or ``repro.experiments``.

Each run generates its inputs from ``--seed`` in a child process
(:mod:`inputs`), sets the workload up ``SETUP_PROBES`` times in fresh
child processes and once in this process, measures for ``--seconds``,
and checks every answer against SciPy's Dijkstra (:mod:`reference`).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  Latencies and set-up times there are normalised to a
reference core speed by speed probes timed next to every query
(:data:`workloads.PROBE_REF_MS`), and the wall-clock percentiles are
printed above it.  The traced run first repeats the untraced
measurement on the same queries, so ``trace.overhead`` compares the
two, and it writes its spans to ``.perfbench_out/``.

A query that raised, was shed, timed out or came back inexact counts
as failed, with an infinite latency: it ranks above every answered
query in the percentiles.

Exit status: 0 on a correct run; 1 when an answer disagrees with the
reference (the result line is still printed); 2 when the checkout has
no ``src/repro``; 3 when a run is invalid (no result line): so many
queries failed that ``latency_p95_ms`` is unbounded, or the open loop
broke its schedule.

On every way out, the run stops each process it started (set-up
probes, pool workers, the multiprocessing resource tracker) and waits
until it has ended.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("road-p2p", "social-p2p", "service-bursts")
#: set-ups in fresh processes per run; setup_s is the median of these
#: and the in-process set-up.
SETUP_PROBES = 4
#: the command a set-up probe child runs; a wrapper that installs
#: something in the measured process points it at itself.
SELF = [__file__]
#: an open-loop run is invalid when the generator started a burst more
#: than a fifth of the burst interval late ...
MAX_GENERATOR_LATE_MS = 100.0
#: ... or when more than this share of bursts were split across batches,
#: which changes what the batches hold.
MAX_SPLIT_SHARE = 0.25
CHILD_TIMEOUT_S = 120
#: prctl(2) option: descendants orphaned by a child become this
#: process's children, so it can wait for them.
PR_SET_CHILD_SUBREAPER = 36
#: children still running this long after the run are killed.
REAP_TIMEOUT_S = 10.0


class InvalidRun(Exception):
    """Too many queries failed, or the open loop did not run as scheduled;
    the run's figures mean nothing."""


@dataclass
class Result:
    values: dict
    notes: dict
    attempted: int
    failed: int
    wrong: int


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: time one set-up on inputs already in DIR, print it, exit.
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def metric_specs(kind: str) -> list[dict]:
    """The ``end_to_end`` or ``per_layer`` entries of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)[kind]


def run_child(*args: str) -> str:
    """Run a benchmark script in a child process; its standard output."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {args[0]} exited with {proc.returncode}")
    return proc.stdout


def _child_pids() -> list[int]:
    me = str(os.getpid())
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[1] == me:
                    pids.append(int(pid))
        except (OSError, IndexError):
            continue
    return pids


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Closing the service joins the pool workers, but not the
    multiprocessing resource tracker that the pool's shared memory
    started: left alone, it outlives this process by some milliseconds.
    Any other child, or a descendant a child orphaned, gets
    REAP_TIMEOUT_S to end and is then killed.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _child_pids():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


def make_workload(name: str, input_dir: str):
    import workloads

    if name == "service-bursts":
        return workloads.ServiceBursts(input_dir)
    return workloads.SingleQuery(name, input_dir)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def count_wrong(answers, graph_path: str) -> int:
    """Answers that disagree with the reference (failed queries aside)."""
    from reference import Reference, agrees

    ref = Reference(graph_path)
    pairs = answers.pairs
    claimed = np.where(answers.failed, np.inf, answers.distance)
    if not ref.directed and len(np.unique(pairs[:, 1])) < len(np.unique(pairs[:, 0])):
        # d(s, t) = d(t, s): run Dijkstra from the fewer distinct endpoints.
        truth = ref.distances(pairs[:, ::-1], claimed)
    else:
        truth = ref.distances(pairs, claimed)
    wrong = 0
    for k, (d, true) in enumerate(zip(answers.distance, truth)):
        if answers.failed[k]:
            continue
        bad = not agrees(float(d), float(true))
        if not bad and answers.paths is not None:
            path = answers.paths[k]
            s, t = int(pairs[k, 0]), int(pairs[k, 1])
            bad = (
                path is None or int(path[0]) != s or int(path[-1]) != t
                or not agrees(ref.path_length(path), float(d))
            )
        wrong += bad
    return wrong


def percentile(latency_ms: np.ndarray, q: float) -> float:
    """``np.percentile``; NaN or infinite when it reaches failed queries."""
    with np.errstate(invalid="ignore"):
        return float(np.percentile(latency_ms, q))


def check_valid(answers) -> None:
    """Raise InvalidRun when latency_p95_ms is unbounded or an open-loop
    run broke its schedule."""
    if not np.isfinite(percentile(answers.normalised_ms, 95)):
        raise InvalidRun(f"{int(answers.failed.sum())} of {len(answers.failed)} queries "
                         "failed, so latency_p95_ms is unbounded")
    extra = answers.extra
    if "bursts" not in extra:
        return
    if extra["generator_late_ms"] > MAX_GENERATOR_LATE_MS:
        raise InvalidRun(f"generator ran {extra['generator_late_ms']:.1f} ms late "
                         f"(bound {MAX_GENERATOR_LATE_MS} ms)")
    if extra["bursts_split"] > MAX_SPLIT_SHARE * extra["bursts"]:
        raise InvalidRun(f"{extra['bursts_split']} of {extra['bursts']} bursts split "
                         f"across batches (bound {MAX_SPLIT_SHARE:.0%})")


def report_errors(parts, wrong: int) -> tuple[int, int]:
    """Print error_rate over the timed parts; (attempted, failed)."""
    attempted = sum(len(a.latency_ms) for a in parts)
    failed = sum(int(a.failed.sum()) for a in parts) + wrong
    print(f"  error_rate                   {failed / attempted:.6g} share  "
          f"({failed} of {attempted} attempted; {wrong} disagree with the reference)")
    for answers in parts:
        if "bursts" in answers.extra:
            print(f"  open loop                    {answers.extra['bursts_split']} of "
                  f"{answers.extra['bursts']} bursts split; generator at most "
                  f"{answers.extra['generator_late_ms']:.2f} ms late")
    return attempted, failed


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def probe_setup(args) -> int:
    """Child mode: one set-up on existing inputs; print its seconds."""
    work = make_workload(args.workload, args.probe_setup)
    try:
        phases = work.setup()
    finally:
        work.close()
    print(json.dumps({"setup_s": sum(phases.values())}))
    return 0


def untraced_run(args, work_dir: str) -> Result:
    from workloads import PROBE_REF_MS, peak_rss_mb

    setups = [
        json.loads(run_child(*SELF, "--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", "0", "--probe-setup", work_dir)
                   .splitlines()[-1])["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    work = make_workload(args.workload, work_dir)
    try:
        phases = work.setup()
        answers = work.run(args.seconds)
    finally:
        work.close()
    peak = peak_rss_mb() + sum(answers.extra.get("worker_rss_mb", []))
    check_valid(answers)
    wrong = count_wrong(answers, os.path.join(work_dir, "graph.npz"))
    attempted, failed = report_errors([answers], wrong)
    setups.append(sum(phases.values()))
    lat = answers.normalised_ms
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p95_ms": percentile(lat, 95),
        "peak_rss_mb": peak,
    }
    wall = answers.latency_ms
    print(f"  wall latency                 p50 {percentile(wall, 50):.6g} ms, "
          f"p95 {percentile(wall, 95):.6g} ms; speed probe median "
          f"{np.median(answers.probe_ms):.4g} ms (reference {PROBE_REF_MS} ms)")
    workers = answers.extra.get("worker_rss_mb")
    notes = {
        "setup_s": (f"median of {len(setups)} set-ups: "
                    f"{', '.join(f'{s:.4f}' for s in setups)} s, the last in this process"),
        "latency_p50_ms": f"{len(lat)} queries, normalised",
        "latency_p95_ms": (f"{len(lat)} queries, normalised, "
                           f"{int((lat > values['latency_p95_ms']).sum())} beyond"),
        "peak_rss_mb": "this process" if workers is None
        else f"this process + {len(workers)} pool workers",
    }
    return Result(values, notes, attempted, failed, wrong)


def traced_run(args, work_dir: str) -> Result:
    import layers
    import repro.api
    import repro.core.engine
    import spans

    work = make_workload(args.workload, work_dir)
    try:
        phases = work.setup()
        base = work.run(args.seconds)
    finally:
        work.close()
    check_valid(base)
    rec = spans.Recorder()
    pool = None
    if args.workload == "service-bursts":
        # A second service, on the traced pool and checker.
        work = make_workload(args.workload, work_dir)
        try:
            work.setup(rec)
            pool = work.pool
            rec.reset()
            pool.shipped.clear()
            traced = work.run(args.seconds, rec=rec)
        finally:
            work.close()
        layers.replay_batches(work.graph, traced.extra["batches"], rec)
    else:
        with spans.patch(repro.api, "run_policy",
                         spans.traced_run_policy(rec)), \
             spans.patch(repro.core.engine, "gather_relax", spans.traced_gather(rec)):
            traced = work.run(args.seconds, count=len(base.latency_ms), rec=rec)
    check_valid(traced)
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz")
    rec.write(trace_path)
    graph_path = os.path.join(work_dir, "graph.npz")
    wrong = count_wrong(base, graph_path) + count_wrong(traced, graph_path)
    attempted, failed = report_errors([base, traced], wrong)
    print(f"  {len(rec.rows)} spans written to {os.path.relpath(trace_path, ROOT)}")
    for name, entry in sorted(rec.totals().items()):
        print(f"  span {name:<22} calls {entry['calls']:>8}  total {entry['ms']:>10.1f} ms"
              f"  self {entry['self_ms']:>10.1f} ms")
    values, notes = layers.layer_metrics(args.workload, rec, phases, base, traced, pool)
    return Result(values, notes, attempted, failed, wrong)


def run_workload(args) -> int:
    if args.probe_setup:
        return probe_setup(args)
    specs = metric_specs("per_layer" if args.trace else "end_to_end")
    work_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        run_child(os.path.join(HERE, "inputs.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--out", work_dir)
        result = (traced_run if args.trace else untraced_run)(args, work_dir)
    except InvalidRun as exc:
        print(f"perfbench: invalid run: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    unknown = set(result.values) - {spec["name"] for spec in specs}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for spec in specs:
        name = spec["name"]
        if name not in result.values:
            result.values[name] = 0.0
            result.notes[name] = "not on this workload's path"
        metrics[name] = {"value": result.values[name], "unit": spec["unit"]}
        note = f"  ({result.notes[name]})" if name in result.notes else ""
        print(f"  {name:<28} {result.values[name]:.6g} {spec['unit']}{note}")
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.wrong == 0 else 1


def run_all(args) -> int:
    """Run every workload in its own process; echo each one's report."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind through the finally blocks on SIGTERM, so pool workers stop too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run it from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
