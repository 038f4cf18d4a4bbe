"""The three benchmark workloads, driven through the public API.

``road-p2p`` and ``social-p2p`` are closed loops with one client: the
next ``repro.ppsp`` call starts when the previous answer (and, on
road-p2p, its ``.path()``) is back.  ``service-bursts`` is an open loop:
a burst of queries is due every ``interval_s`` on a started
``QueryService`` whether or not earlier bursts have finished, and each
query's latency runs from its burst's due time to its future resolving.

Each workload's ``setup`` loads the graph file with
``repro.graphs.io.load_npz`` and runs the warm-up queries; its timed
part returns a :class:`Answers` record that :mod:`reference` checks.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.api import ppsp
from repro.core.tracing import StepTrace
from repro.graphs.io import load_npz
from repro.heuristics import make_heuristic
from repro.serve import QueryService

import spans

ROAD_METHODS = ("et", "astar", "bids", "bidastar")
SOCIAL_METHODS = ("et", "bids")
#: every run times at least this many queries, so >= 10 lie beyond p95.
MIN_QUERIES = 200
SERVICE_WORKERS = 2
#: a future not resolved this long after its burst was due counts as failed.
RESULT_TIMEOUT_S = 30.0
#: On a shared virtual machine a core's speed can change by 20-40% over
#: seconds to minutes (measured on a 2-vCPU VM), so every query is timed
#: next to a speed probe outside its timed interval: PROBE_LOOPS turns of
#: a plain Python loop, which took about PROBE_REF_MS of CPU time on that
#: VM's cores.  Normalised latencies scale wall latencies by
#: PROBE_REF_MS over the median probe of the PROBE_WINDOW neighbours on
#: either side; set-up times are scaled the same way.  The closed loops
#: probe their own core after each query.  service-bursts' batches run
#: on every core, so it probes each core in turn, PROBE_LEAD_S before
#: each burst is due, when the previous batch has finished.
PROBE_LOOPS = 20000
PROBE_REF_MS = 1.0
PROBE_WINDOW = 10
PROBE_LEAD_S = 0.02

_clock = time.perf_counter


def speed_probe_ms() -> float:
    """CPU time of one fixed pure-Python loop: the current core speed.

    Thread CPU time leaves out waits for the interpreter lock or a core,
    so the probe measures speed, not contention.
    """
    start = time.thread_time()
    x = 0
    for k in range(PROBE_LOOPS):
        x += k & 7
    return (time.thread_time() - start) * 1e3


def all_cores_probe_ms() -> float:
    """Mean speed probe over the cores this process may run on, the
    calling thread pinned to each in turn.

    On Linux, pid 0 names the calling thread, so the service's own
    threads keep their cores.
    """
    cores = os.sched_getaffinity(0)
    times = []
    try:
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            times.append(speed_probe_ms())
    finally:
        os.sched_setaffinity(0, cores)
    return float(np.mean(times))


def settled_speed_ms(probe=speed_probe_ms) -> float:
    """Median of 2 * PROBE_WINDOW + 1 probes in a row."""
    return float(np.median([probe() for _ in range(2 * PROBE_WINDOW + 1)]))


def local_speed(probe_ms: np.ndarray) -> np.ndarray:
    """Median probe time over each entry's PROBE_WINDOW neighbours."""
    n = len(probe_ms)
    return np.array([
        np.median(probe_ms[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]) for i in range(n)
    ])


@dataclass
class Answers:
    """What one timed part produced, query by query."""

    pairs: np.ndarray
    #: infinite for a failed query, so it ranks above every answered one.
    latency_ms: np.ndarray
    distance: np.ndarray
    #: the query raised, was shed, timed out, failed or came back inexact.
    failed: np.ndarray
    #: median speed probe around each query, in ms.
    probe_ms: np.ndarray
    paths: list | None = None
    extra: dict = field(default_factory=dict)

    @property
    def normalised_ms(self) -> np.ndarray:
        """Latencies scaled to a core whose probe takes PROBE_REF_MS."""
        return self.latency_ms * (PROBE_REF_MS / self.probe_ms)


def _sleep_until(when: float) -> None:
    pause = when - _clock()
    if pause > 0:
        time.sleep(pause)


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _child_workers() -> list[str]:
    """Pids of forked children running this same command (pool workers).

    The multiprocessing resource tracker is a child too, but it runs
    another command line, so it is left out.
    """
    me = str(os.getpid())
    with open("/proc/self/cmdline", "rb") as fh:
        cmdline = fh.read()
    pids = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as fh:
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
            if ppid != me:
                continue
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                if fh.read() == cmdline:
                    pids.append(pid)
        except (FileNotFoundError, ProcessLookupError, IndexError):
            continue
    return pids


# ----------------------------------------------------------------------
# Closed loops: road-p2p and social-p2p
# ----------------------------------------------------------------------
class SingleQuery:
    """One client calling ``ppsp`` back to back over a query stream."""

    def __init__(self, workload: str, input_dir: str) -> None:
        self.graph_path = os.path.join(input_dir, "graph.npz")
        with np.load(os.path.join(input_dir, "queries.npz")) as data:
            self.warmup = data["warmup"]
            self.stream = data["stream"]
        self.methods = ROAD_METHODS if workload == "road-p2p" else SOCIAL_METHODS
        self.with_path = workload == "road-p2p"
        self.graph = None

    def setup(self) -> dict:
        """Load the graph and run the warm-up queries; phase seconds,
        normalised like the latencies by speed probes right after."""
        t0 = _clock()
        self.graph = load_npz(self.graph_path)
        t1 = _clock()
        for i, (s, t) in enumerate(self.warmup):
            self._query(i, int(s), int(t))
        t2 = _clock()
        scale = PROBE_REF_MS / settled_speed_ms()
        return {"load": (t1 - t0) * scale, "pool": 0.0, "warmup": (t2 - t1) * scale}

    def close(self) -> None:
        pass

    def _query(self, i: int, s: int, t: int):
        ans = ppsp(self.graph, s, t, method=self.methods[i % len(self.methods)])
        path = ans.path() if self.with_path else None
        return ans.distance, ans.exact, path

    def _traced_query(self, i: int, s: int, t: int, rec: spans.Recorder):
        method = self.methods[i % len(self.methods)]
        step_trace = StepTrace()
        heuristics = []
        with rec.span("query", request=i):
            with rec.span("api.ppsp"):
                kwargs = {"kernel": spans.TracedKernel(rec), "trace": step_trace}
                if method == "astar":
                    heuristics = [spans.TracedHeuristic(make_heuristic(self.graph, t), rec)]
                    kwargs["heuristic"] = heuristics[0]
                elif method == "bidastar":
                    heuristics = [
                        spans.TracedHeuristic(make_heuristic(self.graph, s), rec),
                        spans.TracedHeuristic(make_heuristic(self.graph, t), rec),
                    ]
                    kwargs["heuristic_to_source"] = heuristics[0]
                    kwargs["heuristic_to_target"] = heuristics[1]
                ans = ppsp(self.graph, s, t, method=method, **kwargs)
            path = None
            if self.with_path:
                with rec.span("paths.path"):
                    path = ans.path()
        spans.count_steps(rec, step_trace)
        rec.count("heuristics.evals", sum(h.evaluated for h in heuristics))
        if path is not None:
            rec.count("paths.vertices", len(path))
        return ans.distance, ans.exact, path

    def run(self, seconds: float, *, count: int | None = None,
            rec: spans.Recorder | None = None) -> Answers:
        """The timed part: ``seconds`` of queries (at least MIN_QUERIES),
        or exactly ``count`` queries when given."""
        stream = self.stream
        limit = len(stream) if count is None else count
        lat = np.empty(limit)
        probes = np.empty(limit)
        dist = np.full(limit, np.nan)
        failed = np.zeros(limit, dtype=bool)
        paths = [] if self.with_path else None
        deadline = _clock() + seconds
        i = 0
        while i < limit:
            if count is None and i >= MIN_QUERIES and _clock() >= deadline:
                break
            s, t = int(stream[i, 0]), int(stream[i, 1])
            t0 = _clock()
            try:
                if rec is None:
                    d, exact, path = self._query(i, s, t)
                else:
                    d, exact, path = self._traced_query(i, s, t, rec)
            except Exception:  # noqa: BLE001 — a raising query counts as failed
                d, exact, path = np.nan, False, None
            lat[i] = (_clock() - t0) * 1e3 if exact else np.inf
            dist[i] = d
            failed[i] = not exact
            probes[i] = speed_probe_ms()
            if paths is not None:
                paths.append(None if path is None else np.asarray(path, dtype=np.int64))
            i += 1
        if i == limit and count is None:
            raise RuntimeError("query stream exhausted before the run ended")
        return Answers(
            pairs=stream[:i], latency_ms=lat[:i], distance=dist[:i], failed=failed[:i],
            probe_ms=local_speed(probes[:i]), paths=paths,
        )


# ----------------------------------------------------------------------
# Open loop: service-bursts
# ----------------------------------------------------------------------
class ServiceBursts:
    """Bursts of queries on a schedule against a started QueryService."""

    def __init__(self, input_dir: str) -> None:
        self.graph_path = os.path.join(input_dir, "graph.npz")
        with np.load(os.path.join(input_dir, "queries.npz")) as data:
            self.warmup = data["warmup"]
            self.bursts = data["bursts"]
            self.interval_s = float(data["interval_s"])
        self.graph = None
        self.svc = None
        self.pool = None

    def setup(self, rec: spans.Recorder | None = None) -> dict:
        """Load, start the service on a fresh pool, run one warm-up burst;
        phase seconds, normalised by all-core speed probes right after.

        With ``rec`` the pool and the certificate checker are the traced
        subclasses, passed through ``pool=`` and ``checker=``.
        """
        t0 = _clock()
        self.graph = load_npz(self.graph_path)
        t1 = _clock()
        kwargs = {}
        if rec is not None:
            self.pool = spans.TracedPool(SERVICE_WORKERS, rec)
            kwargs = {"pool": self.pool, "checker": spans.TracedChecker(rec)}
        self.svc = QueryService(
            self.graph, method="multi", backend="process",
            workers=SERVICE_WORKERS, verify=True, **kwargs,
        )
        self.svc.start()
        t2 = _clock()
        for future in self.svc.submit_many([(int(s), int(t)) for s, t in self.warmup]):
            future.result(RESULT_TIMEOUT_S)
        t3 = _clock()
        scale = PROBE_REF_MS / settled_speed_ms(all_cores_probe_ms)
        return {"load": (t1 - t0) * scale, "pool": (t2 - t1) * scale,
                "warmup": (t3 - t2) * scale}

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None
        if self.pool is not None:
            self.pool.close()
            self.pool = None

    def run(self, seconds: float, *, rec: spans.Recorder | None = None) -> Answers:
        """Submit ``seconds / interval_s`` bursts (at least MIN_QUERIES
        queries) on schedule; wait for all."""
        svc = self.svc
        size = self.bursts.shape[1]
        nbursts = max(-(-MIN_QUERIES // size), int(round(seconds / self.interval_s)))
        if nbursts > len(self.bursts):
            raise RuntimeError("burst stream shorter than the run")
        bursts = self.bursts[:nbursts]
        total = nbursts * size
        lat = np.full(total, np.nan)
        dist = np.full(total, np.nan)
        failed = np.zeros(total, dtype=bool)
        waited = np.full(total, np.nan)
        batch = np.full(total, -1, dtype=np.int64)
        outcomes = Counter()
        before = svc.stats()
        first_batch = before["batches"]

        pipeline = svc.pipeline
        if rec is not None:
            run_pipeline = pipeline.run
            batch_ids = itertools.count(first_batch)

            def traced_pipeline_run(queries, **kwargs):
                with rec.span("pipeline.run", request=next(batch_ids)):
                    return run_pipeline(queries, **kwargs)

            pipeline.run = traced_pipeline_run

        handoff: queue.Queue = queue.Queue()

        def collect() -> None:
            for b, due, futures in iter(handoff.get, None):
                for j, future in enumerate(futures):
                    k = b * size + j
                    try:
                        res = future.result(max(0.0, due + RESULT_TIMEOUT_S - _clock()))
                    except Exception:  # noqa: BLE001 — counted as failed
                        lat[k] = np.inf
                        failed[k] = True
                        outcomes["raised"] += 1
                        continue
                    done = _clock()
                    dist[k] = res.distance
                    waited[k] = res.waited_s * 1e3
                    batch[k] = res.batch_index
                    outcomes[res.outcome] += 1
                    failed[k] = not res.exact or res.outcome not in ("ok", "repaired")
                    lat[k] = np.inf if failed[k] else (done - due) * 1e3

        collector = threading.Thread(target=collect, name="bench-collector")
        collector.start()
        late_ms = np.empty(nbursts)
        probes = np.empty(nbursts)
        try:
            start = _clock() + 0.05
            for b in range(nbursts):
                due = start + b * self.interval_s
                _sleep_until(due - PROBE_LEAD_S)
                probes[b] = all_cores_probe_ms()
                _sleep_until(due)
                late_ms[b] = (_clock() - due) * 1e3
                token = rec.open("service.submit", request=b) if rec is not None else None
                futures = [svc.submit(int(s), int(t)) for s, t in bursts[b]]
                if token is not None:
                    rec.close(token)
                handoff.put((b, due, futures))
        finally:
            handoff.put(None)
            collector.join(RESULT_TIMEOUT_S + 1.0)
            if rec is not None:
                del pipeline.run
        if collector.is_alive():
            raise RuntimeError("collector did not finish")

        after = svc.stats()
        records = [r for r in svc.batches if r.index >= first_batch]
        # A failed query has no batch (index -1); it does not split its burst.
        split = sum(
            len(set(batch[b * size:(b + 1) * size].tolist()) - {-1}) > 1
            for b in range(nbursts)
        )
        workers_rss = [peak_rss_mb(pid) for pid in _child_workers()]
        return Answers(
            pairs=bursts.reshape(-1, 2), latency_ms=lat, distance=dist, failed=failed,
            probe_ms=np.repeat(local_speed(probes), size),
            extra={
                "bursts": nbursts,
                "generator_late_ms": float(late_ms.max()),
                "bursts_split": int(split),
                "queue_wait_ms": waited,
                "outcomes": dict(outcomes),
                "batches": records,
                "submitted": after["submitted"] - before["submitted"],
                "deduped": after["deduped"] - before["deduped"],
                "respawns": after["respawns"],
                "worker_rss_mb": workers_rss,
            },
        )
