"""Process-pool batch backend: real workers over a shared-memory graph.

The rest of :mod:`repro.parallel` *simulates* the paper's machine; this
module runs a batch on actual worker processes.  It owns no batch
logic: :func:`~repro.core.batch.solve_batch` plans the batch's units
(:func:`~repro.core.batch.plan_units`) and merges their results
(:func:`~repro.core.batch.reassemble`) for both backends, and
:func:`run_units` here only executes the units.  It cuts them, in plan
order, into at most :data:`TASKS_PER_WORKER` tasks per worker of
consecutive units and submits every task at once; the executor's queue
hands each task to the next free worker, the way the paper's
work-stealing scheduler runs a batch's independent searches (Sec. 4).
Workers attach the graph zero-copy via
:meth:`~repro.graphs.csr.Graph.from_shm` (fingerprint-gated), answer
each unit with the serial backend's own
:func:`~repro.core.batch.run_unit`, walk its paths, and send the unit
results back.  Results are therefore **bit-identical** to
``backend="serial"`` by construction: same distances, same paths, same
certificates, same work/depth meter.

Every batch runs under :func:`~repro.serve.hedging.supervise_shards`,
which waits for each task and, when the call sets a per-task deadline
or a :class:`~repro.serve.hedging.HedgePolicy`, times out stuck tasks
and hedges stragglers.  Worker death (SIGKILL, OOM) surfaces as
:class:`WorkerCrashError`; the serve pipeline treats that as a shard
failure, so its breakers and checkpoint/resume machinery recover
exactly as for any other fault.

Inherently single-process features — ``budget``, ``max_sources``, a
caller's ``kernel``, auditors/tracing, engine-level fault injection —
are rejected up front (:func:`shippable_kwargs`) rather than silently
diverging from serial semantics.
"""

from __future__ import annotations

import logging
import os
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, resource_tracker

from ..core.batch import run_unit
from ..graphs.csr import Graph
from ..graphs.shm import SharedGraph, export_graph

__all__ = ["ProcessPool", "WorkerCrashError", "run_units", "shippable_kwargs"]

logger = logging.getLogger("repro.pool")

#: engine kwargs that are safe to ship to workers: pure per-run knobs
#: with no cross-run or parent-side state.
_SHIPPABLE_ENGINE_KWARGS = frozenset({"frontier_mode", "pull_relax", "track_processed"})

#: cap on the tasks one batch is cut into, per worker.  More tasks let
#: the executor balance unequal units; fewer keep per-task pickling and
#: dispatch from dominating batches of many small units.
TASKS_PER_WORKER = 8

#: longest a quarantine waits for the killed executor's manager thread.
_QUARANTINE_JOIN_S = 5.0

# Fork where available: workers inherit the parent's imports and start
# in milliseconds.
try:
    _FORK_OR_SPAWN = get_context("fork")
except ValueError:  # pragma: no cover - non-POSIX
    _FORK_OR_SPAWN = get_context("spawn")


class WorkerCrashError(RuntimeError):
    """A pool worker died mid-shard (SIGKILL, OOM, segfault).

    The batch produced no partial answers — shards are all-or-nothing —
    so retrying the batch (what the serve pipeline's fallback chain
    does) is always safe.
    """


class ProcessPool:
    """A reusable pool of worker processes with shared-graph caching.

    Graph exports are cached per fingerprint, so serving many batches
    over the same graph pays the O(n + m) shared-memory copy once.
    :meth:`close` (or the context-manager exit) shuts the workers down
    and unlinks every exported segment — nothing may outlive the pool.

    The pool is built to stay **persistent** across batches: workers
    attach each shared graph once and keep the mapping for their
    lifetime, so the steady-state per-batch cost is task pickling
    only.  :meth:`open` spawns (and liveness-checks) the workers
    eagerly, :meth:`ping` is the idle health check, and a worker death
    is repaired transparently — the poisoned executor is discarded, the
    next dispatch respawns fresh workers (counted in :attr:`respawns`),
    and the failed batch surfaces as :class:`WorkerCrashError` so the
    serve pipeline's breaker/retry path decides what to re-run.

    Straggler defence is set per call on :meth:`run_shards` (see
    :mod:`repro.serve.hedging`): a per-task deadline times out stuck
    tasks (:class:`~repro.serve.hedging.ShardTimeout`), and a
    :class:`~repro.serve.hedging.HedgePolicy` launches first-result-wins
    backups of stragglers on a small separate *hedge lane* executor
    (``min(2, workers)`` slots), so a backup can proceed even when
    every primary worker slot is wedged.  A task timeout, or a
    straggling primary still stuck when the batch ends, quarantines
    the primary worker set: processes are killed and the next dispatch
    respawns fresh ones (counted in :attr:`quarantines` /
    :attr:`respawns`).  The hedge delay comes from a latency estimate
    the pool keeps across batches.  A batch submits all its tasks at
    once, so a task's deadline and its learned latency both run from
    submission and include its wait behind the batch's other tasks.
    """

    def __init__(self, workers: int | None = None, *, observer=None) -> None:
        self.workers = max(1, int(workers) if workers is not None else os.cpu_count() or 1)
        self._executor: ProcessPoolExecutor | None = None
        self._hedge_executor: ProcessPoolExecutor | None = None
        self._shared: dict[str, SharedGraph] = {}
        self._closed = False
        self._spawns = 0
        #: executor rebuilds after a worker crash (0 for a healthy pool).
        self.respawns = 0
        #: suspect-worker quarantines (deadline timeouts / stuck stragglers).
        self.quarantines = 0
        self.observer = observer
        self._estimator = None  # lazy LatencyEstimator (hedging import)

    # ------------------------------------------------------------------
    def share(self, graph) -> dict:
        """Export ``graph`` (cached by fingerprint); return the descriptor."""
        if self._closed:
            raise RuntimeError("pool is closed")
        fp = graph.fingerprint()
        handle = self._shared.get(fp)
        if handle is None:
            handle = export_graph(graph)
            self._shared[fp] = handle
        return handle.descriptor

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Workers must fork with this process's resource tracker
            # already running, or each starts its own on first attach
            # and that tracker unlinks the live shared graph as "leaked"
            # when its worker exits.
            resource_tracker.ensure_running()
            self._executor = ProcessPoolExecutor(self.workers, _FORK_OR_SPAWN)
            self._spawns += 1
            self.respawns = self._spawns - 1
        return self._executor

    def _discard_executor(self) -> None:
        """Drop a broken executor; the next batch builds a fresh one."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _ensure_hedge_executor(self) -> ProcessPoolExecutor:
        """The hedge lane: a small separate executor for backup shards.

        Separate on purpose — when every primary slot is wedged behind
        a stuck worker, a hedge submitted to the same executor would
        queue behind the very straggler it is meant to beat.
        """
        if self._hedge_executor is None:
            resource_tracker.ensure_running()  # see _ensure_executor
            self._hedge_executor = ProcessPoolExecutor(
                min(2, self.workers), _FORK_OR_SPAWN
            )
        return self._hedge_executor

    def _discard_hedge_executor(self) -> None:
        if self._hedge_executor is not None:
            self._hedge_executor.shutdown(wait=False, cancel_futures=True)
            self._hedge_executor = None

    def _quarantine(self, reason: str, *, observer=None) -> None:
        """Kill the (suspect) primary worker set; next dispatch respawns.

        ``shutdown(wait=False)`` alone would leave a wedged worker
        sleeping in its slot forever, so the processes are SIGKILLed
        explicitly — the same repair a human operator would apply to a
        hung worker, made automatic and counted.

        The executor stays referenced until its manager thread has seen
        the shutdown and the deaths: tasks may still be queued, and a
        collected executor leaves that thread failing futures the
        supervisor already cancelled.
        """
        executor = self._executor
        if executor is not None:
            procs = list(getattr(executor, "_processes", {}).values())
            manager = getattr(executor, "_executor_manager_thread", None)
            executor.shutdown(wait=False, cancel_futures=True)
            for proc in procs:
                try:
                    proc.kill()
                except Exception:  # pragma: no cover - already dead
                    pass
            if manager is not None:
                manager.join(timeout=_QUARANTINE_JOIN_S)
            self._executor = None
        self.quarantines += 1
        logger.warning("quarantined pool workers (reason=%s); respawning on next dispatch", reason)
        if observer is not None:
            observer.on_worker_suspect(reason)

    # ------------------------------------------------------------------
    # Persistent-service lifetime
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def open(self) -> "ProcessPool":
        """Eagerly spawn the workers and verify they answer (idempotent).

        Without this, workers fork lazily on the first batch; a serving
        process calls ``open()`` up front so the spin-up cost is paid
        before traffic arrives, and a misconfigured pool fails at start
        time rather than mid-request.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        self._ensure_executor()
        if not self.ping():
            # One respawn already happened inside ping(); a second
            # failed probe means workers cannot start at all here.
            if not self.ping():
                raise WorkerCrashError("pool workers died during open()")
        return self

    def ping(self, timeout: float = 60.0) -> bool:
        """Idle health check: one no-op round trip per worker slot.

        Returns ``True`` when every probe answered.  A dead worker
        poisons the executor exactly as a mid-shard crash would; the
        executor is discarded and rebuilt (transparent respawn, counted
        in :attr:`respawns`) and ``False`` is returned so the caller
        can observe the repair.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        executor = self._ensure_executor()
        try:
            futures = [executor.submit(_pool_ping, i) for i in range(self.workers)]
            for future in futures:
                future.result(timeout=timeout)
        except (BrokenProcessPool, _FuturesTimeout, TimeoutError, OSError) as exc:
            # Never swallow the failure class into a bare False: the
            # *reason* a probe failed (worker crash vs timeout vs a
            # pipe-level OSError) is the first thing an operator needs,
            # so it is logged and counted per exception class.
            reason = type(exc).__name__
            logger.warning(
                "pool ping failed (%s: %s); discarding executor and respawning workers",
                reason, exc,
            )
            if self.observer is not None:
                self.observer.on_pool_ping_failure(reason)
            self._discard_executor()
            self._ensure_executor()
            return False
        return True

    def run_shards(
        self,
        tasks: list[dict],
        *,
        observer=None,
        deadline: float | None = None,
        hedge=None,
        retry_budget=None,
    ) -> list[dict]:
        """Execute shard tasks on the workers; results in shard order.

        Shards run under :func:`~repro.serve.hedging.supervise_shards`;
        each one reports its own dispatch-to-result time to the
        observer.  ``deadline`` (per-shard wall seconds) makes a shard
        that produces nothing in time raise
        :class:`~repro.serve.hedging.ShardTimeout` (after quarantining
        the suspect workers) instead of blocking forever; ``hedge`` (a
        :class:`~repro.serve.hedging.HedgePolicy`) hedges stragglers on
        the backup lane, first result winning bit-identically, each
        hedge drawing a token from ``retry_budget`` when one is given.
        With neither, the supervisor simply waits for every shard.

        A worker death poisons the executor (every pending shard with
        it), so the executors are discarded and
        :class:`WorkerCrashError` raised — the caller retries the whole
        batch or fails the shard upward.  That holds whether the death
        is found at a result or already at submission (a worker that
        died while idle).  Any ordinary exception from a worker
        propagates as-is, exactly as the serial backend would raise it.
        """
        from ..serve.hedging import LatencyEstimator, ShardTimeout, supervise_shards

        if self._closed:
            raise RuntimeError("pool is closed")
        if not tasks:
            return []
        observer = observer if observer is not None else self.observer
        if self._estimator is None:
            self._estimator = LatencyEstimator()
        start = time.perf_counter()
        try:
            results, report = supervise_shards(
                _ExecutorTransport(self),
                tasks,
                deadline=deadline,
                policy=hedge,
                estimator=self._estimator,
                retry_budget=retry_budget,
                observer=observer,
            )
        except ShardTimeout:
            if observer is not None:
                observer.on_pool_shard("timeout", time.perf_counter() - start)
            self._quarantine("deadline", observer=observer)
            raise
        except BrokenProcessPool:
            self._discard_executor()
            self._discard_hedge_executor()
            if observer is not None:
                observer.on_pool_crash()
                observer.on_pool_shard("crashed", time.perf_counter() - start)
            raise WorkerCrashError(
                "a pool worker died mid-shard; the batch produced no answers"
            ) from None
        if observer is not None:
            for seconds in report.latencies:
                observer.on_pool_shard("ok", seconds)
        # A primary that lost its hedge race *and* is still running now
        # is genuinely stuck (a merely queued loser was cancelled, a
        # merely slow one has finished by the end of the batch).
        if any(not handle.done() for _idx, handle in report.stragglers):
            self._quarantine("straggler", observer=observer)
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down workers and unlink every exported segment (idempotent).

        Segment unlinking is unconditional: even when the executor is
        poisoned mid-batch and its shutdown raises, the ``finally``
        block destroys every exported segment before the error
        propagates — a serving host must never accumulate orphaned
        ``/dev/shm`` segments because a worker died at an awkward
        moment.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self._executor is not None:
                try:
                    self._executor.shutdown(wait=True, cancel_futures=True)
                finally:
                    self._executor = None
        finally:
            try:
                if self._hedge_executor is not None:
                    try:
                        self._hedge_executor.shutdown(wait=True, cancel_futures=True)
                    finally:
                        self._hedge_executor = None
            finally:
                shared, self._shared = self._shared, {}
                for handle in shared.values():
                    handle.unlink()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass


class _ExecutorTransport:
    """Adapt the pool's executors to the supervise_shards protocol.

    Primaries go to the main executor; hedge copies go to the
    dedicated hedge lane with worker-fault task keys already stripped
    by the supervisor (the fault models a sick worker, not sick work).
    """

    def __init__(self, pool: "ProcessPool") -> None:
        self._pool = pool

    def submit(self, task: dict, lane: str = "primary"):
        if lane == "hedge":
            executor = self._pool._ensure_hedge_executor()
        else:
            executor = self._pool._ensure_executor()
        return executor.submit(_pool_worker, task)

    def wait(self, handles, timeout):
        done, _not_done = _futures_wait(
            handles, timeout=timeout, return_when=FIRST_COMPLETED
        )
        return done

    def result(self, handle):
        return handle.result(timeout=0)

    def cancel(self, handle) -> bool:
        return handle.cancel()


# ----------------------------------------------------------------------
# Worker side.  Module-level so spawn contexts can import it; fork
# contexts inherit it.  One attached graph per (segment, fingerprint),
# cached for the worker's lifetime.
# ----------------------------------------------------------------------
_ATTACHED: dict[tuple[str, str], object] = {}


def _pool_ping(i: int) -> int:
    """Health-check no-op: proves the worker is alive and answering."""
    return os.getpid()


def _attached_graph(descriptor: dict):
    key = (descriptor["shm_name"], descriptor["fingerprint"])
    graph = _ATTACHED.get(key)
    if graph is None:
        graph = Graph.from_shm(descriptor)
        _ATTACHED[key] = graph
    return graph


def _pool_worker(task: dict) -> dict:
    graph = _attached_graph(task["graph"])
    units = task["units"]
    # Injected worker death: SIGKILL halfway through the shard, after
    # real work has happened — no cleanup, no exception, like the OOM
    # killer.  The parent sees BrokenProcessPool.
    kill_at = len(units) // 2 if task.get("kill") else None
    # Injected worker stall: a *real* sleep halfway through the shard,
    # modelling a wedged-but-alive worker (swap storm, hung syscall).
    # Unlike the engine-level simulated stall this blocks actual wall
    # time, which is exactly what shard deadlines and hedging defend
    # against; the worker eventually wakes and returns correct bytes.
    stall_s = float(task.get("stall") or 0.0)
    stall_at = len(units) // 2 if stall_s > 0 else None
    out = []
    for pos, unit in enumerate(units):
        if stall_at is not None and pos == stall_at:
            time.sleep(stall_s)
        if kill_at is not None and pos == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        # The rows stay here: the parent gets the walked paths instead.
        out.append(run_unit(graph, unit, **task["run"]).detach())
    if kill_at is not None and kill_at >= len(units):  # pragma: no cover
        os.kill(os.getpid(), signal.SIGKILL)
    return {"shard": task["shard"], "units": out}


# ----------------------------------------------------------------------
# Parent side: check what can ship, cut tasks, dispatch.
# ----------------------------------------------------------------------
def shippable_kwargs(
    engine_kwargs: dict, *, budget=None, max_sources=None
) -> tuple[dict, object]:
    """Reject what cannot run on workers; split off the fault injector.

    Returns ``(engine_kwargs, injector)``: the engine kwargs to ship and
    the :class:`~repro.robustness.FaultInjector` (or ``None``) whose
    pool-level kill/stall faults stay parent-side.  ``kernel=None`` is
    dropped (workers build their own kernel); a caller's kernel
    instance cannot ship.
    """
    for arg, label in ((budget, "budget"), (max_sources, "max_sources")):
        if arg is not None:
            raise ValueError(
                f"{label} is not supported by backend='process'; "
                "it is inherently single-process — use backend='serial'"
            )
    engine_kwargs = dict(engine_kwargs)
    if engine_kwargs.get("kernel", False) is None:
        del engine_kwargs["kernel"]
    injector = engine_kwargs.pop("fault_injector", None)
    if injector is not None and injector.has_engine_faults():
        raise ValueError(
            "backend='process' cannot replay engine-level fault injection "
            "(the injector's seeded RNG lives in the parent); its "
            "pool-level and parent-side faults are supported"
        )
    unsupported = set(engine_kwargs) - _SHIPPABLE_ENGINE_KWARGS
    if unsupported:
        raise ValueError(
            f"engine kwargs {sorted(unsupported)} are not supported by "
            f"backend='process'; shippable: {sorted(_SHIPPABLE_ENGINE_KWARGS)}"
        )
    return engine_kwargs, injector


def run_units(
    graph,
    units: list,
    *,
    label: str,
    pool: ProcessPool | None = None,
    workers: int | None = None,
    injector=None,
    observer=None,
    deadline: float | None = None,
    hedge=None,
    retry_budget=None,
    **run_kwargs,
) -> list:
    """Run batch units on worker processes; results in unit order.

    The units are cut, in order, into ``min(len(units),
    TASKS_PER_WORKER * pool.workers)`` tasks of consecutive units, all
    submitted at once; each free worker takes the next queued task and
    answers its units with ``run_unit(graph, unit, **run_kwargs)``.
    ``injector`` kill/stall faults are armed by task index.  ``label``
    names the batch method for the observer.  Pass an existing
    :class:`ProcessPool` to reuse workers and the shared graph across
    batches; otherwise an ephemeral pool of ``workers`` processes is
    created and torn down (segments unlinked) around this one call,
    exception paths included.
    """
    own_pool = pool is None
    if own_pool:
        pool = ProcessPool(workers)
    try:
        descriptor = pool.share(graph)
        count = min(len(units), TASKS_PER_WORKER * pool.workers)
        tasks = []
        for index in range(count):
            task = {
                "shard": index,
                "graph": descriptor,
                "units": units[index * len(units) // count:
                               (index + 1) * len(units) // count],
                "run": run_kwargs,
            }
            if injector is not None:
                if injector.take_worker_kill(index):
                    task["kill"] = True
                stall = injector.take_worker_stall(index)
                if stall:
                    task["stall"] = stall
            tasks.append(task)
        if observer is not None:
            observer.on_pool_batch(label, pool.workers)
        done = pool.run_shards(
            tasks,
            observer=observer,
            deadline=deadline,
            hedge=hedge,
            retry_budget=retry_budget,
        )
    finally:
        if own_pool:
            pool.close()
    return [res for task in done for res in task["units"]]
