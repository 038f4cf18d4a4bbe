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

A batch may carry a deadline counted from submission: a stuck (not
crashed) worker then surfaces as :class:`ShardTimeout` after the pool
quarantines its workers, instead of hanging the batch.  Worker death
(SIGKILL, OOM) surfaces as :class:`WorkerCrashError`.  The serve
pipeline treats either as a shard failure, so its breakers and
checkpoint/resume machinery recover exactly as for any other fault.

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

__all__ = [
    "ProcessPool",
    "ShardTimeout",
    "WorkerCrashError",
    "run_units",
    "shippable_kwargs",
]

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


class ShardTimeout(RuntimeError):
    """A batch's tasks produced no result within its deadline.

    Carries the index of the first unfinished task and the deadline.
    Raised by :meth:`ProcessPool.run_shards` after it has cancelled the
    remaining tasks and quarantined the workers, so nothing is left
    running; the serve pipeline treats it like any other backend
    failure (breaker + per-query fallback chain).
    """

    def __init__(self, shard: int, deadline_s: float) -> None:
        super().__init__(
            f"shard {shard} produced no result within {deadline_s:.3f}s deadline"
        )
        self.shard = int(shard)
        self.deadline_s = float(deadline_s)


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

    The straggler defence is a deadline set per :meth:`run_shards`
    call.  A batch submits all its tasks at once and the deadline runs
    from submission, so it covers each task's wait behind the batch's
    other tasks.  When it expires, the batch raises
    :class:`ShardTimeout` and the worker set is quarantined: processes
    are killed and the next dispatch respawns fresh ones (counted in
    :attr:`quarantines` / :attr:`respawns`).
    """

    def __init__(self, workers: int | None = None, *, observer=None) -> None:
        self.workers = max(1, int(workers) if workers is not None else os.cpu_count() or 1)
        self._executor: ProcessPoolExecutor | None = None
        self._shared: dict[str, SharedGraph] = {}
        self._closed = False
        self._spawns = 0
        #: executor rebuilds after a worker crash (0 for a healthy pool).
        self.respawns = 0
        #: suspect-worker quarantines (deadline timeouts).
        self.quarantines = 0
        self.observer = observer

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

    def _quarantine(self, reason: str, *, observer=None) -> None:
        """Kill the (suspect) worker set; next dispatch respawns.

        ``shutdown(wait=False)`` alone would leave a wedged worker
        sleeping in its slot forever, so the processes are SIGKILLed
        explicitly — the same repair a human operator would apply to a
        hung worker, made automatic and counted.

        The executor stays referenced until its manager thread has seen
        the shutdown and the deaths: tasks may still be queued, and a
        collected executor leaves that thread failing futures
        :meth:`run_shards` already cancelled.
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
    ) -> list[dict]:
        """Execute shard tasks on the workers; results in shard order.

        Every task is submitted at once; each one reports its own
        submission-to-result time to the observer.  ``deadline`` (wall
        seconds from submission) bounds the whole batch: when it
        expires with a task unfinished, the remaining tasks are
        cancelled, the worker set is quarantined and
        :class:`ShardTimeout` is raised instead of blocking forever.

        A worker death poisons the executor (every pending shard with
        it), so the executor is discarded and :class:`WorkerCrashError`
        raised — the caller retries the whole batch or fails the shard
        upward.  That holds whether the death is found at a result or
        already at submission (a worker that died while idle).  Any
        ordinary exception from a worker propagates as-is, after the
        remaining tasks are cancelled, exactly as the serial backend
        would raise it.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        if not tasks:
            return []
        observer = observer if observer is not None else self.observer
        start = time.perf_counter()
        expires = None if deadline is None else start + deadline
        futures: dict = {}
        seconds = [0.0] * len(tasks)
        try:
            executor = self._ensure_executor()
            for index, task in enumerate(tasks):
                futures[executor.submit(_pool_worker, task)] = index
            pending = set(futures)
            while pending:
                timeout = None if expires is None else max(0.0, expires - time.perf_counter())
                done, pending = _futures_wait(pending, timeout, FIRST_COMPLETED)
                if not done:
                    raise ShardTimeout(min(futures[f] for f in pending), deadline)
                now = time.perf_counter()
                for future in done:
                    seconds[futures[future]] = now - start
                    future.result()  # a task's own exception propagates
        except ShardTimeout:
            for future in futures:
                future.cancel()
            if observer is not None:
                observer.on_shard_timeout()
                observer.on_pool_shard("timeout", time.perf_counter() - start)
            self._quarantine("deadline", observer=observer)
            raise
        except BrokenProcessPool:
            self._discard_executor()
            if observer is not None:
                observer.on_pool_crash()
                observer.on_pool_shard("crashed", time.perf_counter() - start)
            raise WorkerCrashError(
                "a pool worker died mid-shard; the batch produced no answers"
            ) from None
        except BaseException:
            for future in futures:
                future.cancel()
            raise
        if observer is not None:
            for value in seconds:
                observer.on_pool_shard("ok", value)
        return [future.result() for future in futures]

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
    # time, which is exactly what the batch deadline defends against;
    # the worker eventually wakes and returns correct bytes.
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
    **run_kwargs,
) -> list:
    """Run batch units on worker processes; results in unit order.

    The units are cut, in order, into ``min(len(units),
    TASKS_PER_WORKER * pool.workers)`` tasks of consecutive units, all
    submitted at once; each free worker takes the next queued task and
    answers its units with ``run_unit(graph, unit, **run_kwargs)``.
    ``injector`` kill/stall faults are armed by task index, and
    ``deadline`` bounds the batch (see :meth:`ProcessPool.run_shards`).
    ``label`` names the batch method for the observer.  Pass an existing
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
        done = pool.run_shards(tasks, observer=observer, deadline=deadline)
    finally:
        if own_pool:
            pool.close()
    return [res for task in done for res in task["units"]]
