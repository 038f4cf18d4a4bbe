"""Online micro-batching: a streaming front door for the serve pipeline.

Everything below :class:`QueryService` answers *pre-assembled* batches;
this module serves a **stream**.  Clients submit individual queries (or
small bursts) and get a :class:`ServiceFuture` back immediately; a
micro-batcher coalesces the submission queue into right-sized
batches and executes each one through the existing
:class:`~repro.serve.pipeline.ServePipeline` — so admission/shedding,
per-query deadlines, circuit breakers, certificates, and checkpointing
all apply unchanged, and every future resolves with the pipeline's
closed outcome vocabulary (``ok | inexact | shed | timeout | failed |
repaired``).

A batch is flushed when the first of two triggers fires:

* **size** — the queue holds ``max_batch`` distinct queries (the batch
  the amortization analysis of Sec. 4 wants); a burst's backlog drains
  at once in ``max_batch`` chunks;
* **wait** — the oldest queued query has waited ``max_wait_ms`` on the
  service clock (an injectable :class:`~repro.robustness.SimClock` in
  tests, real time in production), bounding tail latency on a trickle.

One door rule guards the queue: once the oldest queued query has
waited longer than :data:`SHED_AFTER_S` (the queue has stopped
draining), a brand-new submission is shed at the door with an
immediately-resolved ``shed`` future.  A flushed query's wall budget
comes from ``deadline_ms``, as in the pipeline.

Duplicate ``(s, t)`` submissions inside one window coalesce into a
single execution and fan back out to every waiting future — an
adversarial same-pair flood costs one search, not N.

Underneath, ``backend="process"`` runs on a **persistent**
:class:`~repro.parallel.pool.ProcessPool` — the caller's ``pool=``, or
one of ``workers`` processes the service builds and closes itself —
and hands the pipeline only that pool: workers are spawned once
(:meth:`~repro.parallel.pool.ProcessPool.open`), attach the
shared-memory CSR graph once, and are reused across every coalesced
batch, so the steady-state per-batch cost is task pickling only.
Crashed workers surface through the existing
:class:`~repro.parallel.pool.WorkerCrashError`/breaker path and are
respawned transparently (counted, and exported via the
``repro_service_worker_respawns_total`` metric).

Two execution modes share all of that machinery:

* **inline** (default) — flush triggers are evaluated on the submitting
  thread (`submit`/`tick`/`drain`), so tests drive arrival schedules
  and the clock deterministically;
* **threaded** (:meth:`QueryService.start`) — a dispatcher thread owns
  the flush loop, which is what ``repro serve`` runs.
"""

from __future__ import annotations

import logging
import threading
from collections import deque
from dataclasses import dataclass, field

from ..api import validate_query
from ..core.answer import QueryAnswer
from ..robustness.clock import as_clock
from .admission import FAILED, SHED, ServeQuery
from .pipeline import ServePipeline

__all__ = [
    "QueryService",
    "ServiceFuture",
    "ServiceResult",
    "ServiceClosed",
    "FLUSH_REASONS",
    "SHED_AFTER_S",
]

#: every trigger that can flush a coalesced batch.
FLUSH_REASONS = ("size", "wait", "drain", "shutdown", "manual")

#: a new query is shed at the door once the oldest queued one has
#: waited longer than this many seconds on the service clock.
SHED_AFTER_S = 0.8

logger = logging.getLogger("repro.service")


class ServiceClosed(RuntimeError):
    """The service no longer accepts submissions (close() was called)."""


@dataclass(frozen=True)
class ServiceResult:
    """One query's terminal answer, as resolved onto its future(s).

    ``answer`` is the pipeline's :class:`~repro.core.answer.QueryAnswer`
    for the query; its ``outcome`` uses the pipeline's closed
    vocabulary, and its ``certificate`` and ``path`` are populated only
    when the service was built with ``certify=True`` /
    ``collect_paths=True`` (and the method retains path state).
    ``batch_index`` says which coalesced batch executed the query;
    ``waited_s`` is its time on the submission queue.
    """

    source: int
    target: int
    answer: QueryAnswer
    batch_index: int = -1
    waited_s: float = 0.0

    @property
    def key(self) -> tuple[int, int]:
        return (self.source, self.target)

    distance = property(lambda self: self.answer.distance)
    exact = property(lambda self: self.answer.exact)
    outcome = property(lambda self: self.answer.outcome)
    certificate = property(lambda self: self.answer.certificate)
    path = property(lambda self: self.answer.path)


class ServiceFuture:
    """A per-submission handle; resolves when the coalesced batch ran.

    Thread-safe: ``result()`` blocks (optionally with a timeout) until
    the dispatcher — or an inline flush — resolves it.  Futures never
    stay stuck: every admitted, shed, timed-out, or failed query
    resolves with an explicit outcome, and ``close()`` flushes whatever
    is still queued.
    """

    __slots__ = ("key", "_event", "_result")

    def __init__(self, key: tuple[int, int]) -> None:
        self.key = key
        self._event = threading.Event()
        self._result: ServiceResult | None = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> ServiceResult:
        """The resolved :class:`ServiceResult` (blocks until available)."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"query {self.key} is still queued or executing")
        return self._result

    def _resolve(self, result: ServiceResult) -> None:
        self._result = result
        self._event.set()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done() else "pending"
        return f"ServiceFuture(key={self.key}, {state})"


@dataclass
class _Pending:
    """One distinct queued query plus every future waiting on it."""

    query: ServeQuery
    futures: list[ServiceFuture]
    submitted: float


@dataclass(frozen=True)
class BatchRecord:
    """What one flush executed — the conformance matrix replays these."""

    index: int
    keys: tuple
    reason: str
    size: int
    waited_s: float


class QueryService:
    """An always-on micro-batching query endpoint over one graph.

    Parameters mirror :class:`~repro.serve.pipeline.ServePipeline`
    (``method``, ``verify``, ``deadline_ms``, ``max_queue``, ``clock``,
    ``observer``, ``pool``, ...) plus the batcher knobs:

    backend : str
        ``"serial"`` (default) runs every batch in this process;
        ``"process"`` runs them on ``pool``, or on a pool of
        ``workers`` processes (default: CPU count) the service owns.
        ``pool`` and ``workers`` are rejected with ``"serial"``.
    max_batch : int
        Coalesced batch size; each flush runs as one pipeline shard.
    max_wait_ms : float
        Longest a queued query waits before a partial batch flushes.
    certify, collect_paths : bool
        Attach each answer's certificate / shortest path to its
        :class:`ServiceResult`.

    >>> with QueryService(g, max_batch=32, backend="process", workers=4) as svc:
    ...     svc.start()                      # dispatcher thread
    ...     futs = [svc.submit(s, t) for s, t in stream]
    ...     answers = [f.result() for f in futs]
    """

    def __init__(
        self,
        graph,
        *,
        method: str = "multi",
        max_batch: int = 32,
        max_wait_ms: float = 5.0,
        backend: str = "serial",
        workers: int | None = None,
        pool=None,
        clock=None,
        observer=None,
        certify: bool = False,
        collect_paths: bool = False,
        **pipeline_kwargs,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be nonnegative, got {max_wait_ms}")
        self.graph = graph
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait_ms) / 1000.0
        self._clock = as_clock(clock)
        self._real_clock = clock is None
        self.observer = observer
        if backend not in ("serial", "process"):
            raise ValueError(f"unknown backend {backend!r}; options: serial, process")
        if backend == "serial" and (workers is not None or pool is not None):
            raise ValueError("workers/pool apply to backend='process' only")
        self.backend = backend

        self._own_pool = False
        self._pool = pool
        if backend == "process" and pool is None:
            from ..parallel.pool import ProcessPool

            self._pool = ProcessPool(workers, observer=observer)
            self._own_pool = True

        self._pipeline = ServePipeline(
            graph,
            method=method,
            clock=clock,
            observer=observer,
            certify=certify,
            collect_paths=collect_paths,
            pool=self._pool,
            checkpoint_every=self.max_batch,  # one shard per flush
            **pipeline_kwargs,
        )

        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._exec_lock = threading.Lock()
        self._pending: dict[tuple[int, int], _Pending] = {}
        self._closed = False
        self._stop = False
        self._thread: threading.Thread | None = None

        #: executed-batch log (newest last); the conformance matrix
        #: replays these compositions against the serial backend.
        self.batches: deque[BatchRecord] = deque(maxlen=4096)
        self._next_batch_index = 0
        self._counts = {
            "submitted": 0, "executed": 0, "deduped": 0, "errors": 0,
            "shed": 0,
        }
        self._flush_reasons = {reason: 0 for reason in FLUSH_REASONS}
        self._seen_respawns = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def pipeline(self) -> ServePipeline:
        """The underlying pipeline (breakers persist across batches)."""
        return self._pipeline

    @property
    def pool(self):
        """The persistent worker pool (``None`` for the serial backend)."""
        return self._pool

    def start(self) -> "QueryService":
        """Warm the pool and launch the dispatcher thread (idempotent)."""
        if self._closed:
            raise ServiceClosed("service is closed")
        self.warm()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="repro-query-service", daemon=True
            )
            self._thread.start()
        return self

    def warm(self) -> "QueryService":
        """Spawn pool workers and export the graph before traffic arrives."""
        if self._pool is not None and not self._pool.closed:
            self._pool.open()
            self._pool.share(self.graph)
            self._note_respawns()
        return self

    def ping(self) -> bool:
        """Idle health check of the worker pool (``True`` when healthy).

        A dead worker is respawned transparently; the repair shows up in
        ``stats()["respawns"]`` and the service metric, and this returns
        ``False`` so callers can log the event.
        """
        if self._pool is None or self._pool.closed:
            return True
        ok = self._pool.ping()
        self._note_respawns()
        return ok

    def close(self) -> None:
        """Stop accepting work, flush the queue, release the pool.

        Every still-pending future resolves (the final partial batch
        executes with the ``shutdown`` reason; an empty queue flushes
        nothing), so no client blocks forever across a shutdown.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._stop = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        try:
            while self._flush_chunk("shutdown"):
                pass
        finally:
            if self._own_pool and self._pool is not None:
                self._pool.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self, source: int, target: int, *, priority: int = 0,
        deadline: float | None = None,
    ) -> ServiceFuture:
        """Queue one query; returns its future immediately.

        Invalid endpoints raise here (synchronously), so a future, once
        issued, always resolves.  A duplicate ``(s, t)`` already queued
        in this window coalesces: one execution, every future resolved
        with the same answer (highest priority and earliest deadline
        win, exactly like pipeline admission).
        """
        validate_query(self.graph, source, target)
        key = (int(source), int(target))
        future = ServiceFuture(key)
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            entry = self._pending.get(key)
            if entry is not None:
                entry.futures.append(future)
                entry.query.priority = max(entry.query.priority, int(priority))
                if deadline is not None:
                    entry.query.deadline = (
                        float(deadline) if entry.query.deadline is None
                        else min(entry.query.deadline, float(deadline))
                    )
                self._counts["deduped"] += 1
                if self.observer is not None:
                    self.observer.on_service_dedup()
            else:
                # Door shedding: a *new* query is refused outright once
                # the oldest queued one has waited past SHED_AFTER_S —
                # the queue has stopped draining, and queueing more
                # only manufactures timeouts.  Duplicates of queued
                # queries always coalesce (they cost nothing extra).
                oldest = next(iter(self._pending.values()), None)
                if oldest is not None and self._clock() - oldest.submitted > SHED_AFTER_S:
                    self._counts["submitted"] += 1
                    self._counts["shed"] += 1
                    if self.observer is not None:
                        self.observer.on_overload_shed()
                    future._resolve(ServiceResult(
                        key[0], key[1], QueryAnswer(float("inf"), False, SHED)
                    ))
                    return future
                self._pending[key] = _Pending(
                    query=ServeQuery(key[0], key[1], priority=priority,
                                     deadline=deadline),
                    futures=[future],
                    submitted=self._clock(),
                )
            self._counts["submitted"] += 1
            if self.observer is not None:
                self.observer.on_service_queue(len(self._pending))
            self._cond.notify_all()
        if self._thread is None:
            self._drain_full_batches()
        return future

    def submit_many(self, queries) -> list[ServiceFuture]:
        """Queue a client burst; one future per submission (duplicates
        included — they fan out from the coalesced execution)."""
        futures = []
        for q in queries:
            if isinstance(q, ServeQuery):
                futures.append(self.submit(q.source, q.target,
                                           priority=q.priority,
                                           deadline=q.deadline))
            else:
                futures.append(self.submit(*q))
        return futures

    # ------------------------------------------------------------------
    # Flushing
    # ------------------------------------------------------------------
    def tick(self) -> int:
        """Apply the max-wait rule now (inline mode); batches flushed.

        Tests advance a :class:`~repro.robustness.SimClock` and call
        this to fire time-based flushes deterministically; the threaded
        dispatcher does the equivalent on real time.
        """
        flushed = 0
        while True:
            with self._lock:
                entry = next(iter(self._pending.values()), None)
                if entry is None:
                    break
                if self._clock() - entry.submitted < self.max_wait:
                    break
            if not self._flush_chunk("wait"):
                break
            flushed += 1
        return flushed

    def flush(self) -> int:
        """Force one partial flush (``manual``); queries executed."""
        return self._flush_chunk("manual")

    def drain(self) -> int:
        """Execute everything queued, now; total queries executed."""
        total = 0
        while True:
            n = self._flush_chunk("drain")
            if not n:
                break
            total += n
        return total

    def _drain_full_batches(self) -> None:
        """Inline-mode size trigger after a submission."""
        while True:
            with self._lock:
                if len(self._pending) < self.max_batch:
                    return
            if not self._flush_chunk("size"):
                return

    def _flush_chunk(self, reason: str) -> int:
        """Pop up to ``max_batch`` entries and execute them; count run."""
        with self._lock:
            if not self._pending:
                return 0
            take = list(self._pending.keys())[: self.max_batch]
            entries = [self._pending.pop(k) for k in take]
            if self.observer is not None:
                self.observer.on_service_queue(len(self._pending))
        self._execute(entries, reason)
        return len(entries)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _execute(self, entries: list[_Pending], reason: str) -> None:
        """One coalesced batch through the pipeline; resolve futures.

        Batches execute one at a time (``_exec_lock``): the parallelism
        lives inside the pool, and serialized batches are what make the
        coalesced stream bit-identical to serial execution of the same
        compositions.  A batch that raises resolves its futures as
        ``failed`` and is logged and counted in ``stats()["errors"]``;
        the dispatcher and any later flush keep serving.
        """
        with self._exec_lock:
            flushed_at = self._clock()
            waited = max(flushed_at - e.submitted for e in entries)
            index = self._next_batch_index
            self._next_batch_index += 1
            if self.observer is not None:
                self.observer.on_service_flush(reason, len(entries), waited)
            try:
                res = self._pipeline.run([e.query for e in entries])
            except Exception:  # noqa: BLE001 — futures must resolve
                logger.exception("service batch %d failed; its queries resolve as failed", index)
                self._counts["errors"] += 1
                failed = QueryAnswer(float("inf"), False, FAILED)
                for e in entries:
                    result = ServiceResult(*e.query.key, failed, index,
                                           flushed_at - e.submitted)
                    for f in e.futures:
                        f._resolve(result)
                self._record_batch(entries, reason, index, waited)
                return
            for e in entries:
                key = e.query.key
                result = ServiceResult(*key, res.answers[key], index,
                                       flushed_at - e.submitted)
                for f in e.futures:
                    f._resolve(result)
            self._counts["executed"] += len(entries)
            self._record_batch(entries, reason, index, waited)
            self._note_respawns()

    def _record_batch(self, entries, reason, index, waited) -> None:
        self._flush_reasons[reason] += 1
        self.batches.append(BatchRecord(
            index=index,
            keys=tuple(e.query.key for e in entries),
            reason=reason,
            size=len(entries),
            waited_s=waited,
        ))

    def _note_respawns(self) -> None:
        """Fold pool respawns since the last look into stats/metrics."""
        if self._pool is None:
            return
        delta = self._pool.respawns - self._seen_respawns
        if delta > 0:
            self._seen_respawns = self._pool.respawns
            if self.observer is not None:
                self.observer.on_service_respawn(delta)

    # ------------------------------------------------------------------
    # Dispatcher thread
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        """Threaded flush loop: size immediately, wait on expiry."""
        poll = 0.002  # simulated-clock fallback: re-check after a short nap
        while True:
            reason = None
            with self._cond:
                while not self._pending and not self._stop:
                    self._cond.wait(None if self._real_clock else poll)
                    if self._stop:
                        break
                if self._stop:
                    return
                entry = next(iter(self._pending.values()), None)
                if len(self._pending) >= self.max_batch:
                    reason = "size"
                elif entry is not None:
                    waited = self._clock() - entry.submitted
                    if waited >= self.max_wait:
                        reason = "wait"
                    else:
                        remaining = self.max_wait - waited
                        self._cond.wait(remaining if self._real_clock else poll)
                        continue
            if reason is not None:
                self._flush_chunk(reason)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def queue_depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def stats(self) -> dict:
        """Service counters for logs, tests, and the CLI summary."""
        with self._lock:
            out = {
                **dict(self._counts),
                "pending": len(self._pending),
                "batches": self._next_batch_index,
                "flush_reasons": dict(self._flush_reasons),
                "respawns": 0 if self._pool is None else self._pool.respawns,
                "breakers": self._pipeline.breakers.states(),
            }
            return out
