"""Straggler defense: per-shard deadlines and hedged re-execution.

The process backend (:mod:`repro.parallel.pool`) is all-or-nothing: a
batch completes when its slowest shard does.  A *dead* worker is
detected (``BrokenProcessPool`` -> ``WorkerCrashError``), but a merely
*stuck* one — swap storm, runaway GC, a hung syscall — blocks every
future of the batch forever.  This module supplies the supervisor the
pool runs every batch under.  With no deadline and no hedge policy it
simply waits for each shard; each call can arm:

* **Per-shard deadlines** — a shard that produces nothing within
  ``deadline`` seconds raises :class:`ShardTimeout` instead of
  hanging; the pool quarantines the suspect worker set (kill +
  respawn) and the serve pipeline recovers through its existing
  breaker / per-query-chain path.
* **Hedged re-execution** — after ``hedge_after = factor x median``
  of recently observed shard latencies (the seeded
  :class:`LatencyEstimator`), a backup copy of the straggling shard
  is launched on the hedge lane; the first result wins and the loser
  is cancelled.  Shards are deterministic (same task -> same bytes),
  so whichever copy wins, the batch answer is bit-identical to
  serial — that determinism is what makes first-result-wins safe
  here, where it would be a consistency bug for non-deterministic
  work.
* **Retry-budget gating** — each hedge draws a token from the shared
  :class:`~repro.serve.overload.RetryBudget`; when the bucket is dry
  the hedge is skipped (counted), so a straggler storm cannot double
  traffic during overload.

:func:`supervise_shards` is transport-agnostic: the pool adapts
``concurrent.futures`` behind the small transport protocol (submit /
wait / result / cancel) on the real clock, and
:class:`SimShardTransport` provides a simulated transport over
:class:`~repro.robustness.clock.SimClock` so every timeout/hedge
decision is deterministic in tests — no sleeping, no races.  Either
way the supervisor blocks in ``wait`` until the next deadline, hedge
time or shard completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median as _median

import numpy as np

from ..robustness.clock import as_clock

__all__ = [
    "ShardTimeout",
    "HedgePolicy",
    "LatencyEstimator",
    "SuperviseReport",
    "SimShardTransport",
    "supervise_shards",
]

#: Task keys that model a *sick worker*, not sick work; hedge copies
#: must not re-inject them or the backup stalls/dies identically.
FAULT_TASK_KEYS = ("kill", "stall")


class ShardTimeout(RuntimeError):
    """A shard produced no result within its deadline.

    Carries the shard index and the configured deadline; raised by
    :func:`supervise_shards` after cancelling everything outstanding,
    so no futures are left behind.  The pool converts this into a
    worker quarantine; the serve pipeline treats it like any other
    backend failure (breaker + per-query fallback chain).
    """

    def __init__(self, shard: int, deadline_s: float) -> None:
        super().__init__(
            f"shard {shard} produced no result within {deadline_s:.3f}s deadline"
        )
        self.shard = int(shard)
        self.deadline_s = float(deadline_s)


@dataclass(frozen=True)
class HedgePolicy:
    """When to launch a backup copy of a straggling shard.

    Hedging is off where no policy is given (``hedge=None``).

    Parameters
    ----------
    factor:
        Hedge delay multiplier over the observed median shard latency
        (``hedge_after = factor x median``).  3.0 means "three times
        slower than typical" — late enough that healthy jitter never
        hedges, early enough to beat any sane deadline.
    min_delay_s / max_delay_s:
        Clamp on the computed delay, so a string of microscopic shards
        cannot make hedging fire instantly and a huge median cannot
        push the hedge past the deadline.
    initial_delay_s:
        Cold-start delay used before any latency has been observed.
    jitter:
        Fractional uniform jitter (``delay x (1 + jitter x U[0,1))``)
        decorrelating hedge launches across shards, so a batch of
        simultaneous stragglers does not hedge as one thundering herd.
    """

    factor: float = 3.0
    min_delay_s: float = 0.05
    max_delay_s: float = 30.0
    initial_delay_s: float = 0.25
    jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError(f"factor must be > 0, got {self.factor}")
        if self.min_delay_s < 0 or self.max_delay_s < self.min_delay_s:
            raise ValueError(
                f"need 0 <= min_delay_s <= max_delay_s, got "
                f"[{self.min_delay_s}, {self.max_delay_s}]"
            )
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")


class LatencyEstimator:
    """Seeded running estimate of shard latency for hedge scheduling.

    Keeps the last ``window`` observed shard latencies (pool-lifetime,
    so a persistent serving pool carries history across batches) and
    turns their median into a hedge delay via a :class:`HedgePolicy`.
    The jitter draw comes from a seeded generator, making every delay
    — and therefore every hedge decision under ``SimClock`` —
    reproducible.
    """

    def __init__(self, *, window: int = 64, seed: int | None = 0) -> None:
        if window <= 0:
            raise ValueError(f"window must be > 0, got {window}")
        self.window = int(window)
        self._samples: list[float] = []
        self._rng = np.random.default_rng(seed)

    def observe(self, latency_s: float) -> None:
        self._samples.append(float(latency_s))
        if len(self._samples) > self.window:
            del self._samples[: len(self._samples) - self.window]

    def median(self) -> float | None:
        if not self._samples:
            return None
        return float(_median(self._samples))

    def __len__(self) -> int:
        return len(self._samples)

    def hedge_delay(self, policy: HedgePolicy) -> float:
        """The delay before hedging the next shard, clamped + jittered."""
        med = self.median()
        delay = policy.initial_delay_s if med is None else policy.factor * med
        if policy.jitter > 0:
            delay *= 1.0 + policy.jitter * float(self._rng.uniform(0.0, 1.0))
        return min(policy.max_delay_s, max(policy.min_delay_s, delay))


@dataclass
class SuperviseReport:
    """What one supervised shard run did, for metrics and quarantine.

    ``latencies[i]`` is shard ``i``'s dispatch-to-result seconds, the
    value the latency estimator learns from.  ``stragglers`` lists
    ``(shard_index, handle)`` for primary attempts that lost their race
    and could not be cancelled (they were already running); the pool
    checks them after the batch — one still unfinished means a
    genuinely stuck worker, which is quarantined, while a merely-slow
    one that finished by then is left alone.
    """

    hedges: int = 0
    hedge_wins: int = 0
    primary_wins_hedged: int = 0
    hedges_denied: int = 0
    latencies: list = field(default_factory=list)
    stragglers: list = field(default_factory=list)


class SimShardTransport:
    """Deterministic in-process transport over a :class:`SimClock`.

    ``latency(task, lane)`` decides how long each submitted attempt
    takes in simulated seconds; ``run(task, lane)`` produces its
    result when it completes (default: the task itself).  ``wait``
    *advances the clock* to the earlier of the timeout horizon and the
    next completion — the simulated analogue of blocking — which is
    what lets :func:`supervise_shards` unit tests and the stats
    workload exercise timeouts, hedge races, and budget denials
    without one real sleep.
    """

    def __init__(self, clock, latency, *, run=None) -> None:
        self.clock = clock
        self.latency = latency
        self.run = run if run is not None else (lambda task, lane: task)
        self._next = 0
        self._done_at: dict[int, float] = {}
        self._meta: dict[int, tuple] = {}
        self.cancelled: list[int] = []

    def submit(self, task, lane: str = "primary"):
        handle = self._next
        self._next += 1
        self._done_at[handle] = self.clock() + float(self.latency(task, lane))
        self._meta[handle] = (task, lane)
        return handle

    def wait(self, handles, timeout):
        now = self.clock()
        ready = {h for h in handles if self._done_at[h] <= now}
        if ready:
            return ready
        horizon = min(self._done_at[h] for h in handles)
        if timeout is not None:
            horizon = min(horizon, now + timeout)
        self.clock.advance(max(0.0, horizon - self.clock()))
        now = self.clock()
        return {h for h in handles if self._done_at[h] <= now}

    def result(self, handle):
        task, lane = self._meta[handle]
        out = self.run(task, lane)
        if isinstance(out, Exception):
            raise out
        return out

    def cancel(self, handle) -> bool:
        self.cancelled.append(handle)
        self._done_at[handle] = float("inf")
        return True


class _ShardState:
    __slots__ = ("index", "task", "primary", "hedge", "started",
                 "hedge_due", "deadline_at", "hedge_denied")

    def __init__(self, index, task, primary, started, hedge_due, deadline_at):
        self.index = index
        self.task = task
        self.primary = primary
        self.hedge = None
        self.started = started
        self.hedge_due = hedge_due
        self.deadline_at = deadline_at
        self.hedge_denied = False


def _hedge_copy(task):
    """A backup task with worker-fault keys stripped (see FAULT_TASK_KEYS)."""
    if isinstance(task, dict):
        return {k: v for k, v in task.items() if k not in FAULT_TASK_KEYS}
    return task


def supervise_shards(
    transport,
    tasks,
    *,
    clock=None,
    deadline=None,
    policy: HedgePolicy | None = None,
    estimator: LatencyEstimator | None = None,
    retry_budget=None,
    observer=None,
):
    """Run ``tasks`` under per-shard deadlines and hedged backups.

    Returns ``(results, report)`` with ``results[i]`` the first-won
    result of ``tasks[i]``.  Raises :class:`ShardTimeout` — after
    cancelling everything outstanding — if any shard produces nothing
    within ``deadline`` seconds of its dispatch.  Exceptions raised by
    a submission or a winning attempt propagate unchanged (the pool
    maps ``BrokenProcessPool`` to ``WorkerCrashError``).

    Parameters
    ----------
    transport:
        submit(task, lane)/wait(handles, timeout)/result(handle)/
        cancel(handle); the pool's executor adapter or a
        :class:`SimShardTransport`.
    clock:
        The time source deadlines and hedge times are read on; ``None``
        means real time.
    deadline:
        Per-shard wall seconds on ``clock``; ``None`` disables.
    policy / estimator:
        Hedge schedule; a ``None`` policy never hedges.  The estimator
        learns every shard's latency either way.
    retry_budget:
        Optional :class:`~repro.serve.overload.RetryBudget`; each
        hedge costs one token, a denial skips the hedge for good
        (counted in the report and on the observer).
    """
    now = as_clock(clock)
    estimator = estimator if estimator is not None else LatencyEstimator()
    report = SuperviseReport(latencies=[0.0] * len(tasks))
    deadline = None if deadline is None else float(deadline)
    if deadline is not None and deadline <= 0:
        raise ValueError(f"deadline must be > 0, got {deadline}")

    pending: dict[int, _ShardState] = {}
    owners: dict = {}
    results = [None] * len(tasks)

    def _cancel_outstanding():
        for st in pending.values():
            for handle in (st.primary, st.hedge):
                if handle is not None:
                    try:
                        transport.cancel(handle)
                    except Exception:  # pragma: no cover - defensive
                        pass

    try:
        for index, task in enumerate(tasks):
            started = now()
            st = _ShardState(
                index=index,
                task=task,
                primary=transport.submit(task, lane="primary"),
                started=started,
                hedge_due=None if policy is None
                else started + estimator.hedge_delay(policy),
                deadline_at=None if deadline is None else started + deadline,
            )
            pending[index] = st
            owners[st.primary] = st
        while pending:
            t = now()
            next_due = None
            for st in list(pending.values()):
                if st.deadline_at is not None and t >= st.deadline_at:
                    if observer is not None:
                        observer.on_shard_timeout()
                    raise ShardTimeout(st.index, deadline)
                if (
                    st.hedge is None
                    and not st.hedge_denied
                    and st.hedge_due is not None
                    and t >= st.hedge_due
                ):
                    if retry_budget is not None and not retry_budget.try_acquire(
                        kind="hedge"
                    ):
                        st.hedge_denied = True
                        report.hedges_denied += 1
                        if observer is not None:
                            observer.on_hedge_denied()
                    else:
                        st.hedge = transport.submit(_hedge_copy(st.task), lane="hedge")
                        owners[st.hedge] = st
                        report.hedges += 1
                        if observer is not None:
                            observer.on_hedge_launch(t - st.started)
                due_events = [st.deadline_at]
                if st.hedge is None and not st.hedge_denied:
                    due_events.append(st.hedge_due)
                for due in due_events:
                    if due is not None and (next_due is None or due < next_due):
                        next_due = due

            timeout = None if next_due is None else max(0.0, next_due - t)
            handles = [
                h
                for st in pending.values()
                for h in (st.primary, st.hedge)
                if h is not None
            ]
            done = transport.wait(handles, timeout)
            t = now()
            for handle in done:
                st = owners[handle]
                if st.index not in pending:
                    continue  # both copies finished in the same wait slice
                winner = "primary" if handle is st.primary else "hedge"
                value = transport.result(handle)
                results[st.index] = value
                report.latencies[st.index] = t - st.started
                estimator.observe(t - st.started)
                del pending[st.index]
                loser = st.hedge if winner == "primary" else st.primary
                if loser is not None:
                    cancelled = False
                    try:
                        cancelled = bool(transport.cancel(loser))
                    except Exception:  # pragma: no cover - defensive
                        pass
                    if winner == "hedge" and not cancelled:
                        report.stragglers.append((st.index, loser))
                if st.hedge is not None:
                    if winner == "hedge":
                        report.hedge_wins += 1
                    else:
                        report.primary_wins_hedged += 1
                    if observer is not None:
                        observer.on_hedge_result(winner)
    except BaseException:
        _cancel_outstanding()
        raise
    return results, report
