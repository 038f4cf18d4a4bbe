"""ProcessPool.ping, dispatch and shipping checks — no real workers.

A probe that dies with an ``OSError`` (a torn pipe, not a worker
crash) must not be silently folded into a bare ``False``: the failure
class is logged, counted per exception type on the observer, and the
executor is respawned.  An executor that broke while idle fails at
``submit`` already; dispatch must treat that like a break at a result.
Dispatch returns shard results in shard order whatever order the
shards finish in, and reports each shard's own latency.  A batch
deadline, counted from submission, cancels what is left, quarantines
the workers once and raises ``ShardTimeout``.  A batch is cut
into at most ``TASKS_PER_WORKER`` tasks per worker of consecutive units
in plan order.  The fake executors and the in-process pool below keep
this tier-1 (fork-free); the real-pool behaviour rides in the
fork-heavy suites.
"""

from __future__ import annotations

import logging
import threading

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.batch import plan_units, solve_batch
from repro.core.query_graph import QueryGraph
from repro.graphs import road_graph
from repro.graphs.connectivity import largest_component
from repro.obs import Observer
from repro.parallel import pool as pool_module
from repro.parallel.pool import (
    TASKS_PER_WORKER,
    ProcessPool,
    ShardTimeout,
    WorkerCrashError,
    _pool_worker,
    shippable_kwargs,
)
from repro.robustness import FaultInjector


class _FakeFuture:
    def __init__(self, exc):
        self._exc = exc

    def result(self, timeout=None):
        if self._exc is not None:
            raise self._exc
        return 0


class _FakeExecutor:
    def __init__(self, exc=None, submit_exc=None):
        self.exc = exc
        self.submit_exc = submit_exc
        self.submissions = 0

    def submit(self, fn, *args, **kwargs):
        if self.submit_exc is not None:
            raise self.submit_exc
        self.submissions += 1
        return _FakeFuture(self.exc)


@pytest.fixture
def pool(monkeypatch):
    pool = ProcessPool(workers=2, observer=Observer())
    calls = {"ensure": 0, "discard": 0}
    fake = _FakeExecutor()

    def ensure():
        calls["ensure"] += 1
        return fake

    monkeypatch.setattr(pool, "_ensure_executor", ensure)
    monkeypatch.setattr(pool, "_discard_executor", lambda: calls.__setitem__(
        "discard", calls["discard"] + 1))
    return pool, fake, calls


def test_healthy_ping_probes_every_slot(pool):
    p, fake, calls = pool
    assert p.ping() is True
    assert fake.submissions == 2  # one probe per worker slot
    assert calls["discard"] == 0


@pytest.mark.parametrize("exc", [OSError("pipe closed"), TimeoutError("late")])
def test_failed_ping_counts_the_failure_class(pool, caplog, exc):
    p, fake, calls = pool
    fake.exc = exc
    with caplog.at_level(logging.WARNING, logger="repro.pool"):
        assert p.ping() is False
    reason = type(exc).__name__
    counter = p.observer.registry.get("repro_pool_ping_failures_total")
    assert counter.value(error=reason) == 1
    # the respawn reason is in the log, not swallowed
    assert any(reason in rec.getMessage() for rec in caplog.records)
    # discarded and rebuilt: ensure called for the probe and the respawn
    assert calls["discard"] == 1
    assert calls["ensure"] == 2


def test_failed_ping_without_observer_still_respawns(monkeypatch):
    p = ProcessPool(workers=1)
    fake = _FakeExecutor(exc=OSError("gone"))
    monkeypatch.setattr(p, "_ensure_executor", lambda: fake)
    monkeypatch.setattr(p, "_discard_executor", lambda: None)
    assert p.ping() is False


def test_ping_on_closed_pool_raises():
    p = ProcessPool(workers=1)
    p.close()
    with pytest.raises(RuntimeError, match="closed"):
        p.ping()


def test_ping_broken_at_submit_respawns(pool):
    p, fake, calls = pool
    fake.submit_exc = BrokenProcessPool("a worker died while idle")
    assert p.ping() is False
    counter = p.observer.registry.get("repro_pool_ping_failures_total")
    assert counter.value(error="BrokenProcessPool") == 1
    assert calls["discard"] == 1


def test_run_shards_broken_at_submit_raises_crash_and_discards(pool):
    """An idle worker death breaks the executor before any shard runs:
    ``submit`` raises, and dispatch must report a worker crash and drop
    the executor so the next batch respawns, not leak the raw error."""
    p, fake, calls = pool
    fake.submit_exc = BrokenProcessPool("a worker died while idle")
    with pytest.raises(WorkerCrashError):
        p.run_shards([{"shard": 0}, {"shard": 1}])
    assert calls["discard"] == 1
    crashes = p.observer.registry.get("repro_pool_worker_crashes_total")
    assert crashes.value() == 1
    shards = p.observer.registry.get("repro_pool_shards_total")
    assert shards.value(status="crashed") == 1


class _TimedExecutor:
    """Completes each shard after its own delay, on a timer thread.

    A future stays pending until its timer fires, like a task still
    queued for a worker, so ``cancel()`` takes it back.  ``errors``
    maps a shard to the exception it fails with.
    """

    def __init__(self, delays, errors=None):
        self.delays = delays
        self.errors = errors or {}
        self.futures: list[Future] = []
        self.finished: list[int] = []
        self.timers: list[threading.Timer] = []

    def submit(self, fn, task):
        future = Future()
        self.futures.append(future)

        def finish(shard=task["shard"]):
            if not future.set_running_or_notify_cancel():
                return  # cancelled while queued
            self.finished.append(shard)
            if shard in self.errors:
                future.set_exception(self.errors[shard])
            else:
                future.set_result({"shard": shard, "units": []})

        timer = threading.Timer(self.delays[task["shard"]], finish)
        self.timers.append(timer)
        timer.start()
        return future

    def join(self):
        for timer in self.timers:
            timer.join(timeout=5)
            assert not timer.is_alive()


class _ShardLog:
    def __init__(self):
        self.shards: list[tuple[str, float]] = []
        self.timeouts = 0

    def on_pool_shard(self, status, seconds):
        self.shards.append((status, seconds))

    def on_shard_timeout(self):
        self.timeouts += 1


def test_run_shards_out_of_order_in_shard_order_with_own_latency(monkeypatch):
    delays = {0: 0.45, 1: 0.05, 2: 0.25}
    fake = _TimedExecutor(delays)
    log = _ShardLog()
    p = ProcessPool(workers=3, observer=log)
    monkeypatch.setattr(p, "_ensure_executor", lambda: fake)
    results = p.run_shards([{"shard": i} for i in range(3)])
    fake.join()
    assert fake.finished == [1, 2, 0]
    assert [r["shard"] for r in results] == [0, 1, 2]
    assert [status for status, _ in log.shards] == ["ok"] * 3
    latency = [seconds for _, seconds in log.shards]
    for shard, seconds in enumerate(latency):
        assert seconds >= 0.9 * delays[shard], (shard, latency)
    assert latency[1] < latency[2] < latency[0]


@pytest.fixture
def timed_pool(monkeypatch):
    """A pool over a ``_TimedExecutor`` that records its quarantines."""

    def build(delays, errors=None):
        fake = _TimedExecutor(delays, errors)
        log = _ShardLog()
        p = ProcessPool(workers=2, observer=log)
        quarantined: list[str] = []
        monkeypatch.setattr(p, "_ensure_executor", lambda: fake)
        monkeypatch.setattr(p, "_quarantine", lambda reason, observer=None:
                            quarantined.append(reason))
        built.append(fake)
        return p, fake, log, quarantined

    built: list[_TimedExecutor] = []
    yield build
    for fake in built:
        for timer in fake.timers:
            timer.cancel()  # the slow shards need not fire
        fake.join()


def test_deadline_times_out_cancels_and_quarantines_once(timed_pool):
    p, fake, log, quarantined = timed_pool({0: 0.02, 1: 5.0, 2: 5.0})
    with pytest.raises(ShardTimeout) as err:
        p.run_shards([{"shard": i} for i in range(3)], deadline=0.3)
    assert err.value.shard == 1
    assert err.value.deadline_s == pytest.approx(0.3)
    assert fake.futures[0].done() and not fake.futures[0].cancelled()
    assert [f.cancelled() for f in fake.futures[1:]] == [True, True]
    assert quarantined == ["deadline"]
    assert log.timeouts == 1
    (status, seconds), = log.shards
    assert status == "timeout"
    assert 0.25 <= seconds < 5.0


def test_tasks_inside_the_deadline_come_back_in_shard_order(timed_pool):
    p, fake, log, quarantined = timed_pool({0: 0.3, 1: 0.02, 2: 0.15})
    results = p.run_shards([{"shard": i} for i in range(3)], deadline=5.0)
    assert [r["shard"] for r in results] == [0, 1, 2]
    assert fake.finished == [1, 2, 0]
    assert [status for status, _ in log.shards] == ["ok"] * 3
    assert quarantined == []


@pytest.mark.parametrize("deadline", [0.0, -1.0])
def test_nonpositive_deadline_rejected(timed_pool, deadline):
    p, fake, _log, _quarantined = timed_pool({0: 0.01})
    with pytest.raises(ValueError, match="deadline must be > 0"):
        p.run_shards([{"shard": 0}], deadline=deadline)
    assert fake.futures == []  # nothing was submitted


def test_task_exception_propagates_after_cancelling_the_rest(timed_pool):
    boom = RuntimeError("shard exploded")
    p, fake, log, quarantined = timed_pool(
        {0: 0.02, 1: 5.0, 2: 5.0}, errors={0: boom})
    with pytest.raises(RuntimeError, match="shard exploded"):
        p.run_shards([{"shard": i} for i in range(3)], deadline=30.0)
    assert fake.futures[0].exception() is boom
    assert [f.cancelled() for f in fake.futures[1:]] == [True, True]
    assert quarantined == [] and log.shards == []


@pytest.mark.parametrize("fault", ["flip_checkpoint"])
def test_parent_side_faults_ship(fault):
    """This fault acts in the parent, after a checkpoint write, so the
    pool may run the batch."""
    injector = FaultInjector(**{fault: True})
    kwargs, split = shippable_kwargs({"fault_injector": injector, "kernel": None})
    assert kwargs == {} and split is injector


@pytest.mark.parametrize("fault", [
    {"corrupt_dist_at": 0}, {"corrupt_mu_at": 0}, {"drop_frontier_at": 0},
    {"perturb_heuristic": True}, {"raise_at": 0}, {"stall_at": 0},
    {"flip_dist_at": 0},
], ids=lambda fault: next(iter(fault)))
def test_engine_faults_rejected(fault):
    with pytest.raises(ValueError, match="engine-level fault injection"):
        shippable_kwargs({"fault_injector": FaultInjector(**fault)})


class _InlinePool(ProcessPool):
    """Records each batch's tasks and answers them in this process with
    the real worker function, on the exported shared-memory graph."""

    def __init__(self):
        super().__init__(2)
        self.shipped: list[list[dict]] = []

    def run_shards(self, tasks, **kwargs):
        self.shipped.append(tasks)
        return [_pool_worker(task) for task in tasks]


@pytest.fixture
def inline_pool(monkeypatch):
    # A fresh attach cache, so the views drop with the test.
    monkeypatch.setattr(pool_module, "_ATTACHED", {})
    pool = _InlinePool()
    yield pool
    pool.close()


@pytest.fixture(scope="module")
def grid():
    graph = road_graph(8, 8, seed=1)
    lcc = [int(v) for v in largest_component(graph)]
    return graph, [(lcc[i], lcc[-1 - i]) for i in range(20)]


def test_tasks_cut_plan_order_up_to_the_cap(inline_pool, grid):
    graph, pairs = grid
    res = solve_batch(graph, pairs, method="plain-bids", pool=inline_pool)
    (tasks,) = inline_pool.shipped
    assert len(tasks) == TASKS_PER_WORKER * inline_pool.workers == 16
    assert [task["shard"] for task in tasks] == list(range(16))
    plan = plan_units(graph, QueryGraph(pairs), "plain-bids")
    assert len(plan.units) == 20
    assert [unit for task in tasks for unit in task["units"]] == plan.units
    serial = solve_batch(graph, pairs, method="plain-bids")
    assert [(k, d.hex()) for k, d in res.distances.items()] == [
        (k, d.hex()) for k, d in serial.distances.items()
    ]


def test_small_batch_ships_one_unit_per_task(inline_pool, grid):
    graph, pairs = grid
    solve_batch(graph, pairs[:3], method="plain-bids", pool=inline_pool)
    (tasks,) = inline_pool.shipped
    assert [len(task["units"]) for task in tasks] == [1, 1, 1]


def test_empty_plan_ships_no_tasks(inline_pool, grid):
    graph, _ = grid
    res = solve_batch(graph, [(5, 5), (9, 9)], method="sssp-plain",
                      pool=inline_pool)
    assert sum(len(tasks) for tasks in inline_pool.shipped) == 0
    assert res.num_searches == 0
    assert res.distances == {(5, 5): 0.0, (9, 9): 0.0}


def test_worker_faults_index_tasks(inline_pool, grid):
    graph, pairs = grid
    injector = FaultInjector(stall_worker_at=5, stall_worker_seconds=0.01)
    solve_batch(graph, pairs, method="plain-bids", pool=inline_pool, fault_injector=injector)
    (tasks,) = inline_pool.shipped
    assert [i for i, task in enumerate(tasks) if "stall" in task] == [5]
    assert tasks[5]["stall"] == 0.01
    assert not any("kill" in task for task in tasks)
