"""ProcessPool.ping, dispatch and shipping checks — no real workers.

A probe that dies with an ``OSError`` (a torn pipe, not a worker
crash) must not be silently folded into a bare ``False``: the failure
class is logged, counted per exception type on the observer, and the
executor is respawned.  An executor that broke while idle fails at
``submit`` already; dispatch must treat that like a break at a result.
Dispatch returns shard results in shard order whatever order the
shards finish in, and reports each shard's own latency.  The fake
executors below keep this tier-1 (fork-free); the real-pool behaviour
rides in the fork-heavy suites.
"""

from __future__ import annotations

import logging
import threading

from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs import Observer
from repro.parallel.pool import ProcessPool, WorkerCrashError, shippable_kwargs
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
    """Completes each shard after its own delay, on a timer thread."""

    def __init__(self, delays):
        self.delays = delays
        self.finished: list[int] = []
        self.timers: list[threading.Timer] = []

    def submit(self, fn, task):
        future = Future()
        future.set_running_or_notify_cancel()

        def finish(shard=task["shard"]):
            self.finished.append(shard)
            future.set_result({"shard": shard, "units": []})

        timer = threading.Timer(self.delays[task["shard"]], finish)
        self.timers.append(timer)
        timer.start()
        return future


class _ShardLog:
    def __init__(self):
        self.shards: list[tuple[str, float]] = []

    def on_pool_shard(self, status, seconds):
        self.shards.append((status, seconds))


def test_run_shards_out_of_order_in_shard_order_with_own_latency(monkeypatch):
    delays = {0: 0.45, 1: 0.05, 2: 0.25}
    fake = _TimedExecutor(delays)
    log = _ShardLog()
    p = ProcessPool(workers=3, observer=log)
    monkeypatch.setattr(p, "_ensure_executor", lambda: fake)
    results = p.run_shards([{"shard": i} for i in range(3)])
    for timer in fake.timers:
        timer.join(timeout=5)
        assert not timer.is_alive()
    assert fake.finished == [1, 2, 0]
    assert [r["shard"] for r in results] == [0, 1, 2]
    assert [status for status, _ in log.shards] == ["ok"] * 3
    latency = [seconds for _, seconds in log.shards]
    for shard, seconds in enumerate(latency):
        assert seconds >= 0.9 * delays[shard], (shard, latency)
    assert latency[1] < latency[2] < latency[0]


@pytest.mark.parametrize("fault", ["flip_checkpoint", "flip_cache_payload"])
def test_parent_side_faults_ship(fault):
    """These faults act in the parent, after a checkpoint write or on a
    warm-cache hit, so the pool may run the batch."""
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
