"""Overload-control unit tests: retry budgets, CoDel, ladder.

The controllers are exercised directly under :class:`SimClock`, then
end-to-end through an inline :class:`QueryService` (door shedding,
degraded flushes).  Everything here is simulated
time — tier-1 fast and deterministic.
"""

from __future__ import annotations

import pytest

from repro.obs import Observer
from repro.robustness import SimClock
from repro.serve import (
    SHED,
    CoDelShedder,
    OverloadController,
    QueryService,
    RetryBudget,
)


class TestRetryBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=-1.0)
        with pytest.raises(ValueError):
            RetryBudget(refill_per_s=-0.1)

    def test_drains_then_denies(self):
        clock = SimClock()
        obs = Observer()
        budget = RetryBudget(capacity=2.0, refill_per_s=0.0, clock=clock,
                             observer=obs)
        assert budget.try_acquire() and budget.try_acquire()
        assert not budget.try_acquire()
        assert not budget.try_acquire()
        assert budget.denied == 2
        assert budget.granted == 2
        denials = obs.registry.get("repro_overload_retry_denials_total")
        assert denials.value(kind="retry") == 2

    def test_refills_over_simulated_time(self):
        clock = SimClock()
        budget = RetryBudget(capacity=2.0, refill_per_s=1.0, clock=clock)
        assert budget.try_acquire() and budget.try_acquire()
        assert not budget.try_acquire()
        clock.advance(1.5)
        assert budget.available() == pytest.approx(1.5)
        assert budget.try_acquire()
        assert not budget.try_acquire()

    def test_refill_caps_at_capacity(self):
        clock = SimClock()
        budget = RetryBudget(capacity=3.0, refill_per_s=10.0, clock=clock)
        clock.advance(100.0)
        assert budget.available() == pytest.approx(3.0)


class TestCoDel:
    def test_validation(self):
        with pytest.raises(ValueError):
            CoDelShedder(target_s=0.0)
        with pytest.raises(ValueError):
            CoDelShedder(interval_s=0.0)

    def test_transient_burst_does_not_trip(self):
        clock = SimClock()
        codel = CoDelShedder(target_s=0.1, interval_s=1.0, clock=clock)
        assert not codel.observe(0.5)  # above target, timer starts
        clock.advance(0.5)
        assert not codel.observe(0.5)  # still inside the interval
        assert not codel.observe(0.01)  # drained: resets the timer
        clock.advance(2.0)
        assert not codel.observe(0.5)  # fresh excursion, not overloaded

    def test_persistent_delay_trips_after_interval(self):
        clock = SimClock()
        codel = CoDelShedder(target_s=0.1, interval_s=1.0, clock=clock)
        assert not codel.observe(0.2)
        clock.advance(1.0)
        assert codel.observe(0.2)
        assert codel.overloaded
        assert not codel.observe(0.05)  # one good batch clears it


class TestController:
    def _ctl(self, clock, **kwargs):
        kwargs.setdefault("target_ms", 100.0)
        kwargs.setdefault("interval_ms", 1000.0)
        return OverloadController(clock=clock, **kwargs)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._ctl(SimClock(), shed_multiple=0.0)
        with pytest.raises(ValueError):
            self._ctl(SimClock(), degrade_budget_ms=0.0)

    def test_door_shed_threshold(self):
        ctl = self._ctl(SimClock(), shed_multiple=8.0)
        assert not ctl.should_shed(oldest_sojourn_s=0.8)
        assert ctl.should_shed(oldest_sojourn_s=0.81)
        assert ctl.counts["shed"] == 1

    def test_ladder_is_exact_to_shed_without_degrade_budget(self):
        clock = SimClock()
        ctl = self._ctl(clock)  # no degrade_budget_ms
        ctl.flush_mode(0.5)
        clock.advance(2.0)
        assert ctl.flush_mode(0.5) == "exact"  # overloaded, but no budget
        assert ctl.codel.overloaded

    def test_ladder_degrades_with_budget_configured(self):
        clock = SimClock()
        ctl = self._ctl(clock, degrade_budget_ms=250.0)
        assert ctl.flush_mode(0.5) == "exact"
        clock.advance(2.0)
        assert ctl.flush_mode(0.5) == "inexact"
        assert ctl.counts == {"exact": 1, "inexact": 1, "shed": 0}


def _service(graph, **kwargs):
    clock = kwargs.pop("clock", None) or SimClock()
    kwargs.setdefault("method", "multi")
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_ms", 100.0)
    return QueryService(graph, clock=clock, **kwargs), clock


class TestServiceIntegration:
    def test_healthy_service_never_sheds_or_degrades(self, serve_graph,
                                                     serve_pairs):
        svc, clock = _service(serve_graph)
        futs = [svc.submit(s, t) for s, t in serve_pairs[:4]]
        svc.close()
        assert all(f.result().outcome == "ok" for f in futs)
        stats = svc.stats()
        assert stats["shed"] == 0
        assert stats["degraded"] == 0
        assert stats["overload"]["decisions"]["inexact"] == 0

    def test_stuck_queue_sheds_new_queries_at_the_door(self, serve_graph,
                                                       serve_pairs):
        svc, clock = _service(serve_graph)
        first = svc.submit(*serve_pairs[0])
        clock.advance(1.0)  # oldest sojourn past 8 x 100 ms
        shed = svc.submit(*serve_pairs[1])
        assert shed.done()  # refused synchronously
        res = shed.result()
        assert res.outcome == SHED
        assert res.batch_index == -1
        assert res.distance == float("inf")
        # duplicates of a queued query still coalesce instead of shedding
        dup = svc.submit(*serve_pairs[0])
        assert not dup.done()
        svc.close()
        assert first.result().outcome == "ok"
        assert dup.result().outcome == "ok"
        assert svc.stats()["shed"] == 1

    def test_persistent_delay_degrades_flushes(self, serve_graph,
                                               serve_pairs):
        svc, clock = _service(serve_graph, degrade_budget_ms=500.0)
        svc.submit(*serve_pairs[0])
        clock.advance(0.3)
        svc.flush()  # above target: starts the CoDel timer, still exact
        svc.submit(*serve_pairs[1])
        clock.advance(1.2)
        svc.flush()  # persistently above target for > interval: inexact
        stats = svc.stats()
        assert stats["degraded"] == 1
        assert stats["overload"]["decisions"]["inexact"] == 1
        svc.close()
