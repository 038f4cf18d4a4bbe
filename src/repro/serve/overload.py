"""Overload control: retry budgets and CoDel.

Serving survives faults by *retrying* work (fallback-chain rung
retries) and survives floods by *refusing* work (degrading to budgeted
answers, shedding at the door).  Both mechanisms amplify load if left
unbounded: a retry storm doubles traffic exactly when the system can
least afford it.  This module holds the small controllers that keep
them bounded, used by :func:`repro.robustness.resilient.resilient_ppsp`
and :class:`repro.serve.service.QueryService`:

* :class:`RetryBudget` — a token bucket bounding resilient rung
  retries.  When the bucket is dry, retries are denied and callers
  degrade instead of amplifying; denials are counted.
* :class:`CoDelShedder` — queue-delay controller in the spirit of
  CoDel: a queue is healthy while *some* recent batch saw sojourn
  below target, overloaded once sojourn stays above target for a full
  interval.  Sojourn (time queued) is the signal, not queue length —
  a long-but-draining queue is fine, a short-but-stuck one is not.

:class:`OverloadController` composes the CoDel detector with a
degradation ladder — exact -> inexact (deadline-derived budget) ->
shed — and is what :class:`~repro.serve.service.QueryService`
consults.

Every controller takes an injectable clock (see
:mod:`repro.robustness.clock`) so tests drive decisions with
:class:`~repro.robustness.clock.SimClock` instead of sleeping.
"""

from __future__ import annotations

import threading

from ..robustness.clock import as_clock

__all__ = [
    "RetryBudget",
    "CoDelShedder",
    "OverloadController",
]


class RetryBudget:
    """A token bucket bounding resilient-chain retries.

    Every rung retry draws from *one* bucket, so a fleet of failing
    queries cannot mount a retry storm.  Tokens refill continuously at
    ``refill_per_s`` up to ``capacity``; a denied acquisition is counted
    in :attr:`denied` and reported to the observer, and the caller is
    expected to degrade — fall through to the next rung — rather than
    wait.

    Thread-safe: the service dispatcher thread and submitting threads
    may share one budget.
    """

    def __init__(
        self,
        capacity: float = 16.0,
        refill_per_s: float = 2.0,
        *,
        clock=None,
        observer=None,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if refill_per_s < 0:
            raise ValueError(f"refill_per_s must be >= 0, got {refill_per_s}")
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self.observer = observer
        self._now = as_clock(clock)
        self._tokens = self.capacity
        self._stamp = self._now()
        self._lock = threading.Lock()
        self.granted = 0
        self.denied = 0

    def _refill_locked(self) -> None:
        now = self._now()
        elapsed = now - self._stamp
        self._stamp = now
        if elapsed > 0 and self.refill_per_s > 0:
            self._tokens = min(self.capacity, self._tokens + elapsed * self.refill_per_s)

    def available(self) -> float:
        """Tokens currently in the bucket (after refill)."""
        with self._lock:
            self._refill_locked()
            return self._tokens

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; deny (and count) otherwise."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                self.granted += 1
                return True
            self.denied += 1
        if self.observer is not None:
            self.observer.on_retry_denied("retry")
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RetryBudget(available={self.available():.2f}/{self.capacity}, "
            f"granted={self.granted}, denied={self.denied})"
        )


class CoDelShedder:
    """Persistent-queue-delay detector (CoDel's controlling idea).

    Feed it the worst sojourn (queued time) of each flushed batch; it
    reports *overloaded* only once sojourn has stayed at or above
    ``target_s`` for a full ``interval_s`` — transient bursts that
    drain within an interval never trip it.  One below-target
    observation resets the state.
    """

    def __init__(self, target_s: float = 0.1, interval_s: float = 1.0, *, clock=None) -> None:
        if target_s <= 0:
            raise ValueError(f"target_s must be > 0, got {target_s}")
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.target_s = float(target_s)
        self.interval_s = float(interval_s)
        self._now = as_clock(clock)
        self._above_since: float | None = None
        self.overloaded = False

    def observe(self, sojourn_s: float) -> bool:
        """Record one batch's worst sojourn; return the overload state."""
        now = self._now()
        if sojourn_s < self.target_s:
            self._above_since = None
            self.overloaded = False
        else:
            if self._above_since is None:
                self._above_since = now
            self.overloaded = (now - self._above_since) >= self.interval_s
        return self.overloaded

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CoDelShedder(target={self.target_s}, overloaded={self.overloaded})"


class OverloadController:
    """The service's adaptive admission policy: CoDel + ladder.

    Decisions, in escalation order (the degradation ladder):

    ``exact``
        The default: batches run unmodified.
    ``inexact``
        When the CoDel detector reports persistent overload *and*
        ``degrade_budget_ms`` is configured, flushed queries gain a
        deadline ``flush + degrade_budget_ms`` — the pipeline's
        existing deadline machinery turns that into a wall-time
        budget, so answers degrade to certified upper bounds instead
        of queueing further.  Leave ``degrade_budget_ms`` unset to
        keep the ladder exact -> shed.
    ``shed``
        At submission time: a brand-new query is refused outright when
        the *oldest* queued query has waited longer than
        ``shed_multiple x target`` — the queue is no longer draining,
        so adding to it only manufactures timeouts.
    """

    def __init__(
        self,
        *,
        clock=None,
        target_ms: float = 100.0,
        interval_ms: float = 1000.0,
        shed_multiple: float = 8.0,
        degrade_budget_ms: float | None = None,
        observer=None,
    ) -> None:
        if shed_multiple <= 0:
            raise ValueError(f"shed_multiple must be > 0, got {shed_multiple}")
        if degrade_budget_ms is not None and degrade_budget_ms <= 0:
            raise ValueError(f"degrade_budget_ms must be > 0, got {degrade_budget_ms}")
        self.codel = CoDelShedder(target_ms / 1e3, interval_ms / 1e3, clock=clock)
        self.shed_sojourn_s = float(shed_multiple) * self.codel.target_s
        self.degrade_budget_s = None if degrade_budget_ms is None else degrade_budget_ms / 1e3
        self.observer = observer
        self.counts = {"exact": 0, "inexact": 0, "shed": 0}

    def should_shed(self, *, oldest_sojourn_s: float) -> bool:
        """Door decision for one new submission (queue not draining?)."""
        if oldest_sojourn_s <= self.shed_sojourn_s:
            return False
        self.counts["shed"] += 1
        if self.observer is not None:
            self.observer.on_overload_decision("shed")
            self.observer.on_overload_shed()
        return True

    def flush_mode(self, max_sojourn_s: float) -> str:
        """Ladder decision for one flushed batch: ``exact``/``inexact``."""
        overloaded = self.codel.observe(max_sojourn_s)
        mode = "inexact" if (overloaded and self.degrade_budget_s is not None) else "exact"
        self.counts[mode] += 1
        if self.observer is not None:
            self.observer.on_overload_decision(mode)
        return mode

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OverloadController(counts={self.counts}, codel={self.codel!r})"
