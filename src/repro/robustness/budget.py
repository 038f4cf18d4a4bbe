"""Execution budgets: bounded work with graceful degradation.

A :class:`Budget` is an immutable *spec* — limits on engine steps, edge
relaxations, and wall-clock time.  Starting it yields a stateful
:class:`BudgetMeter` that the engine charges as it runs; a single meter
can be shared across several engine runs (the batch solvers do this) so
that one budget covers a whole batch.

Exhaustion is not an error.  The engine stops at the next step boundary
and reports the partial state: the policy's running upper bound μ is
still a valid bound on the true distance (it only ever reflects real
paths), so callers get ``exact=False`` plus the best answer found in the
time allotted instead of an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Budget", "BudgetMeter", "BudgetReport"]


@dataclass(frozen=True)
class Budget:
    """Resource limits for one or more engine runs.

    Any subset of the limits may be set; ``None`` means unlimited.

    Parameters
    ----------
    max_steps : int or None
        Maximum engine steps (rounds of Alg. 2) across the metered runs.
    max_relaxations : int or None
        Maximum edge relaxations across the metered runs.
    wall_time : float or None
        Wall-clock limit in seconds, measured from :meth:`start`.
    clock : callable or None
        The time source ``wall_time`` is measured against: a
        zero-argument callable returning seconds, or an object with a
        ``now()`` method (a :class:`~repro.robustness.clock.SimClock`).
        ``None`` — the default — means real time (``time.monotonic``);
        deadline tests pass a simulated clock so wall-time exhaustion
        is deterministic.
    """

    max_steps: int | None = None
    max_relaxations: int | None = None
    wall_time: float | None = None
    clock: object | None = None

    def __post_init__(self) -> None:
        for name in ("max_steps", "max_relaxations", "wall_time"):
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative, got {v}")

    @property
    def unlimited(self) -> bool:
        return self.max_steps is None and self.max_relaxations is None and self.wall_time is None

    def start(self) -> "BudgetMeter":
        """Begin metering against this budget (starts the wall clock)."""
        return BudgetMeter(self)


@dataclass
class BudgetReport:
    """What a metered run (or run sequence) actually consumed."""

    exhausted: bool
    reason: str | None
    steps: int
    relaxations: int
    elapsed: float
    budget: Budget

    def to_dict(self) -> dict:
        """JSON-friendly rendering (used by the CLI)."""
        return {
            "exhausted": self.exhausted,
            "reason": self.reason,
            "steps": self.steps,
            "relaxations": self.relaxations,
            "elapsed_seconds": round(self.elapsed, 6),
            "limits": {
                "max_steps": self.budget.max_steps,
                "max_relaxations": self.budget.max_relaxations,
                "wall_time": self.budget.wall_time,
            },
        }


@dataclass
class BudgetMeter:
    """Stateful consumption tracker for one :class:`Budget`.

    The engine asks :meth:`reached` at each step boundary and
    :meth:`charge` after the step's work is known, so a budget may
    overshoot by at most one step's relaxations — bounded slop in
    exchange for never interrupting a half-applied ``write_min`` batch.
    A reached limit cuts a run only while the run has work left; the
    engine then trips :meth:`check`, which records the reason.  A run
    that spends its budget to the last unit and finishes is not cut.
    """

    budget: Budget
    steps: int = 0
    relaxations: int = 0
    reason: str | None = field(default=None)
    _t0: float = field(default=0.0)

    def __post_init__(self) -> None:
        from .clock import as_clock

        self._now = as_clock(self.budget.clock)
        self._t0 = self._now()

    def charge(self, *, steps: int = 0, relaxations: int = 0) -> None:
        self.steps += steps
        self.relaxations += relaxations

    @property
    def elapsed(self) -> float:
        return self._now() - self._t0

    @property
    def exhausted(self) -> bool:
        """True once a tripped check cut a run short."""
        return self.reason is not None

    def reached(self) -> str | None:
        """The limit the counters have reached, or ``None``; records nothing."""
        b = self.budget
        if b.max_steps is not None and self.steps >= b.max_steps:
            return f"max_steps={b.max_steps} reached"
        if b.max_relaxations is not None and self.relaxations >= b.max_relaxations:
            return f"max_relaxations={b.max_relaxations} reached"
        if b.wall_time is not None and self.elapsed >= b.wall_time:
            return f"wall_time={b.wall_time}s reached"
        return None

    def check(self) -> str | None:
        """Trip: record the reached limit as the reason a run was cut.

        Sticky: once a limit trips, later calls keep reporting it even
        if counters were somehow reduced.
        """
        if self.reason is None:
            self.reason = self.reached()
        return self.reason

    def report(self) -> BudgetReport:
        """What was consumed; ``exhausted`` only when a check tripped."""
        return BudgetReport(
            exhausted=self.reason is not None,
            reason=self.reason,
            steps=self.steps,
            relaxations=self.relaxations,
            elapsed=self.elapsed,
            budget=self.budget,
        )
