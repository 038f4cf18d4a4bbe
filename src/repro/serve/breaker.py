"""Per-method circuit breakers: isolate a failing algorithm rung.

A :class:`CircuitBreaker` guards one execution method (``bidastar``,
``multi``, ...) with the classic three-state machine::

                 K consecutive failures
        CLOSED ─────────────────────────▶ OPEN
          ▲                                │
          │ probe succeeds                 │ cooldown elapses
          │                                ▼
          └───────────────────────── HALF-OPEN
                     probe fails ──▶ back to OPEN

* **closed** — traffic flows; consecutive failures are counted and any
  success resets the count.
* **open** — :meth:`allow` refuses traffic, so callers route straight to
  the next rung of their fallback chain instead of paying the failure
  latency again (the batch pipeline does exactly this).
* **half-open** — after ``cooldown`` seconds the next :meth:`allow`
  admits a single probe; success closes the breaker, failure reopens it
  and restarts the cooldown.

Time comes from an injectable clock (see :mod:`repro.robustness.clock`),
so trips and recoveries are deterministic under chaos seeds.  A
:class:`BreakerBoard` lazily manages one breaker per method and mirrors
every transition into the observability layer (``repro_breaker_state``
gauge, ``repro_breaker_transitions_total`` counter).
"""

from __future__ import annotations

from ..robustness.clock import as_clock

__all__ = ["CircuitBreaker", "BreakerBoard", "CLOSED", "HALF_OPEN", "OPEN", "STATE_VALUES"]

CLOSED = "closed"
HALF_OPEN = "half-open"
OPEN = "open"

#: numeric encoding used on the ``repro_breaker_state`` gauge.
STATE_VALUES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """The state machine guarding one method.

    Parameters
    ----------
    name : str
        The guarded method; used on metrics and in transition records.
    failure_threshold : int
        Consecutive failures that trip the breaker.
    cooldown : float
        Seconds an open breaker refuses traffic before admitting a
        half-open probe.
    clock : callable or SimClock or None
        Time source for the cooldown; ``None`` means real time.
    on_transition : callable or None
        ``on_transition(name, new_state)`` fired on every state change
        (the :class:`BreakerBoard` wires this to the observer).
    """

    def __init__(
        self,
        name: str,
        *,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock=None,
        on_transition=None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be nonnegative, got {cooldown}")
        self.name = str(name)
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._now = as_clock(clock)
        self.on_transition = on_transition
        self.state = CLOSED
        self.failures = 0  # consecutive, since the last success
        self.opened_at: float | None = None
        #: chronological (time, new_state) transitions since creation.
        self.transitions: list[tuple[float, str]] = []

    # ------------------------------------------------------------------
    def _set(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        self.transitions.append((self._now(), state))
        if self.on_transition is not None:
            self.on_transition(self.name, state)

    def allow(self) -> bool:
        """May traffic flow through this method right now?

        An open breaker flips to half-open once the cooldown has
        elapsed, admitting the call that asked as its probe.
        """
        if self.state == OPEN:
            if self._now() - self.opened_at >= self.cooldown:
                self._set(HALF_OPEN)
            else:
                return False
        return True

    def record_success(self) -> None:
        """An admitted call succeeded: reset failures, close if probing."""
        self.failures = 0
        if self.state != CLOSED:
            self._set(CLOSED)

    def record_failure(self) -> None:
        """An admitted call failed: count it; trip or re-open as needed."""
        self.failures += 1
        if self.state == HALF_OPEN or self.failures >= self.failure_threshold:
            self.opened_at = self._now()
            self._set(OPEN)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CircuitBreaker({self.name!r}, state={self.state!r}, "
            f"failures={self.failures}/{self.failure_threshold})"
        )


class BreakerBoard:
    """One breaker per method, created on first use, shared settings.

    The board is what the serve pipeline and
    :func:`~repro.robustness.resilient.resilient_ppsp` consult:
    ``allow(method)`` gates each rung, ``record_success`` /
    ``record_failure`` feed outcomes back.  Every transition (plus the
    initial closed state) is reported to ``observer.on_breaker`` when an
    observer is attached.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown: float = 30.0,
        clock=None,
        observer=None,
    ) -> None:
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._clock = clock
        self.observer = observer
        self._breakers: dict[str, CircuitBreaker] = {}

    # ------------------------------------------------------------------
    def breaker(self, method: str) -> CircuitBreaker:
        """The breaker guarding ``method`` (created closed on first use)."""
        b = self._breakers.get(method)
        if b is None:
            b = CircuitBreaker(
                method,
                failure_threshold=self.failure_threshold,
                cooldown=self.cooldown,
                clock=self._clock,
                on_transition=self._on_transition,
            )
            self._breakers[method] = b
            if self.observer is not None:
                self.observer.on_breaker(method, CLOSED, transition=False)
        return b

    def _on_transition(self, method: str, state: str) -> None:
        if self.observer is not None:
            self.observer.on_breaker(method, state)

    # -- the caller-facing protocol ------------------------------------
    def allow(self, method: str) -> bool:
        return self.breaker(method).allow()

    def record_success(self, method: str) -> None:
        self.breaker(method).record_success()

    def record_failure(self, method: str) -> None:
        self.breaker(method).record_failure()

    def state(self, method: str) -> str:
        return self.breaker(method).state

    def states(self) -> dict[str, str]:
        """Current state of every breaker the board has created."""
        return {m: b.state for m, b in sorted(self._breakers.items())}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BreakerBoard({self.states()!r})"
