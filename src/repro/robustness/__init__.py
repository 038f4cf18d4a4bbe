"""Resilient query execution: budgets, checked mode, fault injection.

The production-hardening layer over the PPSP engine:

* :mod:`~repro.robustness.budget` — bounded work with graceful
  degradation (``exact=False`` answers instead of crashes);
* :mod:`~repro.robustness.auditor` — checked mode: runtime enforcement
  of the paper's correctness invariants (Thm. 3.3/3.4);
* :mod:`~repro.robustness.faults` — deterministic fault injection for
  chaos tests;
* :mod:`~repro.robustness.clock` — simulated time, so deadlines and
  breaker cooldowns are chaos-testable without sleeping;
* :mod:`~repro.robustness.resilient` — the ``bidastar → bids → et →
  dijkstra-reference`` fallback chain, one try per rung.
"""

from .auditor import InvariantAuditor, InvariantViolation
from .budget import Budget, BudgetMeter, BudgetReport
from .clock import SimClock
from .faults import FaultInjector, InjectedFault
from .resilient import DEFAULT_CHAIN, AttemptReport, ResilientAnswer, resilient_ppsp

__all__ = [
    "Budget",
    "SimClock",
    "BudgetMeter",
    "BudgetReport",
    "InvariantAuditor",
    "InvariantViolation",
    "FaultInjector",
    "InjectedFault",
    "resilient_ppsp",
    "ResilientAnswer",
    "AttemptReport",
    "DEFAULT_CHAIN",
]
