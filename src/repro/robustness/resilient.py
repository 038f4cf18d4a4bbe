"""Resilient query execution: fallback chains with budgets and retries.

:func:`resilient_ppsp` answers a point-to-point query the way a
production service must: it tries the fastest algorithm first and walks
down a chain of progressively simpler, harder-to-break rungs —

    ``bidastar → bids → et → dijkstra-reference``

Each engine rung runs under its own (fresh) budget and, when checked
mode is on, under an :class:`~repro.robustness.auditor.InvariantAuditor`.
Transient failures (exceptions carrying ``transient=True``, e.g. an
:class:`~repro.robustness.faults.InjectedFault` from chaos tests) are
retried at once on the same rung, optionally gated by a shared
:class:`~repro.serve.overload.RetryBudget` so a fleet of failing
queries cannot mount a retry storm; permanent failures —
an :class:`~repro.robustness.auditor.InvariantViolation`, a missing
heuristic, any policy error — skip straight to the next rung.  The final
rung is the sequential textbook Dijkstra oracle, which shares no code
with the engine and therefore survives anything that breaks it.

The returned :class:`ResilientAnswer` records which rung answered and
every attempt made on the way, so operators can see *how* an answer was
produced, not just what it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api import PPSPAnswer, ppsp, validate_query
from ..baselines.dijkstra import dijkstra_ppsp

__all__ = ["resilient_ppsp", "ResilientAnswer", "AttemptReport", "DEFAULT_CHAIN"]

DEFAULT_CHAIN = ("bidastar", "bids", "et")

#: the chain's terminal rung — engine-free, exact, unconditionally trusted.
REFERENCE_RUNG = "dijkstra-reference"


@dataclass
class AttemptReport:
    """One try of one rung: what ran and how it ended."""

    method: str
    attempt: int
    outcome: str  # "ok" | "inexact" | "error"
    error: str | None = None
    transient: bool = False


@dataclass
class ResilientAnswer:
    """Outcome of a fallback-chain query.

    ``method`` is the rung that produced ``distance``; ``attempts`` is
    the full chronological trail, including failed rungs.  ``exact`` is
    False only when every rung was budget-limited and the best running
    upper bound μ is all we have.
    """

    source: int
    target: int
    distance: float
    exact: bool
    method: str
    attempts: list[AttemptReport] = field(default_factory=list)
    answer: PPSPAnswer | None = None

    @property
    def reachable(self) -> bool:
        return bool(np.isfinite(self.distance))

    def path(self) -> list[int]:
        """Shortest path when an engine rung answered (see PPSPAnswer.path)."""
        if self.answer is not None:
            return self.answer.path()
        raise NotImplementedError(
            f"rung {self.method!r} does not retain path state; "
            "re-run ppsp() with an engine method for a path"
        )


def resilient_ppsp(
    graph,
    source: int,
    target: int,
    *,
    methods: tuple[str, ...] = DEFAULT_CHAIN,
    budget=None,
    retries: int = 1,
    retry_budget=None,
    checked: bool = False,
    reference_fallback: bool = True,
    fault_injector=None,
    observer=None,
    breakers=None,
    **kwargs,
) -> ResilientAnswer:
    """Answer one query through the fallback chain.

    Parameters
    ----------
    methods : tuple of str
        Engine rungs, tried in order (default BiD-A* → BiDS → ET).
    budget : Budget or None
        Per-attempt budget; each attempt gets a fresh meter.  A
        budget-exhausted rung contributes its upper bound and the chain
        moves on.
    retries : int
        Extra tries per rung for *transient* failures, made at once.
    retry_budget : repro.serve.overload.RetryBudget or None
        Shared token bucket gating retries (one token each).  A denied
        acquisition skips the remaining tries on the rung and moves
        down the chain — under overload, degrading beats amplifying.
    checked : bool
        Run every engine rung under a fresh :class:`InvariantAuditor`.
    reference_fallback : bool
        Finish with sequential Dijkstra when no engine rung answered
        exactly (guaranteed-exact terminal rung).
    fault_injector : FaultInjector or None
        Passed through to the engine (chaos testing).
    observer : repro.obs.Observer or None
        Threaded into every engine rung, and notified of each attempt
        via ``on_fallback(method, attempt, outcome)`` — including the
        terminal Dijkstra rung.
    breakers : repro.serve.BreakerBoard or None
        Per-rung circuit breakers.  An open rung is skipped outright
        (recorded as an ``"open"`` attempt with no engine work); every
        admitted attempt reports its success or failure back, so a rung
        that keeps failing trips open across *queries* and traffic
        routes straight to the next rung until its half-open probe
        succeeds.  Budget-exhausted rungs count as failures — a rung
        that cannot answer inside its budget is overloaded.  The
        terminal Dijkstra rung is never gated: it is the answer of last
        resort.

    Remaining keyword arguments flow to :func:`repro.api.ppsp`.
    """
    validate_query(graph, source, target)
    attempts: list[AttemptReport] = []
    best_bound = np.inf
    best_answer: PPSPAnswer | None = None
    best_method: str | None = None

    def note(report: AttemptReport) -> None:
        attempts.append(report)
        if observer is not None:
            observer.on_fallback(report.method, report.attempt, report.outcome)

    for method in methods:
        if breakers is not None and not breakers.allow(method):
            # Tripped open: route to the next rung without paying the
            # failure latency again (attempt 0 = no engine work done).
            note(AttemptReport(method=method, attempt=0, outcome="open"))
            continue
        for attempt in range(1, retries + 2):
            try:
                ans = ppsp(
                    graph,
                    source,
                    target,
                    method=method,
                    budget=budget,
                    checked=checked,
                    fault_injector=fault_injector,
                    observer=observer,
                    **kwargs,
                )
            except Exception as err:  # noqa: BLE001 — each rung must be contained
                if breakers is not None:
                    breakers.record_failure(method)
                transient = bool(getattr(err, "transient", False))
                note(AttemptReport(
                    method=method,
                    attempt=attempt,
                    outcome="error",
                    error=f"{type(err).__name__}: {err}",
                    transient=transient,
                ))
                if transient and attempt <= retries:
                    if retry_budget is not None and not retry_budget.try_acquire():
                        break  # bucket dry: degrade to the next rung
                    continue
                break  # permanent (or retries spent): next rung
            if ans.exact:
                if breakers is not None:
                    breakers.record_success(method)
                note(AttemptReport(method=method, attempt=attempt, outcome="ok"))
                return ResilientAnswer(
                    source=int(source),
                    target=int(target),
                    distance=ans.distance,
                    exact=True,
                    method=method,
                    attempts=attempts,
                    answer=ans,
                )
            # Budget-exhausted: keep the bound, move down the chain.
            if breakers is not None:
                breakers.record_failure(method)
            note(AttemptReport(method=method, attempt=attempt, outcome="inexact"))
            if ans.distance < best_bound:
                best_bound, best_answer, best_method = ans.distance, ans, method
            break

    if reference_fallback:
        distance = dijkstra_ppsp(graph, int(source), int(target))
        note(AttemptReport(method=REFERENCE_RUNG, attempt=1, outcome="ok"))
        return ResilientAnswer(
            source=int(source),
            target=int(target),
            distance=distance,
            exact=True,
            method=REFERENCE_RUNG,
            attempts=attempts,
        )
    return ResilientAnswer(
        source=int(source),
        target=int(target),
        distance=float(best_bound),
        exact=False,
        method=best_method or "none",
        attempts=attempts,
        answer=best_answer,
    )
