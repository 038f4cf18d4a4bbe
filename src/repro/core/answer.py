"""One answer record per query, shared by every layer that answers.

A :class:`QueryAnswer` is built where a search answers its query — a
batch unit (:func:`repro.core.batch.run_unit`), the resilient chain, or
the serve pipeline's repair — and the same record is carried through
:class:`~repro.core.batch.BatchResult`,
:class:`~repro.serve.pipeline.PipelineResult` and the query service's
futures.  Its ``outcome`` takes one of the closed vocabulary below.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueryAnswer", "AnswerLookup", "OK", "INEXACT", "SHED", "TIMEOUT", "FAILED",
           "REPAIRED", "OUTCOMES"]

#: terminal per-query outcomes.
OK = "ok"              # exact answer
INEXACT = "inexact"    # budget/deadline-limited: the answer is an upper bound
SHED = "shed"          # refused by admission control (never executed)
TIMEOUT = "timeout"    # deadline expired before execution began
FAILED = "failed"      # every rung errored; no answer at all
REPAIRED = "repaired"  # verification refuted the answer; exact recompute healed it
OUTCOMES = (OK, INEXACT, SHED, TIMEOUT, FAILED, REPAIRED)


@dataclass(frozen=True)
class QueryAnswer:
    """One query's answer, as the search that answered it left it.

    ``exact`` is False when a budget or deadline cut that search: the
    distance is then its current upper bound (``inf`` when it never
    reached the target).  ``certificate`` is set under ``certify``.
    ``path`` is the shortest vertex path where the serving layer
    collects one (``collect_paths``); a batch walks its paths on demand
    through :meth:`~repro.core.batch.BatchResult.path`.
    """

    distance: float
    exact: bool = True
    outcome: str = OK
    certificate: object = None
    path: tuple | None = None

    @classmethod
    def of(cls, distance, exact: bool, certificate=None, path=None) -> "QueryAnswer":
        """A search's answer: ``ok`` when it finished, ``inexact`` when cut."""
        return cls(float(distance), bool(exact), OK if exact else INEXACT, certificate, path)


class AnswerLookup:
    """Per-pair reads over an ``answers`` dict of :class:`QueryAnswer`.

    ``distances`` and ``exact`` are read-only views over the executed
    records (a shed query was never executed); ``answers`` is the one
    store.
    """

    answers: dict
    directed: bool

    def _keys(self, s: int, t: int) -> tuple:
        """Lookup keys for one pair: also the reversed one when undirected."""
        return ((s, t),) if self.directed else ((s, t), (t, s))

    def answer(self, s: int, t: int) -> QueryAnswer:
        """The record answering one pair, under its stored key.

        An undirected result answers either orientation; a directed one
        only the pair as asked.  A pair that was never asked raises a
        ``ValueError`` naming it, rather than a bare ``KeyError`` on the
        reversed key.
        """
        s, t = int(s), int(t)
        for key in self._keys(s, t):
            if key in self.answers:
                return self.answers[key]
        raise ValueError(f"pair ({s}, {t}) was never part of this batch")

    def distance(self, s: int, t: int) -> float:
        """The answered distance for one pair (``inf`` when shed)."""
        return self.answer(s, t).distance

    @property
    def distances(self) -> dict:
        """Read-only view: each executed key's distance."""
        return {k: a.distance for k, a in self.answers.items() if a.outcome != SHED}

    @property
    def exact(self) -> bool:
        """True when every executed answer is exact."""
        return all(a.exact for a in self.answers.values() if a.outcome != SHED)
