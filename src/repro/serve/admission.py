"""Admission control: priorities, deadlines, and explicit load shedding.

A production batch endpoint cannot accept unbounded work: past some
queue depth every query gets slower and every deadline is missed — the
congestion-collapse regime the stragglers of the stepping-algorithm
literature fall into.  The serve pipeline instead *admits* a bounded,
priority-ordered prefix of the submitted queries and **sheds** the rest
with an explicit ``shed`` outcome, so low-priority queries fail fast and
everything admitted keeps its latency.

Shedding is deterministic: ordering depends only on (priority,
submission order), never on time or load measurements, so an interrupted
job resumed from a checkpoint sheds exactly the same queries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.answer import FAILED, INEXACT, OK, OUTCOMES, REPAIRED, SHED, TIMEOUT

__all__ = [
    "ServeQuery",
    "AdmissionController",
    "OK",
    "INEXACT",
    "SHED",
    "TIMEOUT",
    "FAILED",
    "REPAIRED",
    "OUTCOMES",
]


@dataclass
class ServeQuery:
    """One admitted unit of work: a query plus its service parameters.

    ``priority`` orders execution and shedding (higher first, ties by
    submission order).  ``deadline`` is an *absolute* instant on the
    pipeline's clock; queries whose deadline passes before they start
    get a ``timeout`` outcome, and queries running into their deadline
    degrade to the budgeted upper bound (``exact=False``) instead.
    """

    source: int
    target: int
    priority: int = 0
    deadline: float | None = None

    def __post_init__(self) -> None:
        self.source = int(self.source)
        self.target = int(self.target)
        self.priority = int(self.priority)
        if self.deadline is not None:
            self.deadline = float(self.deadline)

    @property
    def key(self) -> tuple[int, int]:
        return (self.source, self.target)


class AdmissionController:
    """Bounded priority admission over one submitted batch.

    ``max_queue`` is the service capacity in queries; ``None`` admits
    everything.  :meth:`admit` partitions the submissions into the
    admitted prefix (in execution order: priority descending, then
    submission order) and the shed remainder (the lowest-priority,
    latest-submitted queries — the ones a loaded service can refuse at
    least cost).
    """

    def __init__(self, max_queue: int | None = None) -> None:
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = max_queue
        self.admitted = 0
        self.shed = 0

    def admit(self, queries: list[ServeQuery]) -> tuple[list[ServeQuery], list[ServeQuery]]:
        order = sorted(range(len(queries)), key=lambda i: (-queries[i].priority, i))
        cut = len(order) if self.max_queue is None else min(self.max_queue, len(order))
        admitted = [queries[i] for i in order[:cut]]
        shed = [queries[i] for i in order[cut:]]
        self.admitted += len(admitted)
        self.shed += len(shed)
        return admitted, shed
