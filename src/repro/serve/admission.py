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
    "admit",
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


def admit(
    queries: list[ServeQuery], max_queue: int | None
) -> tuple[list[ServeQuery], list[ServeQuery]]:
    """Bounded priority admission over one submitted batch.

    ``max_queue`` is the service capacity in queries; ``None`` admits
    everything.  Returns the admitted prefix (in execution order:
    priority descending, then submission order) and the shed remainder
    (the lowest-priority, latest-submitted queries — the ones a loaded
    service can refuse at least cost).
    """
    order = sorted(range(len(queries)), key=lambda i: (-queries[i].priority, i))
    cut = len(order) if max_queue is None else min(max_queue, len(order))
    return [queries[i] for i in order[:cut]], [queries[i] for i in order[cut:]]
