"""Work/depth accounting and the simulated parallel machine.

The paper evaluates on a 96-core fork-join machine; CPython cannot run
shared-memory data-parallel loops, so scalability (Fig. 5/9) is
reproduced through the standard work/depth cost model of the binary
fork-join model the paper assumes (Sec. 2):

* every frontier step of a stepping algorithm is one parallel batch;
* a step doing ``w`` units of relaxation work has span
  ``O(log w)`` (parallel-for + write_min tree),
* Brent's scheduling bound gives the ``P``-processor time
  ``T_P = sum_i (w_i / P + c * d_i)``.

This exposes exactly the effect the paper measures: algorithms that
prune more (BiDS, BiD-A*) have less work per step but the same number of
rounds, hence a worse work/span ratio and lower self-relative speedup —
"the simpler the algorithms are, the better scalability they have".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["WorkDepthMeter", "simulated_time", "speedup_curve"]


@dataclass
class WorkDepthMeter:
    """Accumulates per-step work and depth of one algorithm execution.

    ``work`` counts unit operations (edge relaxations, frontier pushes,
    heuristic evaluations); ``depth`` counts the critical path in the
    binary fork-join model.  ``step_work`` keeps the per-step breakdown so
    Brent's bound can be applied step by step (steps are barriers).
    """

    work: float = 0.0
    depth: float = 0.0
    steps: int = 0
    step_work: list = field(default_factory=list)

    def record_step(self, step_work: float, *, span: float | None = None) -> None:
        """Log one stepping round doing ``step_work`` unit operations.

        ``span`` defaults to ``1 + log2(step_work)``: a parallel-for over
        the batch forks a binary tree of that height.
        """
        step_work = max(float(step_work), 1.0)
        if span is None:
            span = 1.0 + math.log2(step_work)
        self.work += step_work
        self.depth += span
        self.steps += 1
        self.step_work.append(step_work)

    def merge(self, other: "WorkDepthMeter") -> None:
        """Fold another execution into this one (sequential composition)."""
        self.work += other.work
        self.depth += other.depth
        self.steps += other.steps
        self.step_work.extend(other.step_work)

    def merge_parallel(self, others: list["WorkDepthMeter"]) -> None:
        """Fold executions that run concurrently (work adds, depth maxes).

        Used by the Plain* batch mode: independent queries run side by
        side, so their steps overlap.  Per-step structure is interleaved
        by zipping the step lists.
        """
        if not others:
            return
        self.work += sum(o.work for o in others)
        self.depth += max(o.depth for o in others)
        self.steps += max(o.steps for o in others)
        longest = max(len(o.step_work) for o in others)
        for i in range(longest):
            combined = sum(o.step_work[i] for o in others if i < len(o.step_work))
            self.step_work.append(combined)

    def simulated_time(self, processors: int, *, sync_cost: float = 1.0) -> float:
        """Brent-bound running time on ``processors`` cores.

        Each step is a barrier: it takes ``ceil(w_i / P)`` work slots plus
        ``sync_cost * span_i`` for the fork/join tree and barrier.
        """
        return simulated_time(self.step_work, processors, sync_cost=sync_cost)

    def speedup(self, processors: int, *, sync_cost: float = 1.0) -> float:
        t1 = self.simulated_time(1, sync_cost=sync_cost)
        tp = self.simulated_time(processors, sync_cost=sync_cost)
        return t1 / tp if tp > 0 else float("inf")


def simulated_time(step_work: list[float], processors: int, *, sync_cost: float = 1.0) -> float:
    """Brent's bound applied per barrier-separated step."""
    if processors < 1:
        raise ValueError("need at least one processor")
    total = 0.0
    for w in step_work:
        span = 1.0 + math.log2(max(w, 1.0))
        total += w / processors + sync_cost * span
    return total


def speedup_curve(
    meter: WorkDepthMeter, processor_counts: list[int], *, sync_cost: float = 1.0
) -> dict[int, float]:
    """Self-relative speedup at each processor count (Fig. 5/9 series)."""
    t1 = meter.simulated_time(1, sync_cost=sync_cost)
    return {
        p: t1 / meter.simulated_time(p, sync_cost=sync_cost) for p in processor_counts
    }
