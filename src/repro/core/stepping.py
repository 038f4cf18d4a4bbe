r"""Stepping-algorithm strategies: the ``GetDist`` plug-ins of Alg. 1.

The stepping framework (Dong et al., SPAA'21) abstracts parallel SSSP
algorithms by how they pick the per-step extraction threshold θ:

* **Δ\*-stepping** — the ``i``-th step extracts everything below
  ``i·Δ`` (the paper's default; best on large-diameter graphs);
* **ρ-stepping** — extract the ρ closest frontier elements;
* **Bellman-Ford** — extract the whole frontier every step;
* **Dijkstra** — extract only the minimum-priority elements, which
  reproduces the sequential settle order (used as an in-framework oracle).

Strategies are tiny stateful objects: ``reset()`` before a run, then
``threshold(priorities)`` once per step with the current frontier's
priority array.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "SteppingStrategy",
    "DeltaStepping",
    "RhoStepping",
    "BellmanFord",
    "DijkstraOrder",
    "default_strategy",
]


class SteppingStrategy:
    """Base class for ``GetDist`` policies."""

    def reset(self) -> None:
        """Prepare for a fresh run (strategies may keep step counters)."""

    def threshold(self, priorities: np.ndarray) -> float:
        """Extraction threshold θ for this step.

        ``priorities`` is the nonempty frontier's priority array; the
        returned θ must be >= its minimum so every step makes progress.
        """
        raise NotImplementedError


class DeltaStepping(SteppingStrategy):
    r"""Δ\*-stepping: θ is the end of the minimum element's bucket.

    Each step extracts every element with priority below ``(i+1)·Δ``
    where ``i`` is the bucket of the current frontier minimum — i.e. the
    current bucket is processed (one relaxation wave per step) until it
    drains, then θ advances to the next nonempty bucket.  Keyed off the
    live minimum rather than a step counter so θ never runs ahead of the
    search wavefront, which matters for A* priorities that start near
    ``h(source)``.
    """

    def __init__(self, delta: float) -> None:
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.delta = float(delta)

    def threshold(self, priorities: np.ndarray) -> float:
        lo = float(priorities.min())
        bucket = math.floor(lo / self.delta)
        return (bucket + 1) * self.delta


class RhoStepping(SteppingStrategy):
    """ρ-stepping: extract the ρ smallest-priority elements each step."""

    def __init__(self, rho: int) -> None:
        if rho < 1:
            raise ValueError("rho must be >= 1")
        self.rho = int(rho)

    def threshold(self, priorities: np.ndarray) -> float:
        if len(priorities) <= self.rho:
            return float("inf")
        kth = np.partition(priorities, self.rho - 1)[self.rho - 1]
        return float(kth)


class BellmanFord(SteppingStrategy):
    """Process the entire frontier every step (maximum parallelism)."""

    def threshold(self, priorities: np.ndarray) -> float:
        return float("inf")


class DijkstraOrder(SteppingStrategy):
    """Extract only minimum-priority elements: Dijkstra's settle order.

    Within the framework this is exact Dijkstra (ties processed
    together), so it doubles as a correctness oracle for the stepping
    engine itself.
    """

    def threshold(self, priorities: np.ndarray) -> float:
        return float(priorities.min())


def default_strategy(graph) -> DeltaStepping:
    """Δ*-stepping with Δ = twice the mean edge weight.

    A function of the graph's weights alone, so every process that
    answers part of a batch picks the same Δ.  The paper's Sec. 6.1
    doubling procedure (:func:`repro.kernels.calibrate.calibrate_delta`)
    times SSSP runs; callers that want its Δ pass
    ``DeltaStepping(calibrate_delta(graph))`` themselves.
    """
    if graph.num_edges == 0:
        return DeltaStepping(1.0)
    mean_w, _ = graph.weight_stats()
    return DeltaStepping(max(mean_w * 2.0, 1e-12))
