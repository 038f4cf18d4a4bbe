"""The paper's Δ tuning (Sec. 6.1), cached per graph.

:func:`calibrate_delta` runs the doubling procedure for the Δ*-stepping
bucket width: start small, run SSSP, double Δ until the running time
stops improving.  Cached by :meth:`Graph.fingerprint`, so repeated
engines over the same graph pay the tuning runs once per process.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["calibrate_delta"]

_DELTA_CACHE: dict[str, float] = {}


def calibrate_delta(graph, *, source: int | None = None, doublings: int = 10) -> float:
    """Pick Δ by the paper's doubling procedure (Sec. 6.1), cached.

    Starting from ``mean_weight / 4``, run SSSP and double Δ until the
    running time converges to its minimum (three stale doublings stop
    the search).  The result is cached by :meth:`Graph.fingerprint`, so
    two loads of the same graph share one tuning pass per process.
    """
    if graph.num_edges == 0:
        return 1.0
    key = graph.fingerprint()
    if key in _DELTA_CACHE:
        return _DELTA_CACHE[key]
    # Lazy core imports: the engine imports this package at module level.
    from ..core.engine import run_policy
    from ..core.policies import SsspPolicy
    from ..core.stepping import DeltaStepping

    if source is None:
        source = int(np.argmax(graph.out_degrees()))  # a well-connected seed
    delta = max(float(graph.weights.mean()) / 4.0, 1e-9)
    best_delta, best_time = delta, float("inf")
    stale = 0
    for _ in range(doublings):
        t0 = time.perf_counter()
        run_policy(graph, SsspPolicy(source), strategy=DeltaStepping(delta))
        elapsed = time.perf_counter() - t0
        if elapsed < best_time * 0.97:
            best_time, best_delta = elapsed, delta
            stale = 0
        else:
            stale += 1
            if stale >= 3:
                break
        delta *= 2.0
    _DELTA_CACHE[key] = best_delta
    return best_delta
