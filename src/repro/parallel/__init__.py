"""Parallel execution: cost model, edge-gather primitive, process pool.

The cost model *simulates* the paper's machine;
:mod:`repro.parallel.pool` (imported lazily — it pulls in the batch
solvers, which import this package) runs a batch's units on real worker
processes over a shared-memory graph.
"""

from .cost_model import WorkDepthMeter, simulated_time, speedup_curve
from .primitives import expand_ranges

__all__ = [
    "WorkDepthMeter",
    "simulated_time",
    "speedup_curve",
    "expand_ranges",
    "ProcessPool",
    "ShardTimeout",
    "WorkerCrashError",
    "run_units",
]

_POOL_EXPORTS = {"ProcessPool", "ShardTimeout", "WorkerCrashError", "run_units"}


def __getattr__(name):
    # Lazy: pool -> core.batch -> parallel.cost_model -> this package.
    if name in _POOL_EXPORTS:
        from . import pool

        return getattr(pool, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
