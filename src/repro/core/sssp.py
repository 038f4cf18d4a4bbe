"""Single-source shortest paths on the stepping engine.

Plain SSSP is both the paper's baseline (the "SSSP" rows of Tab. 4) and
the substrate of the SSSP-based batch solutions (Sec. 4.3).  It is the
engine run with a policy that never prunes.
"""

from __future__ import annotations

import numpy as np

from .engine import RunResult, run_policy
from .policies import SsspPolicy

__all__ = ["sssp", "sssp_distances"]


def sssp(graph, source: int, **engine_kwargs) -> RunResult:
    """Full shortest-path distances from ``source``.

    Engine keywords (``strategy``, ``frontier_mode``, ``meter``, ...)
    ride through to :func:`~repro.core.engine.run_policy`.  The returned
    :class:`RunResult` has the distance row in
    ``result.distances_from(0)``; unreachable vertices hold ``inf``.
    """
    return run_policy(graph, SsspPolicy(source), **engine_kwargs)


def sssp_distances(graph, source: int, **kwargs) -> np.ndarray:
    """Distance array only (convenience for callers that drop the stats)."""
    return sssp(graph, source, **kwargs).distances_from(0)
