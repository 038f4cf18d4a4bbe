"""The edge-gather primitive in the vectorized-batch execution style.

:func:`expand_ranges` is the numpy realization of the parallel gather
the paper's C++ code performs with ParlayLib: O(k) work and O(log k)
span over the k edges it produces.
"""

from __future__ import annotations

import numpy as np

__all__ = ["expand_ranges"]


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s+c)`` for each (s, c) pair, vectorized.

    The edge-gather primitive: given CSR offsets of a frontier, produce
    the flat index array of all incident edges.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    nz = counts > 0
    starts, counts = starts[nz], counts[nz]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # Build per-position deltas whose prefix sum walks every range: +1
    # inside a range, and a jump to the next range's start at boundaries.
    deltas = np.ones(total, dtype=np.int64)
    pos = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=pos[1:])
    prev_end = np.concatenate([[0], starts[:-1] + counts[:-1] - 1])
    deltas[pos] = starts - prev_end
    return np.cumsum(deltas)
