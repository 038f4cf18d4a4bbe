"""CSR gather for relaxation waves.

:func:`gather_relax` expands a batch of frontier elements into one
proposal per out-edge with two ``np.repeat`` expansions over the
elements' out-degrees:

* the edge ids, as each element's first CSR slot minus its first output
  slot, repeated per edge, plus the output position;
* the proposed distances, as each element's tentative distance repeated
  per edge, plus the edge weight.

Zero-degree elements repeat zero times, so they need no filtering pass.
Every proposal is the same float64 addition of the same two operands as
in the textbook ``dist[u] + w(u, v)``, so the values are bit-identical
to any other construction of the wave.
"""

from __future__ import annotations

import numpy as np

__all__ = ["gather_relax"]

_EMPTY_I8 = np.empty(0, dtype=np.int64)
_EMPTY_F8 = np.empty(0, dtype=np.float64)


def gather_relax(graph, eids, v, src_off, dist, *, scratch=None):
    """Expand the out-edges of ``eids`` into per-edge relaxation proposals.

    Parameters mirror the engine's batch state: ``eids`` are composite
    element ids, ``v = eids % n`` their vertices, ``src_off = eids - v``
    their source-row offsets, ``dist`` the flat distance array.  When
    ``dist`` holds a single search (``len(dist) == n``) the targets are
    the neighbour ids themselves and ``src_off`` is not read.
    ``scratch`` is unused; it stays in the signature so that wrappers
    forwarding it keep working.

    Returns ``(te, new_d, edge_count)``: composite target id (int64) and
    proposed distance per touched edge, as fresh arrays.
    """
    counts = graph.out_degrees()[v]
    total = int(counts.sum())
    if total == 0:
        return _EMPTY_I8, _EMPTY_F8, 0
    ends = np.cumsum(counts)
    # Edge id at output slot p of element j: indptr[v_j] + (p - first_j).
    edge_idx = np.repeat(graph.indptr[v] - (ends - counts), counts)
    edge_idx += np.arange(total)

    new_d = np.repeat(dist[eids], counts)
    new_d += graph.weights[edge_idx]

    if len(dist) == graph.num_vertices:
        te = graph.indices[edge_idx].astype(np.int64)
    else:
        te = np.repeat(src_off, counts)
        te += graph.indices[edge_idx]
    return te, new_d, total
