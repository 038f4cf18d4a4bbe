"""Shortest-path reconstruction from converged distance arrays.

The engine maintains distances, not parent pointers (parent updates
would add contention in the parallel setting and the paper's queries
return distances).  Paths are recovered afterwards by the standard
backward walk: from ``t``, repeatedly step to any in-neighbor ``u`` with
``dist[u] + w(u, t) == dist[t]``.  For bidirectional runs the forward
and backward walks are stitched at the meeting vertex
``argmin_v δ[v^+] + δ[v^-]``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["walk_path", "stitch_bidirectional_path", "meeting_vertex", "PathError"]

_REL_TOL = 1e-9
_ABS_TOL = 1e-9


class PathError(RuntimeError):
    """Raised when no consistent path exists (e.g. unreachable target)."""


def walk_path(graph, dist: np.ndarray, source: int, target: int) -> list[int]:
    """Reconstruct a shortest path ``source -> target`` from SSSP distances.

    ``dist`` must be (at least on the path) converged distances from
    ``source`` over ``graph``.  Runs the backward walk over in-edges
    (``graph.reverse()`` handles directed inputs).
    """
    if not np.isfinite(dist[target]):
        raise PathError(f"target {target} unreachable")
    rev = graph if not graph.directed else graph.reverse()
    source = int(source)
    target = int(target)
    return _walk_path_dfs(rev, dist, source, target)


def _walk_path_dfs(rev, dist: np.ndarray, source: int, target: int) -> list[int]:
    """Backtracking walk over the valid-predecessor relation.

    Scalar scans over the cached ``csr_views()`` memoryviews: at typical
    road/knn degrees each hop touches a handful of edges, where numpy
    scalar indexing and boxing dominate the walk.
    A greedy single walk is not enough: on a zero-weight plateau every
    neighbor looks equally good and a wrong witness can strand the walk
    in an already-visited pocket, so we must be able to back out.
    Strict-progress candidates (dist[u] < dist[v]) are pushed last and
    therefore explored first; plateau hops only when forced.
    """
    indptr, indices, weights = rev.csr_views()
    ditem = dist.item
    stack = [target]
    parent: dict[int, int | None] = {target: None}
    while stack:
        v = stack.pop()
        if v == source:
            path = []
            u: int | None = v
            while u is not None:
                path.append(u)
                u = parent[u]
            return path
        dv = ditem(v)
        tol = _ABS_TOL + _REL_TOL * abs(dv)
        candidates = []
        for e in range(indptr[v], indptr[v + 1]):
            u = indices[e]
            if u in parent:
                continue
            du = ditem(u)
            # |dist[u] + w - dist[v]| <= atol + rtol * |dist[v]| —
            # np.isclose semantics; an unreachable du (inf) overflows the
            # bound and drops out without a separate finiteness mask.
            if abs(du + weights[e] - dv) <= tol:
                candidates.append((du, u))
        # Descending-distance push order; stable for plateau ties.
        candidates.sort(key=lambda c: c[0], reverse=True)
        for _, u in candidates:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    raise PathError(f"no shortest-path certificate from {source} to {target}")


def meeting_vertex(dist_forward: np.ndarray, dist_backward: np.ndarray) -> int:
    """The vertex minimizing δ[v^+] + δ[v^-] (lies on a shortest s-t path)."""
    total = dist_forward + dist_backward
    best = int(np.argmin(total))
    if not np.isfinite(total[best]):
        raise PathError("searches never met: target unreachable")
    return best


def stitch_bidirectional_path(
    graph, dist_forward: np.ndarray, dist_backward: np.ndarray, s: int, t: int
) -> list[int]:
    """Full s-t path from the two halves of a bidirectional run.

    ``dist_forward`` is from ``s`` over the graph; ``dist_backward``
    from ``t`` over the reverse orientation (== the graph itself when
    undirected).
    """
    m = meeting_vertex(dist_forward, dist_backward)
    forward = walk_path(graph, dist_forward, s, m)
    rev = graph if not graph.directed else graph.reverse()
    backward = walk_path(rev, dist_backward, t, m)
    # backward is t -> m in the reverse orientation == m -> t in the graph.
    return forward + backward[::-1][1:]
