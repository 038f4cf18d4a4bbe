"""Answer checks against ``scipy.sparse.csgraph.dijkstra``.

The reference reads the graph file with NumPy alone and shares no code
with ``repro``.  It runs after the timed part, so it costs nothing
inside the measurement.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

#: relative tolerance for summation order; measured agreement is ~1e-15.
RTOL = 1e-9
#: searches run this far (relative) past the claimed distance, well
#: beyond RTOL, so a correct claim is never cut off.
LIMIT_SLACK = 1e-6


class Reference:
    """Exact distances and edge weights of one ``save_npz`` graph file."""

    def __init__(self, graph_path: str) -> None:
        with np.load(graph_path, allow_pickle=False) as data:
            indptr = data["indptr"].astype(np.int64)
            indices = data["indices"].astype(np.int64)
            weights = data["weights"].astype(np.float64)
            self.directed = bool(data["directed"])
        n = len(indptr) - 1
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        # Keep the lightest of parallel arcs: csr_matrix would sum them.
        key = rows * n + indices
        order = np.lexsort((weights, key))
        key, weights = key[order], weights[order]
        first = np.concatenate(([True], key[1:] != key[:-1]))
        key, weights = key[first], weights[first]
        self.n = n
        self.matrix = csr_matrix((weights, (key // n, key % n)), shape=(n, n))
        self._arc_key = key
        self._arc_weight = weights

    def distances(self, pairs: np.ndarray, claimed: np.ndarray) -> np.ndarray:
        """Exact d(s, t) for every row (s, t) of ``pairs``, or ``inf``.

        One Dijkstra per distinct source, stopped just beyond the largest
        distance claimed for that source.  A pair whose true distance
        lies beyond that limit comes back ``inf``: it cannot agree with
        a finite claim, so the check stays exact while the searches
        stay small.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        claimed = np.asarray(claimed, dtype=np.float64)
        sources, inverse = np.unique(pairs[:, 0], return_inverse=True)
        out = np.empty(len(pairs))
        for k, source in enumerate(sources):
            pick = np.flatnonzero(inverse == k)
            limit = claimed[pick].max()
            limit = limit * (1 + LIMIT_SLACK) if np.isfinite(limit) else np.inf
            row = dijkstra(self.matrix, directed=self.directed, indices=source, limit=limit)
            out[pick] = row[pairs[pick, 1]]
        return out

    def path_length(self, path) -> float:
        """Sum of the arc weights along ``path``; ``nan`` if a hop is no arc."""
        path = np.asarray(path, dtype=np.int64)
        if len(path) < 2:
            return 0.0
        want = path[:-1] * self.n + path[1:]
        pos = np.searchsorted(self._arc_key, want)
        pos = np.minimum(pos, len(self._arc_key) - 1)
        if not (self._arc_key[pos] == want).all():
            return float("nan")
        return float(self._arc_weight[pos].sum())


def agrees(answer: float, truth: float) -> bool:
    """Equal within :data:`RTOL`, relative to ``max(1, |truth|)``."""
    if not np.isfinite(truth) or not np.isfinite(answer):
        return bool(answer == truth)
    return abs(answer - truth) <= RTOL * max(1.0, abs(truth))
