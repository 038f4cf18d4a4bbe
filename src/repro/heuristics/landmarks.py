"""ALT landmark heuristics (Goldberg & Harrelson, SODA'05).

The paper positions ALT among the preprocessing-based accelerations
orthogonal to its contribution (Sec. 7).  We include it as an extension
because it composes directly with Orionet's A* and BiD-A* policies and
— unlike geometric heuristics — works on graphs *without coordinates*
(social/web), where the paper's A* rows are blank.

Preprocessing: pick ``k`` landmarks and store exact SSSP distances from
each.  Query: by the triangle inequality,

    h_t(v) = max_L |d(L, t) - d(L, v)|  <=  d(v, t),

a lower bound that is also consistent, so all of Thm. 3.3/3.4 machinery
applies unchanged.  Landmarks are chosen by *farthest-point* selection
(the standard heuristic: spread landmarks toward the periphery) or
uniformly at random.

Only undirected graphs are supported: the symmetric bound above needs
``d(L, v) == d(v, L)``.  Directed ALT needs forward and backward
landmark distances; that variant is out of scope here.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .geometric import Heuristic, MemoizedHeuristic


def _sssp_distances(graph, source):
    # Imported lazily: policies (core) import heuristics, so a top-level
    # import back into core would be circular.
    from ..core.sssp import sssp_distances

    return sssp_distances(graph, source)

__all__ = ["LandmarkSet", "LandmarkHeuristic", "select_landmarks_farthest"]


class LandmarkSet:
    """Preprocessed landmark distances for ALT queries on one graph.

    Parameters
    ----------
    graph : Graph
        Undirected input graph.
    k : int
        Number of landmarks.  More landmarks = tighter bounds, more
        preprocessing and per-query gather cost (classic ALT uses 8-16).
    method : {"farthest", "random"}
        Landmark placement strategy.
    max_cached_targets : int
        Size of the per-target heuristic row cache (see
        :meth:`heuristic_to`).  ``0`` disables caching.
    observer : repro.obs.Observer, optional
        Receives ``on_cache("landmark_h_row", ...)`` events for hits and
        misses of the per-target row cache.  Assignable after
        construction.
    """

    def __init__(
        self,
        graph,
        k: int = 8,
        *,
        method: str = "farthest",
        seed: int = 0,
        max_cached_targets: int = 64,
        observer=None,
    ) -> None:
        if graph.directed:
            raise ValueError("LandmarkSet supports undirected graphs only")
        if k < 1:
            raise ValueError("need at least one landmark")
        if method not in ("farthest", "random"):
            raise ValueError(f"unknown landmark method {method!r}")
        self.graph = graph
        n = graph.num_vertices
        k = min(k, n)
        if method == "random":
            rng = np.random.default_rng(seed)
            self.landmarks = np.sort(rng.choice(n, size=k, replace=False))
            self.dist = np.vstack([_sssp_distances(graph, int(l)) for l in self.landmarks])
        else:
            self.landmarks, self.dist = select_landmarks_farthest(graph, k, seed=seed)
        self.max_cached_targets = int(max_cached_targets)
        self.observer = observer
        self._h_cache: OrderedDict[int, Heuristic] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def k(self) -> int:
        return len(self.landmarks)

    def lower_bound(self, u: int, v: int) -> float:
        """A provable lower bound on d(u, v)."""
        du = self.dist[:, u]
        dv = self.dist[:, v]
        finite = np.isfinite(du) & np.isfinite(dv)
        if not finite.any():
            return 0.0
        return float(np.abs(du[finite] - dv[finite]).max())

    def heuristic_to(self, target: int, *, cache: bool = True) -> Heuristic:
        """The ALT heuristic estimating distance-to-``target``.

        Plug into :class:`~repro.core.policies.AStar` (``heuristic=``) or
        :class:`~repro.core.policies.BiDAStar`
        (``heuristic_to_source=``/``heuristic_to_target=``).

        Heuristics are cached per target (LRU over
        ``max_cached_targets`` entries) and wrapped in a
        :class:`~repro.heuristics.geometric.MemoizedHeuristic`, so the
        ``h`` row built for one query is reused by every later query to
        the same target instead of recomputed from the landmark matrix.
        Pass ``cache=False`` for a fresh, unshared instance (e.g. when
        the caller resets evaluation counters for an ablation).
        """
        target = int(target)
        if not cache or self.max_cached_targets <= 0:
            return LandmarkHeuristic(self, target)
        cached = self._h_cache.get(target)
        if cached is not None:
            self.cache_hits += 1
            self._h_cache.move_to_end(target)
            if self.observer is not None:
                self.observer.on_cache("landmark_h_row", "hit")
            return cached
        self.cache_misses += 1
        if self.observer is not None:
            self.observer.on_cache("landmark_h_row", "miss")
        h: Heuristic = MemoizedHeuristic(
            LandmarkHeuristic(self, target), self.graph.num_vertices
        )
        self._h_cache[target] = h
        while len(self._h_cache) > self.max_cached_targets:
            self._h_cache.popitem(last=False)
            if self.observer is not None:
                self.observer.on_cache("landmark_h_row", "evict")
        return h


class LandmarkHeuristic(Heuristic):
    """``h(v) = max_L |d(L, t) - d(L, v)|`` — admissible and consistent."""

    def __init__(self, landmark_set: LandmarkSet, target: int) -> None:
        super().__init__()
        self.landmark_set = landmark_set
        self.target = int(target)
        dt = landmark_set.dist[:, self.target]
        # Landmarks that cannot see the target give no information.
        self._usable = np.isfinite(dt)
        self._dt = dt[self._usable]

    def _compute(self, vertices: np.ndarray) -> np.ndarray:
        if not self._usable.any():
            return np.zeros(len(vertices))
        dv = self.landmark_set.dist[self._usable][:, vertices]
        diff = np.abs(self._dt[:, None] - dv)
        # A landmark that cannot see v gives inf - finite = inf; mask it.
        diff[~np.isfinite(dv)] = 0.0
        return diff.max(axis=0)


def select_landmarks_farthest(
    graph, k: int, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Farthest-point landmark selection.

    Start from a random vertex; each subsequent landmark is the vertex
    maximizing the minimum distance to the landmarks chosen so far
    (within its connected component reach).  Returns the landmark ids
    and their ``(k, n)`` distance matrix.
    """
    n = graph.num_vertices
    rng = np.random.default_rng(seed)
    first = int(rng.integers(0, n))
    chosen = [first]
    rows = [_sssp_distances(graph, first)]
    min_dist = rows[0].copy()
    while len(chosen) < k:
        # Farthest vertex from the chosen set; a vertex no landmark can
        # reach has min_dist = inf, i.e. is "farthest" — which seeds
        # untouched components automatically.
        candidates = min_dist.copy()
        candidates[chosen] = -np.inf
        nxt = int(np.argmax(candidates))
        if candidates[nxt] == -np.inf:
            break
        chosen.append(nxt)
        row = _sssp_distances(graph, nxt)
        rows.append(row)
        min_dist = np.minimum(min_dist, row)
    return np.array(chosen, dtype=np.int64), np.vstack(rows)
