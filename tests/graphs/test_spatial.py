"""Grid-based exact k-NN, kept as an oracle for the KD-tree backend.

:mod:`repro.graphs.knn` uses scipy's KD-tree; the index below is an
independent, dependency-free implementation of the classic uniform-grid
method: hash points into cells sized so a cell holds ~k points, then for
each query expand rings of cells until the k-th candidate distance is
*certified* (no unexplored cell can contain a closer point).  The tests
cross-validate the two backends, which makes either one a check on the
other.

Intended for the low-dimensional point sets the paper's k-NN graphs come
from (2–3 dims); grid methods degrade above that.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.graphs import Graph, from_edges
from repro.graphs.knn import clustered_points, knn_graph, skewed_points, uniform_points


class GridIndex:
    """Uniform-grid spatial index over a point set."""

    def __init__(self, points: np.ndarray, *, target_per_cell: float = 4.0) -> None:
        points = np.ascontiguousarray(points, dtype=np.float64)
        if points.ndim != 2:
            raise ValueError("points must be a 2-D array")
        n, dim = points.shape
        if dim > 4:
            raise ValueError("grid index supports up to 4 dimensions")
        self.points = points
        self.dim = dim
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = np.maximum(hi - lo, 1e-12)
        # Cells per axis so that an average cell holds ~target_per_cell.
        cells_total = max(int(n / target_per_cell), 1)
        per_axis = max(int(round(cells_total ** (1.0 / dim))), 1)
        self.shape = np.full(dim, per_axis, dtype=np.int64)
        self.cell_size = span / self.shape
        self.origin = lo

        coords = self.cell_of(points)
        flat = self._flatten(coords)
        order = np.argsort(flat, kind="stable")
        self._order = order
        self._flat_sorted = flat[order]
        # cell id -> slice into order via searchsorted.
        self._unique_cells, self._starts = np.unique(self._flat_sorted, return_index=True)
        self._ends = np.append(self._starts[1:], len(flat))

    # ------------------------------------------------------------------
    def cell_of(self, pts: np.ndarray) -> np.ndarray:
        """Integer cell coordinates for each point (clamped to grid)."""
        raw = np.floor((pts - self.origin) / self.cell_size).astype(np.int64)
        return np.clip(raw, 0, self.shape - 1)

    def _flatten(self, coords: np.ndarray) -> np.ndarray:
        flat = coords[..., 0]
        for axis in range(1, self.dim):
            flat = flat * self.shape[axis] + coords[..., axis]
        return flat

    def points_in_cells(self, flat_ids: np.ndarray) -> np.ndarray:
        """Indices of all points living in the given flat cell ids."""
        pos = np.searchsorted(self._unique_cells, flat_ids)
        chunks = []
        for p, cid in zip(pos, flat_ids):
            if p < len(self._unique_cells) and self._unique_cells[p] == cid:
                chunks.append(self._order[self._starts[p]:self._ends[p]])
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def ring_cells(self, center: np.ndarray, radius: int) -> np.ndarray:
        """Flat ids of cells at Chebyshev distance exactly ``radius``."""
        rng = np.arange(-radius, radius + 1)
        grids = np.meshgrid(*([rng] * self.dim), indexing="ij")
        offsets = np.stack([g.ravel() for g in grids], axis=-1)
        if radius > 0:
            on_ring = np.abs(offsets).max(axis=1) == radius
            offsets = offsets[on_ring]
        cells = center + offsets
        ok = ((cells >= 0) & (cells < self.shape)).all(axis=1)
        cells = cells[ok]
        if len(cells) == 0:
            return np.empty(0, dtype=np.int64)
        return np.unique(self._flatten(cells))

    def query(self, idx: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest *other* points to point ``idx`` (exact).

        Returns (neighbor indices, distances), sorted by distance.
        Rings expand until the k-th best distance is no larger than the
        closest possible point in any unexplored ring.
        """
        p = self.points[idx]
        center = self.cell_of(p[None, :])[0]
        max_radius = int(self.shape.max())
        found_idx = np.empty(0, dtype=np.int64)
        found_d = np.empty(0)
        min_cell = float(self.cell_size.min())
        for radius in range(max_radius + 1):
            cells = self.ring_cells(center, radius)
            if len(cells):
                cand = self.points_in_cells(cells)
                cand = cand[cand != idx]
                if len(cand):
                    d = np.sqrt(((self.points[cand] - p) ** 2).sum(axis=1))
                    found_idx = np.concatenate([found_idx, cand])
                    found_d = np.concatenate([found_d, d])
            if len(found_d) >= k:
                kth = np.partition(found_d, k - 1)[k - 1]
                # Any point in ring radius+1 is at least radius*min_cell
                # away (the certified lower bound).
                if kth <= radius * min_cell:
                    break
        order = np.argsort(found_d, kind="stable")[:k]
        return found_idx[order], found_d[order]


def knn_graph_grid(points: np.ndarray, k: int = 5, *, name: str = "knn") -> Graph:
    """Exact k-NN graph via the grid index (same contract as
    :func:`repro.graphs.knn.knn_graph`)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    n = len(points)
    if n <= k:
        raise ValueError("need more points than k")
    index = GridIndex(points)
    src = np.repeat(np.arange(n), k)
    dst = np.empty(n * k, dtype=np.int64)
    w = np.empty(n * k)
    for i in range(n):
        nbrs, dists = index.query(i, k)
        dst[i * k:(i + 1) * k] = nbrs
        w[i * k:(i + 1) * k] = dists
    return from_edges(
        src, dst, w, num_vertices=n, directed=False, dedupe=True,
        coords=points, coord_system="euclidean", name=name,
    )


class TestGridIndex:
    def test_query_matches_bruteforce(self):
        pts = uniform_points(300, 2, seed=1)
        idx = GridIndex(pts)
        for i in (0, 50, 299):
            nbrs, dists = idx.query(i, 5)
            d = np.sqrt(((pts - pts[i]) ** 2).sum(axis=1))
            d[i] = np.inf
            want = np.sort(d)[:5]
            assert np.allclose(np.sort(dists), want)

    def test_query_3d(self):
        pts = uniform_points(200, 3, seed=2)
        idx = GridIndex(pts)
        nbrs, dists = idx.query(7, 4)
        d = np.sqrt(((pts - pts[7]) ** 2).sum(axis=1))
        d[7] = np.inf
        assert np.allclose(np.sort(dists), np.sort(d)[:4])

    def test_never_returns_self(self):
        pts = uniform_points(100, 2, seed=3)
        idx = GridIndex(pts)
        for i in range(0, 100, 17):
            nbrs, _ = idx.query(i, 6)
            assert i not in nbrs

    def test_clustered_points(self):
        pts = clustered_points(400, 2, seed=4)
        idx = GridIndex(pts)
        tree = cKDTree(pts)
        for i in (3, 100, 399):
            _, dists = idx.query(i, 5)
            ref, _ = tree.query(pts[i], k=6)
            assert np.allclose(np.sort(dists), ref[1:])

    def test_high_dim_rejected(self):
        with pytest.raises(ValueError, match="4 dimensions"):
            GridIndex(np.zeros((10, 5)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            GridIndex(np.zeros(10))


class TestKnnGraphGrid:
    @pytest.mark.parametrize("maker,dim", [
        (uniform_points, 2),
        (clustered_points, 2),
        (skewed_points, 2),
        (uniform_points, 3),
    ])
    def test_matches_kdtree_backend(self, maker, dim):
        """Both backends must produce the identical k-NN graph."""
        pts = maker(250, dim, seed=9)
        a = knn_graph_grid(pts, k=5)
        b = knn_graph(pts, k=5)
        sa = set(map(tuple, np.column_stack(a.edges()[:2]).tolist()))
        sb = set(map(tuple, np.column_stack(b.edges()[:2]).tolist()))
        # Neighbor ties at equal distance may resolve differently; compare
        # the distance multiset per vertex instead of identities.
        assert a.num_vertices == b.num_vertices
        for v in range(0, a.num_vertices, 13):
            da = np.sort(a.neighbor_weights(v))
            db = np.sort(b.neighbor_weights(v))
            m = min(len(da), len(db))
            assert np.allclose(da[:m], db[:m]), v
        # And the vast majority of edges should be identical outright.
        overlap = len(sa & sb) / max(len(sa | sb), 1)
        assert overlap > 0.95

    def test_shortest_paths_agree_across_backends(self):
        from repro.baselines import dijkstra

        pts = uniform_points(200, 2, seed=11)
        a = knn_graph_grid(pts, k=5)
        b = knn_graph(pts, k=5)
        assert np.allclose(dijkstra(a, 0), dijkstra(b, 0))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            knn_graph_grid(uniform_points(4, 2, seed=0), k=5)

    def test_coords_attached(self):
        pts = uniform_points(60, 2, seed=12)
        g = knn_graph_grid(pts, k=3)
        assert g.coord_system == "euclidean"
        assert g.coords.shape == (60, 2)
