"""Compressed sparse row (CSR) graph substrate.

All of Orionet's algorithms operate on a flat, cache-friendly CSR layout:
``indptr`` (``n+1`` offsets), ``indices`` (``m`` neighbor ids) and
``weights`` (``m`` nonnegative edge weights), mirroring the layout used by
the paper's C++ implementation.  Graphs may carry per-vertex coordinates
(``coords``) used by geometric heuristics (A*, BiD-A*).

For directed graphs, the reverse adjacency (in-edges) needed by backward
searches is built lazily via :meth:`Graph.reverse`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = ["Graph", "build_graph", "from_edges", "symmetrize_edges"]

# dtype conventions shared across the library: 64-bit offsets tolerate
# billion-edge graphs, 32-bit vertex ids keep the hot arrays small.
INDPTR_DTYPE = np.int64
VERTEX_DTYPE = np.int32
WEIGHT_DTYPE = np.float64


@dataclass
class Graph:
    """A weighted graph in CSR form.

    Attributes
    ----------
    indptr : int64[n+1]
        Adjacency offsets: neighbors of ``v`` live in
        ``indices[indptr[v]:indptr[v+1]]``.
    indices : int32[m]
        Neighbor vertex ids.
    weights : float64[m]
        Nonnegative edge weights, aligned with ``indices``.
    directed : bool
        Whether edges are one-way.  Undirected graphs store both arcs.
    coords : float64[n, d] or None
        Optional vertex coordinates for geometric heuristics.
    coord_system : str or None
        ``"euclidean"`` or ``"spherical"`` (lon/lat degrees); ``None``
        when the graph has no geometry.
    name : str
        Human-readable label used in experiment reports.
    """

    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    directed: bool = False
    coords: np.ndarray | None = None
    coord_system: str | None = None
    name: str = "graph"
    _reverse: "Graph | None" = field(default=None, repr=False, compare=False)
    _fingerprint: str | None = field(default=None, repr=False, compare=False)
    _edge_src: np.ndarray | None = field(default=None, repr=False, compare=False)
    _csr_views: tuple | None = field(default=None, repr=False, compare=False)
    _out_degrees: np.ndarray | None = field(default=None, repr=False, compare=False)
    _weight_stats: tuple | None = field(default=None, repr=False, compare=False)
    #: pass ``validate=False`` to skip construction checks — only for
    #: diagnostic loads (``repro info``/``validate_graph`` on corrupt files).
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool = True) -> None:
        self.indptr = np.ascontiguousarray(self.indptr, dtype=INDPTR_DTYPE)
        self.indices = np.ascontiguousarray(self.indices, dtype=VERTEX_DTYPE)
        self.weights = np.ascontiguousarray(self.weights, dtype=WEIGHT_DTYPE)
        if self.coords is not None:
            self.coords = np.ascontiguousarray(self.coords, dtype=WEIGHT_DTYPE)
        if not validate:
            return
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be 1-D and start at 0")
        if self.indptr[-1] != len(self.indices):
            raise ValueError("indptr[-1] must equal len(indices)")
        if len(self.indices) != len(self.weights):
            raise ValueError("indices and weights must align")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if len(self.weights):
            # NaN poisons min() comparisons (NaN < 0 is False), so it must
            # be tested explicitly or corrupt weights slip through here
            # and surface as wrong distances later.
            bad = np.flatnonzero(np.isnan(self.weights) | (self.weights < 0))
            if len(bad):
                e = int(bad[0])
                u = int(np.searchsorted(self.indptr, e, side="right") - 1)
                v = int(self.indices[e])
                w = self.weights[e]
                kind = "NaN" if np.isnan(w) else "negative"
                raise ValueError(
                    f"edge weights must be nonnegative and not NaN: "
                    f"edge #{e} ({u} -> {v}) has {kind} weight {w}"
                )
        if len(self.indices):
            lo, hi = int(self.indices.min()), int(self.indices.max())
            if lo < 0 or hi >= self.num_vertices:
                raise ValueError("edge endpoint out of range")
        if self.coords is not None and self.coords.shape[0] != self.num_vertices:
            raise ValueError("coords must have one row per vertex")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of stored arcs (undirected edges count twice)."""
        return len(self.indices)

    def degree(self, v: int | np.ndarray | None = None) -> np.ndarray | int:
        """Out-degree of ``v``, or the full degree array when ``v`` is None.

        Backed by the :meth:`out_degrees` cache; the ``v is None`` form
        returns the cached array itself — do not mutate.
        """
        degs = self.out_degrees()
        if v is None:
            return degs
        return degs[v]

    def out_degrees(self) -> np.ndarray:
        """The full out-degree array ``diff(indptr)`` (cached).

        The engine's relaxation gather and the pool's shard cost
        estimators read per-vertex degrees every step/plan; caching
        removes the twice-per-step ``indptr[v+1] - indptr[v]`` gathers.
        A view of the cache: do not mutate.  Same frozen-graph contract
        as :meth:`fingerprint`.  A directed graph's transpose caches its
        own in-degree array (``graph.reverse().out_degrees()``).
        """
        if self._out_degrees is None:
            self._out_degrees = np.diff(self.indptr)
        return self._out_degrees

    def weight_stats(self) -> tuple[float, float]:
        """``(mean, std)`` of the edge weights (cached; ``(0, 0)`` if empty).

        Two O(m) reductions paid once per graph: ``default_strategy``
        derives its Δ from the mean; the dispersion says how far a
        graph's weights stray from it.
        """
        if self._weight_stats is None:
            if len(self.weights) == 0:
                self._weight_stats = (0.0, 0.0)
            else:
                self._weight_stats = (
                    float(self.weights.mean()),
                    float(self.weights.std()),
                )
        return self._weight_stats

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbor ids of vertex ``v`` (a view, do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[v]:self.indptr[v + 1]]

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (sources, targets, weights) arrays of all stored arcs."""
        return self.edge_sources().copy(), self.indices.copy(), self.weights.copy()

    def edge_sources(self) -> np.ndarray:
        """Source vertex per stored arc, aligned with ``indices`` (cached).

        The CSR expansion ``repeat(arange(n), degree)`` — O(m) once, then
        reused by every edge-parallel sweep (e.g. path reconstruction).
        A view of the cache: do not mutate.  Same frozen-graph contract
        as :meth:`fingerprint`.
        """
        if self._edge_src is None:
            self._edge_src = np.repeat(
                np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.out_degrees()
            )
        return self._edge_src

    def csr_views(self) -> tuple[memoryview, memoryview, memoryview]:
        """``(indptr, indices, weights)`` as zero-copy memoryviews (cached).

        The scalar walks (path reconstruction, per-hop certificate
        checks) touch a handful of edges per vertex, where numpy scalar
        indexing plus ``int()``/``float()`` boxing costs several times
        the comparison itself; indexing a memoryview of the contiguous
        arrays returns native ints and floats without copying the graph
        into Python lists.  Read-only use: do not mutate.  Same
        frozen-graph contract as :meth:`fingerprint`.
        """
        if self._csr_views is None:
            self._csr_views = (
                memoryview(self.indptr),
                memoryview(self.indices),
                memoryview(self.weights),
            )
        return self._csr_views

    def has_coords(self) -> bool:
        return self.coords is not None

    def fingerprint(self) -> str:
        """Cheap content hash of the CSR arrays (cached).

        A SHA-256 digest (first 16 hex chars) over topology, weights and
        directedness — deliberately *not* over ``name``/``coords``, so
        two loads of the same graph agree regardless of labeling.  Used
        by checkpoint manifests and answer certificates to refuse
        resuming/validating against a different graph.  The cache
        assumes the graph is frozen; mutating arrays in place stales it.
        """
        if self._fingerprint is None:
            import hashlib

            h = hashlib.sha256()
            h.update(b"csr-v1;")
            h.update(str(self.num_vertices).encode())
            h.update(b";d;" if self.directed else b";u;")
            h.update(self.indptr.tobytes())
            h.update(self.indices.tobytes())
            h.update(self.weights.tobytes())
            self._fingerprint = h.hexdigest()[:16]
        return self._fingerprint

    # ------------------------------------------------------------------
    # Shared-memory export (process-pool backend substrate)
    # ------------------------------------------------------------------
    def to_shm(self, *, name: str | None = None):
        """Export the CSR arrays into one shared-memory segment.

        Returns a :class:`repro.graphs.shm.SharedGraph` owner handle whose
        picklable ``descriptor`` lets worker processes attach the same
        bytes zero-copy via :meth:`from_shm`.  The caller owns the
        segment: call ``unlink()`` (or use the handle as a context
        manager) when the last worker is done.
        """
        from .shm import export_graph

        return export_graph(self, name=name)

    @staticmethod
    def from_shm(descriptor: dict, *, check: bool = True) -> "Graph":
        """Attach a read-only :class:`Graph` view of a :meth:`to_shm` export.

        With ``check=True`` the attached bytes are re-hashed and compared
        against the descriptor's :meth:`fingerprint`; a mismatch raises
        :class:`repro.graphs.shm.ShmFingerprintError` rather than
        returning a graph that would yield wrong distances.
        """
        from .shm import attach_graph

        return attach_graph(descriptor, check=check)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def reverse(self) -> "Graph":
        """The transpose graph (in-edges as out-edges).

        For undirected graphs this is the graph itself.  Cached, since
        backward searches in BiDS on directed inputs need it every query.
        """
        if not self.directed:
            return self
        if self._reverse is None:
            src, dst, w = self.edges()
            self._reverse = from_edges(
                dst,
                src,
                w,
                num_vertices=self.num_vertices,
                directed=True,
                coords=self.coords,
                coord_system=self.coord_system,
                name=f"{self.name}^T",
            )
            self._reverse._reverse = self
        return self._reverse

    def with_weights(self, weights: np.ndarray) -> "Graph":
        """Copy of this graph with a new weight array (same topology)."""
        return Graph(
            indptr=self.indptr,
            indices=self.indices,
            weights=np.asarray(weights, dtype=WEIGHT_DTYPE),
            directed=self.directed,
            coords=self.coords,
            coord_system=self.coord_system,
            name=self.name,
        )

    def subgraph(self, vertices: np.ndarray) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph (with vertices renumbered ``0..len-1``) and the
        old-id array such that ``old_ids[new] == old``.
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        remap = np.full(self.num_vertices, -1, dtype=np.int64)
        remap[vertices] = np.arange(len(vertices))
        src, dst, w = self.edges()
        keep = (remap[src] >= 0) & (remap[dst] >= 0)
        # Stored arcs are already doubled for undirected graphs, so build
        # as directed and restore the flag afterwards.
        sub = from_edges(
            remap[src[keep]],
            remap[dst[keep]],
            w[keep],
            num_vertices=len(vertices),
            directed=True,
            coords=None if self.coords is None else self.coords[vertices],
            coord_system=self.coord_system,
            name=f"{self.name}[sub]",
        )
        sub.directed = self.directed
        return sub, vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "digraph" if self.directed else "graph"
        return (
            f"Graph(name={self.name!r}, {kind}, n={self.num_vertices}, "
            f"m={self.num_edges}, coords={self.coord_system})"
        )


def from_edges(
    src: Iterable[int],
    dst: Iterable[int],
    weights: Iterable[float],
    *,
    num_vertices: int | None = None,
    directed: bool = False,
    coords: np.ndarray | None = None,
    coord_system: str | None = None,
    name: str = "graph",
    dedupe: bool = False,
) -> Graph:
    """Build a CSR :class:`Graph` from parallel edge arrays.

    Undirected inputs (``directed=False``) are symmetrized: each edge is
    stored as two arcs.  Pass ``dedupe=True`` to collapse parallel edges,
    keeping the minimum weight (the only one shortest paths can use).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(weights, dtype=WEIGHT_DTYPE)
    if not (len(src) == len(dst) == len(w)):
        raise ValueError("src, dst, weights must have equal length")
    if num_vertices is None:
        num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)

    if not directed:
        src, dst, w = symmetrize_edges(src, dst, w)

    if dedupe and len(src):
        key = src * num_vertices + dst
        order = np.lexsort((w, key))
        key, src, dst, w = key[order], src[order], dst[order], w[order]
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        src, dst, w = src[first], dst[first], w[first]

    order = np.argsort(src, kind="stable")
    src, dst, w = src[order], dst[order], w[order]
    indptr = np.zeros(num_vertices + 1, dtype=INDPTR_DTYPE)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return Graph(
        indptr=indptr,
        indices=dst,
        weights=w,
        directed=directed,
        coords=coords,
        coord_system=coord_system,
        name=name,
    )


def symmetrize_edges(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Duplicate each arc in the reverse direction (skipping self-loops)."""
    not_loop = src != dst
    return (
        np.concatenate([src, dst[not_loop]]),
        np.concatenate([dst, src[not_loop]]),
        np.concatenate([w, w[not_loop]]),
    )


def build_graph(
    edge_list: Sequence[tuple[int, int, float]],
    *,
    num_vertices: int | None = None,
    directed: bool = False,
    coords: np.ndarray | None = None,
    coord_system: str | None = None,
    name: str = "graph",
) -> Graph:
    """Convenience builder from a Python list of ``(u, v, w)`` triples."""
    if len(edge_list) == 0:
        n = num_vertices or 0
        return Graph(
            indptr=np.zeros(n + 1, dtype=INDPTR_DTYPE),
            indices=np.empty(0, dtype=VERTEX_DTYPE),
            weights=np.empty(0, dtype=WEIGHT_DTYPE),
            directed=directed,
            coords=coords,
            coord_system=coord_system,
            name=name,
        )
    arr = np.asarray(edge_list, dtype=np.float64)
    return from_edges(
        arr[:, 0].astype(np.int64),
        arr[:, 1].astype(np.int64),
        arr[:, 2],
        num_vertices=num_vertices,
        directed=directed,
        coords=coords,
        coord_system=coord_system,
        name=name,
    )
