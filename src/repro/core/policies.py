"""Init / Prune / UpdateDistance triples — the paper's Table 2.

Every PPSP algorithm in Orionet is one small policy class plugged into
the shared engine:

=============  ==========================  =================================
algorithm      Prune(v)                    UpdateDistance(v)
=============  ==========================  =================================
ET             δ[v] >= μ                   v == t: write_min(μ, δ[v])
A*             δ[v] + h(v) >= μ            v == t: write_min(μ, δ[v])
BiDS           δ[v^±] >= μ/2               write_min(μ, δ[v^+] + δ[v^-])
BiD-A*         δ[v^±] + h_±(v) >= μ/2      write_min(μ, δ[v^+] + δ[v^-])
Multi-PPSP     δ[v^(i)] >= μ_max[i]/2      per query edge (q_i, q_j):
                                           write_min(μ[i,j], δ[v^i]+δ[v^j])
=============  ==========================  =================================

The BiD-A* heuristics are the consistent pair of Sec. 3.5:
``h_F(v) = (h_t(v) - h_s(v)) / 2`` and ``h_B = -h_F``, guiding both
searches toward the perpendicular-bisector region while keeping the
induced edge weights identical in both directions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..heuristics.geometric import Heuristic, make_heuristic

if TYPE_CHECKING:  # pragma: no cover
    from ..graphs.csr import Graph

__all__ = [
    "Policy",
    "SsspPolicy",
    "EarlyTermination",
    "AStar",
    "BiDS",
    "BiDAStar",
    "MultiPPSP",
]


class Policy:
    """Base policy: plain multi-source search with no pruning.

    Subclasses override the Table-2 hooks.  ``bind`` is called once per
    run with the graph and the flat ``k*n`` distance array and returns
    the seed elements (``Init``).
    """

    #: number of concurrent searches (rows of the distance matrix).
    num_sources: int = 1

    def __init__(self) -> None:
        self.graph: "Graph | None" = None
        self.n = 0
        self._extra_work = 0.0

    # -- Init ----------------------------------------------------------
    def bind(self, graph: "Graph", dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    # -- Prune ---------------------------------------------------------
    def prunable(self) -> bool:
        """Whether Prune can currently reject anything.

        The engine skips the (vectorized) mask evaluation entirely while
        this is False — e.g. before any s-t path has been found (μ = ∞),
        when every prune test would trivially fail.
        """
        return False

    def prune_bound(self, eids: np.ndarray):
        """Prune threshold: an element is skipped once its priority
        reaches it (a scalar, or one bound per element of ``eids``)."""
        return np.inf

    def prune_mask(self, eids: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """True where the search at an element should be skipped."""
        return self.priority(eids, dist) >= self.prune_bound(eids)

    # -- UpdateDistance -------------------------------------------------
    def on_relax(self, eids: np.ndarray, dist: np.ndarray) -> None:
        """Fold successfully relaxed elements into the running answer."""

    # -- framework plumbing ---------------------------------------------
    def priority(self, eids: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """Ordering key used by GetDist extraction (δ, or δ+h for A*)."""
        return dist[eids]

    def source_graph(self, i: int) -> "Graph":
        """The CSR the ``i``-th search traverses (reverse for backward)."""
        return self.graph

    def finished(self, frontier_ids: np.ndarray, dist: np.ndarray) -> bool:
        """Early-termination hook checked once per step (ids sorted)."""
        return False

    def result(self):
        """The answer this run computed."""
        raise NotImplementedError

    def charge(self, units: float) -> None:
        """Charge extra unit work (e.g. heuristic evaluations) to the step."""
        self._extra_work += units

    def take_extra_work(self) -> float:
        w, self._extra_work = self._extra_work, 0.0
        return w

    def trace_mu(self) -> float:
        """Current best-answer bound shown in step traces (NaN = n/a)."""
        return float("nan")


class SsspPolicy(Policy):
    """Single-source shortest paths: no pruning, answer = distance row.

    This is the plain "SSSP" row of Tab. 4 and the building block of the
    SSSP-based batch solutions.
    """

    def __init__(self, source: int) -> None:
        super().__init__()
        self.source = int(source)

    def bind(self, graph, dist):
        self.graph = graph
        self.n = graph.num_vertices
        if not (0 <= self.source < self.n):
            raise ValueError(f"source {self.source} out of range")
        self._dist = dist
        return np.array([self.source]), np.array([0.0])

    def result(self) -> np.ndarray:
        return self._dist


class _SingleQueryMixin:
    """Shared (s, t) validation and μ bookkeeping for single queries."""

    def _init_query(self, graph: "Graph", s: int, t: int) -> None:
        n = graph.num_vertices
        if not (0 <= s < n and 0 <= t < n):
            raise ValueError(f"query ({s}, {t}) out of range for n={n}")
        self.s = int(s)
        self.t = int(t)
        self.mu = 0.0 if s == t else np.inf

    def result(self) -> float:
        return float(self.mu)

    def trace_mu(self) -> float:
        return float(self.mu)

    def prunable(self):
        return np.isfinite(self.mu)

    def prune_bound(self, eids):
        return self.mu

    def on_relax(self, eids, dist):
        # eids are sorted and unique; membership test via searchsorted.
        pos = np.searchsorted(eids, self.t)
        if pos < len(eids) and eids[pos] == self.t:
            self.mu = min(self.mu, float(dist[self.t]))


class _BidirectionalMixin(_SingleQueryMixin):
    """Shared BiDS / BiD-A* hooks: the two searches meet at μ/2."""

    num_sources = 2

    def source_graph(self, i: int):
        if i == 1 and self.graph.directed:
            return self.graph.reverse()
        return self.graph

    def prune_bound(self, eids):
        return self.mu / 2.0

    def on_relax(self, eids, dist):
        n = self.n
        v = eids % n
        partner = np.where(eids < n, v + n, v)
        # Unreached partners give inf, which cannot lower μ.
        best = float((dist[eids] + dist[partner]).min())
        if best < self.mu:
            self.mu = best

    def finished(self, frontier_ids, dist):
        # App. B disconnected-query optimization: if μ was never set and
        # one direction's search has drained, the endpoints cannot meet.
        # The ids are sorted, so the two ends tell which sides remain.
        if not self.disconnected_early_exit or np.isfinite(self.mu):
            return False
        if len(frontier_ids) == 0:
            return False
        n = self.n
        return bool(frontier_ids[-1] < n or frontier_ids[0] >= n)


class EarlyTermination(_SingleQueryMixin, Policy):
    """Unidirectional search pruned at the current best distance μ."""

    def __init__(self, s: int, t: int) -> None:
        Policy.__init__(self)
        self._s_arg, self._t_arg = s, t

    def bind(self, graph, dist):
        self.graph = graph
        self.n = graph.num_vertices
        self._init_query(graph, self._s_arg, self._t_arg)
        return np.array([self.s]), np.array([0.0])


class AStar(_SingleQueryMixin, Policy):
    """A*: ET with a consistent heuristic folded into priority and prune.

    ``heuristic`` estimates distance-to-target; defaults to the graph's
    geometric heuristic with memoization (Sec. 5).  Pass
    ``memoize=False`` to reproduce the Fig. 6 ablation.
    """

    def __init__(
        self,
        s: int,
        t: int,
        *,
        heuristic: Heuristic | None = None,
        memoize: bool = True,
    ) -> None:
        Policy.__init__(self)
        self._s_arg, self._t_arg = s, t
        self._heuristic_arg = heuristic
        self._memoize = memoize
        self.heuristic: Heuristic | None = None

    def bind(self, graph, dist):
        self.graph = graph
        self.n = graph.num_vertices
        self._init_query(graph, self._s_arg, self._t_arg)
        if self._heuristic_arg is not None:
            self.heuristic = self._heuristic_arg
        else:
            self.heuristic = make_heuristic(graph, self.t, memoize=self._memoize)
        return np.array([self.s]), np.array([0.0])

    def _h(self, vertices: np.ndarray) -> np.ndarray:
        before = self.heuristic.evaluated
        vals = self.heuristic(vertices)
        self.charge(self.heuristic.evaluated - before)
        return vals

    def priority(self, eids, dist):
        return dist[eids] + self._h(eids)


class BiDS(_BidirectionalMixin, Policy):
    """Bidirectional search with the order-free μ/2 pruning (Thm. 3.3).

    Element ids below ``n`` belong to the forward search (from ``s``);
    ids in ``[n, 2n)`` to the backward search (from ``t``).  Any vertex
    whose tentative distance from either side reaches μ/2 cannot lie on
    a path shorter than μ and is skipped.
    """

    def __init__(self, s: int, t: int, *, disconnected_early_exit: bool = True) -> None:
        Policy.__init__(self)
        self._s_arg, self._t_arg = s, t
        self.disconnected_early_exit = disconnected_early_exit

    def bind(self, graph, dist):
        self.graph = graph
        self.n = graph.num_vertices
        self._init_query(graph, self._s_arg, self._t_arg)
        return np.array([self.s, self.n + self.t]), np.array([0.0, 0.0])


class BiDAStar(_BidirectionalMixin, Policy):
    """Bidirectional A* with consistent paired heuristics (Thm. 3.4).

    ``h_F(v) = (h_t(v) - h_s(v)) / 2``, ``h_B(v) = -h_F(v)``, so the
    induced edge weights agree in both directions and the BiDS μ/2 rule
    remains correct on the induced graph.
    """

    def __init__(
        self,
        s: int,
        t: int,
        *,
        heuristic_to_source: Heuristic | None = None,
        heuristic_to_target: Heuristic | None = None,
        memoize: bool = True,
        disconnected_early_exit: bool = True,
    ) -> None:
        Policy.__init__(self)
        self._s_arg, self._t_arg = s, t
        self._hs_arg = heuristic_to_source
        self._ht_arg = heuristic_to_target
        self._memoize = memoize
        self.disconnected_early_exit = disconnected_early_exit
        self.h_s: Heuristic | None = None
        self.h_t: Heuristic | None = None

    def bind(self, graph, dist):
        self.graph = graph
        self.n = graph.num_vertices
        self._init_query(graph, self._s_arg, self._t_arg)
        self.h_s = self._hs_arg or make_heuristic(graph, self.s, memoize=self._memoize)
        self.h_t = self._ht_arg or make_heuristic(graph, self.t, memoize=self._memoize)
        return np.array([self.s, self.n + self.t]), np.array([0.0, 0.0])

    def _h_signed(self, eids: np.ndarray) -> np.ndarray:
        """h_F for forward elements, h_B for backward ones."""
        n = self.n
        v = eids % n
        before = self.h_s.evaluated + self.h_t.evaluated
        hf = (self.h_t(v) - self.h_s(v)) / 2.0
        self.charge(self.h_s.evaluated + self.h_t.evaluated - before)
        return np.where(eids < n, hf, -hf)

    def priority(self, eids, dist):
        return dist[eids] + self._h_signed(eids)


class MultiPPSP(Policy):
    """Multi-directional BiDS over a query graph (Sec. 4.2, "Multi").

    One search per query-graph vertex ``q_i``; the search from ``q_i`` is
    pruned past ``μ_max[i] / 2`` where ``μ_max[i]`` is the largest
    current answer among queries incident to ``q_i``.  When an element
    ``v^(i)`` is relaxed, every incident query ``(q_i, q_j)`` tries the
    path ``q_i – v – q_j``.
    """

    def __init__(self, query_graph) -> None:
        super().__init__()
        from .query_graph import QueryGraph  # local import to avoid cycle

        if not isinstance(query_graph, QueryGraph):
            raise TypeError("MultiPPSP expects a QueryGraph")
        if query_graph.num_edges == 0:
            raise ValueError("query graph has no queries")
        self.qg = query_graph
        self.num_sources = query_graph.num_vertices
        k = self.num_sources
        self.mu = np.full((k, k), np.inf)
        np.fill_diagonal(self.mu, 0.0)
        self.mu_max = np.full(k, np.inf)

    def bind(self, graph, dist):
        self.graph = graph
        self.n = graph.num_vertices
        verts = self.qg.vertices
        if verts.max(initial=-1) >= self.n or verts.min(initial=0) < 0:
            raise ValueError("query graph vertex out of range")
        k = self.num_sources
        # Self-queries (s == t) are answered immediately by μ's diagonal.
        for i, j in self.qg.edges:
            if i == j:
                self.mu[i, j] = 0.0
        self._refresh_mu_max()
        seeds = np.arange(k, dtype=np.int64) * self.n + verts
        return seeds, np.zeros(k)

    def source_graph(self, i: int):
        if self.graph.directed and self.qg.direction is not None and self.qg.direction[i] < 0:
            return self.graph.reverse()
        return self.graph

    def prunable(self):
        return bool(np.isfinite(self.mu_max).any())

    def prune_bound(self, eids):
        return self.mu_max[eids // self.n] / 2.0

    def on_relax(self, eids, dist):
        n = self.n
        i_all = eids // n
        v_all = eids % n
        touched = False
        for i in np.unique(i_all):
            mask = i_all == i
            vs = v_all[mask]
            di = dist[eids[mask]]
            for j in self.qg.neighbors(int(i)):
                if self.mu[i, j] <= 0.0:
                    continue
                total = di + dist[j * n + vs]
                finite = np.isfinite(total)
                if not finite.any():
                    continue
                best = float(total[finite].min())
                if best < self.mu[i, j]:
                    self.mu[i, j] = self.mu[j, i] = best
                    touched = True
        if touched:
            self._refresh_mu_max()

    def _refresh_mu_max(self) -> None:
        for i in range(self.num_sources):
            nbrs = self.qg.neighbors(i)
            # A vertex with only self pairs has its answer (0) already.
            self.mu_max[i] = float(self.mu[i, nbrs].max()) if len(nbrs) else 0.0

    def trace_mu(self) -> float:
        """The loosest outstanding query bound (what pruning waits on)."""
        finite = self.mu_max[np.isfinite(self.mu_max)]
        return float(finite.max()) if len(finite) else float("inf")

    def result(self) -> dict[tuple[int, int], float]:
        """Answers keyed by the original (source, target) vertex pairs."""
        out: dict[tuple[int, int], float] = {}
        verts = self.qg.vertices
        for i, j in self.qg.edges:
            out[(int(verts[i]), int(verts[j]))] = float(self.mu[i, j])
        return out
