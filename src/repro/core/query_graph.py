"""Query graphs: the paper's abstraction of batch PPSP queries (Sec. 4.1).

A batch of queries ``{(s, t), ...}`` becomes a graph ``G_q = (V_q, E_q)``
whose vertices are the distinct endpoints and whose edges are the
queries.  Special batch types map to recognizable patterns — SSMT = star,
pairwise = complete bipartite, multi-stop = chain, subset-APSP = clique —
and the SSSP-based batch solver needs exactly a *vertex cover* of
``G_q`` (Sec. 4.3): running SSSP from a cover answers every query.

Vertex cover is NP-hard in general; as in the paper, small query graphs
are solved exactly (enumeration over subset sizes) and large ones
greedily (repeatedly take the max-degree vertex).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

__all__ = ["QueryGraph", "vertex_cover", "PATTERNS"]


class QueryGraph:
    """The query graph ``G_q`` of one batch.

    Parameters
    ----------
    pairs : sequence of (int, int)
        The queried (source, target) vertex pairs in *graph* vertex ids.
        Duplicate pairs collapse; (s, t) and (t, s) are the same query in
        the undirected setting.
    directed : bool
        When True, pair order matters: first elements are sources
        (forward searches), second elements targets (backward searches),
        forming the bipartite split of Sec. 4.4.
    """

    def __init__(self, pairs, *, directed: bool = False) -> None:
        pairs = [(int(s), int(t)) for s, t in pairs]
        if not pairs:
            raise ValueError("empty query batch")
        self.directed = directed
        self.original_pairs = list(pairs)

        if directed:
            # Each query point splits into a source copy (searched
            # forward) and a target copy (searched backward over the
            # reverse graph); the query graph is bipartite between the
            # copies (Sec. 4.4).  A graph vertex used in both roles gets
            # two copies — folding them would answer its as-target
            # queries with forward distances.
            sources = sorted({s for s, _ in pairs})
            targets = sorted({t for _, t in pairs})
            verts = sources + targets
            #: +1 = forward search from this copy, -1 = backward search.
            self.direction = np.array(
                [1] * len(sources) + [-1] * len(targets), dtype=np.int8
            )
            src_index = {v: i for i, v in enumerate(sources)}
            tgt_index = {v: len(sources) + i for i, v in enumerate(targets)}
            index = dict(tgt_index)
            index.update(src_index)  # index_of prefers the source copy
            pair_key = lambda s, t: (src_index[s], tgt_index[t])
        else:
            verts = sorted({v for p in pairs for v in p})
            self.direction = None
            index = {v: i for i, v in enumerate(verts)}
            pair_key = lambda s, t: (
                (index[s], index[t]) if index[s] <= index[t] else (index[t], index[s])
            )
        self.vertices = np.array(verts, dtype=np.int64)

        seen: set[tuple[int, int]] = set()
        edges: list[tuple[int, int]] = []
        for s, t in pairs:
            key = pair_key(s, t)
            if key not in seen:
                seen.add(key)
                edges.append(key)
        self.edges = edges
        self._index = index
        self._nbrs: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def index_of(self, vertex: int) -> int:
        """Query-graph index of a graph vertex id."""
        return self._index[int(vertex)]

    def neighbors(self, i: int) -> np.ndarray:
        """Query-graph neighbor indices of vertex index ``i``."""
        if self._nbrs is None:
            nbrs: list[list[int]] = [[] for _ in range(self.num_vertices)]
            for a, b in self.edges:
                if a == b:
                    continue
                nbrs[a].append(b)
                nbrs[b].append(a)
            self._nbrs = [np.array(sorted(x), dtype=np.int64) for x in nbrs]
        return self._nbrs[i]

    def degree(self, i: int) -> int:
        return len(self.neighbors(i))

    def vertex_cover(self, *, exact_limit: int = 16) -> np.ndarray:
        """Indices of a vertex cover of ``G_q`` (exact when small)."""
        return vertex_cover(self, exact_limit=exact_limit)

    def components(self) -> list["QueryGraph"]:
        """Split the batch into its query-graph connected components.

        Queries in different components of ``G_q`` share no endpoints
        (for directed batches, no source/target *copies*), so their
        searches exchange no shortest-path information — each component
        is an independent sub-batch.  The batch planner packs whole
        components, in this order, into composite Multi-BiDS units
        (:func:`repro.core.batch.plan_units`) that both backends run, which
        is what makes the two backends bit-identical.

        Components are returned in order of first appearance in
        ``original_pairs``; each sub-QueryGraph carries its own slice of
        the original pairs (duplicates included).  A single-component
        batch returns ``[self]`` without rebuilding.
        """
        parent = list(range(self.num_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        # Group pairs by the component of the source endpoint.  For
        # directed batches index_of prefers the source copy, which is an
        # endpoint of this pair's query edge, so it lands in the right
        # component in both settings.
        groups: dict[int, list[tuple[int, int]]] = {}
        order: list[int] = []
        for s, t in self.original_pairs:
            root = find(self.index_of(s))
            if root not in groups:
                groups[root] = []
                order.append(root)
            groups[root].append((s, t))
        if len(order) == 1:
            return [self]
        return [QueryGraph(groups[r], directed=self.directed) for r in order]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryGraph(|Vq|={self.num_vertices}, |Eq|={self.num_edges})"

    # ------------------------------------------------------------------
    # Pattern constructors (Fig. 7 workloads).  Each takes graph vertex
    # ids and returns the QueryGraph of the corresponding batch.
    # ------------------------------------------------------------------
    @classmethod
    def separate(cls, vertices) -> "QueryGraph":
        """Disjoint s-t pairs: vertices paired up (0,1), (2,3), ..."""
        vertices = list(vertices)
        if len(vertices) % 2:
            raise ValueError("separate pattern needs an even vertex count")
        return cls(list(zip(vertices[0::2], vertices[1::2])))

    @classmethod
    def chain(cls, stops) -> "QueryGraph":
        """Multi-stop trip: consecutive stops queried pairwise."""
        stops = list(stops)
        if len(stops) < 2:
            raise ValueError("chain needs at least two stops")
        return cls(list(zip(stops[:-1], stops[1:])))

    @classmethod
    def star(cls, center, leaves) -> "QueryGraph":
        """SSMT: one source, many targets."""
        return cls([(center, leaf) for leaf in leaves])

    @classmethod
    def fork(cls, vertices) -> "QueryGraph":
        """A chain whose last stop offers alternative endpoints.

        With six vertices: chain 0-1-2-3 plus branches 3-4 and 3-5 —
        the "options at a stop" shape from Sec. 4.1.
        """
        vertices = list(vertices)
        if len(vertices) < 4:
            raise ValueError("fork needs at least four vertices")
        branch_at = len(vertices) - 3
        chain_part = vertices[: branch_at + 1]
        pairs = list(zip(chain_part[:-1], chain_part[1:]))
        pairs += [(vertices[branch_at], v) for v in vertices[branch_at + 1 :]]
        return cls(pairs)

    @classmethod
    def diamond(cls, vertices) -> "QueryGraph":
        """Two hubs each querying the remaining vertices (K_{2,k-2})."""
        vertices = list(vertices)
        if len(vertices) < 3:
            raise ValueError("diamond needs at least three vertices")
        a, b, rest = vertices[0], vertices[1], vertices[2:]
        return cls([(a, v) for v in rest] + [(b, v) for v in rest])

    @classmethod
    def bipartite(cls, sources, targets) -> "QueryGraph":
        """Pairwise: every source queried against every target."""
        return cls([(s, t) for s in sources for t in targets])

    @classmethod
    def random_pattern(cls, vertices, num_edges: int, *, seed: int = 0) -> "QueryGraph":
        """A random simple graph on ``vertices`` with ``num_edges`` queries."""
        vertices = list(vertices)
        all_pairs = list(combinations(range(len(vertices)), 2))
        if num_edges > len(all_pairs):
            raise ValueError("too many edges requested")
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(all_pairs), size=num_edges, replace=False)
        return cls([(vertices[all_pairs[p][0]], vertices[all_pairs[p][1]]) for p in pick])

    @classmethod
    def clique(cls, vertices) -> "QueryGraph":
        """Subset APSP: all pairs among ``vertices``."""
        vertices = list(vertices)
        if len(vertices) < 2:
            raise ValueError("clique needs at least two vertices")
        return cls([(a, b) for a, b in combinations(vertices, 2)])


def vertex_cover(qg: QueryGraph, *, exact_limit: int = 16) -> np.ndarray:
    """A vertex cover of the query graph, as query-graph indices.

    Directed batches are bipartite between source and target copies, so
    the *optimal* cover is computed in polynomial time via König's
    theorem (maximum matching), as the paper notes in Sec. 4.4.
    Undirected batches are NP-hard in general: exact minimum cover by
    enumerating subsets in increasing size when
    ``|V_q| <= exact_limit``; greedy max-degree otherwise (2-approximate
    in practice, and never worse than taking all sources).  Self pairs
    need no covering row, so their edges are left out — in a directed
    batch they join a vertex's two distinct copies.
    """
    verts = qg.vertices
    edges = [(a, b) for a, b in qg.edges if verts[a] != verts[b]]
    if not edges:
        return np.empty(0, dtype=np.int64)
    if qg.directed:
        return _bipartite_vertex_cover(edges)
    k = qg.num_vertices
    if k <= exact_limit:
        # Only vertices incident to an edge can help.
        candidates = sorted({v for e in edges for v in e})
        for size in range(1, len(candidates) + 1):
            for subset in combinations(candidates, size):
                chosen = set(subset)
                if all(a in chosen or b in chosen for a, b in edges):
                    return np.array(sorted(chosen), dtype=np.int64)
    # Greedy: repeatedly pick the vertex covering the most residual edges.
    remaining = set(edges)
    cover: set[int] = set()
    while remaining:
        counts: dict[int, int] = {}
        for a, b in remaining:
            counts[a] = counts.get(a, 0) + 1
            counts[b] = counts.get(b, 0) + 1
        best = max(counts, key=lambda v: (counts[v], -v))
        cover.add(best)
        remaining = {e for e in remaining if best not in e}
    return np.array(sorted(cover), dtype=np.int64)


def _bipartite_vertex_cover(edges: list[tuple[int, int]]) -> np.ndarray:
    """Minimum vertex cover of a bipartite query graph via König.

    ``edges`` connect source-copy indices (left) to target-copy indices
    (right).  Kuhn's augmenting-path matching is ample for query-graph
    sizes; König converts the maximum matching into a minimum cover:
    ``(L \\ Z) ∪ (R ∩ Z)`` where ``Z`` is the set alternating-reachable
    from unmatched left vertices.
    """
    left = sorted({a for a, _ in edges})
    adj: dict[int, list[int]] = {a: [] for a in left}
    for a, b in edges:
        adj[a].append(b)

    match_right: dict[int, int] = {}

    def augment(a: int, visited: set[int]) -> bool:
        for b in adj[a]:
            if b in visited:
                continue
            visited.add(b)
            if b not in match_right or augment(match_right[b], visited):
                match_right[b] = a
                return True
        return False

    for a in left:
        augment(a, set())

    matched_left = set(match_right.values())
    z_left = {a for a in left if a not in matched_left}
    z_right: set[int] = set()
    stack = list(z_left)
    while stack:
        a = stack.pop()
        for b in adj[a]:
            if b not in z_right:
                z_right.add(b)
                owner = match_right.get(b)
                if owner is not None and owner not in z_left:
                    z_left.add(owner)
                    stack.append(owner)
    cover = (set(left) - z_left) | z_right
    return np.array(sorted(cover), dtype=np.int64)


#: Registry of Fig. 7 pattern names -> constructor over six vertices.
PATTERNS = {
    "separate": lambda vs: QueryGraph.separate(vs),
    "chain": lambda vs: QueryGraph.chain(vs),
    "star": lambda vs: QueryGraph.star(vs[0], vs[1:]),
    "fork": lambda vs: QueryGraph.fork(vs),
    "diamond": lambda vs: QueryGraph.diamond(vs),
    "bipartite": lambda vs: QueryGraph.bipartite(vs[: len(vs) // 2], vs[len(vs) // 2 :]),
    "random": lambda vs: QueryGraph.random_pattern(vs, num_edges=max(len(vs), 3), seed=7),
    "clique": lambda vs: QueryGraph.clique(vs),
}
