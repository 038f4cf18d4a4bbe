"""Property-based tests (hypothesis) for the core invariants.

The central invariant of the whole library: every PPSP algorithm — any
policy, any stepping strategy, any frontier mode — computes exactly the
distances sequential Dijkstra computes, on arbitrary graphs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import bidirectional_dijkstra, dijkstra
from repro.core.engine import run_policy
from repro.core.policies import AStar, BiDAStar, BiDS, EarlyTermination, MultiPPSP, SsspPolicy
from repro.core.query_graph import QueryGraph, vertex_cover
from repro.core.stepping import BellmanFord, DeltaStepping, DijkstraOrder, RhoStepping
from repro.graphs import from_edges
from repro.heuristics.geometric import PointHeuristic
from repro.parallel.primitives import expand_ranges

# ----------------------------------------------------------------------
# Graph strategies
# ----------------------------------------------------------------------

@st.composite
def weighted_graphs(draw, max_n=24, max_m=80, directed=False, integer_weights=False):
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    if integer_weights:
        w = draw(st.lists(st.integers(0, 20), min_size=m, max_size=m))
    else:
        w = draw(
            st.lists(
                st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
                min_size=m,
                max_size=m,
            )
        )
    return from_edges(src, dst, np.asarray(w, dtype=float), num_vertices=n,
                      directed=directed, dedupe=True)


@st.composite
def geometric_graphs(draw, max_n=20):
    """Graphs with coordinates whose weights dominate Euclidean distance,
    so the point heuristic is consistent."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    coords = np.array(
        draw(
            st.lists(
                st.tuples(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)),
                min_size=n,
                max_size=n,
            )
        )
    )
    m = draw(st.integers(min_value=1, max_value=3 * n))
    src = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
    stretch = np.array(
        draw(st.lists(st.floats(1.0, 3.0, allow_nan=False), min_size=m, max_size=m))
    )
    base = np.sqrt(((coords[src] - coords[dst]) ** 2).sum(axis=1))
    return from_edges(
        src, dst, base * stretch, num_vertices=n, dedupe=True,
        coords=coords, coord_system="euclidean",
    )


COMMON = dict(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Exactness of every algorithm vs Dijkstra
# ----------------------------------------------------------------------

@settings(**COMMON)
@given(weighted_graphs(), st.data())
def test_sssp_matches_dijkstra(g, data):
    s = data.draw(st.integers(0, g.num_vertices - 1))
    got = run_policy(g, SsspPolicy(s)).distances_from(0)
    assert np.allclose(got, dijkstra(g, s))


@settings(**COMMON)
@given(weighted_graphs(), st.data())
def test_et_and_bids_match_dijkstra(g, data):
    s = data.draw(st.integers(0, g.num_vertices - 1))
    t = data.draw(st.integers(0, g.num_vertices - 1))
    ref = dijkstra(g, s)[t]
    for policy in (EarlyTermination(s, t), BiDS(s, t)):
        got = run_policy(g, policy).answer
        if np.isinf(ref):
            assert np.isinf(got)
        else:
            assert got == pytest.approx(ref)


@settings(**COMMON)
@given(weighted_graphs(directed=True), st.data())
def test_directed_bids_matches_dijkstra(g, data):
    s = data.draw(st.integers(0, g.num_vertices - 1))
    t = data.draw(st.integers(0, g.num_vertices - 1))
    ref = dijkstra(g, s)[t]
    got = run_policy(g, BiDS(s, t)).answer
    assert np.isinf(got) if np.isinf(ref) else got == pytest.approx(ref)


@settings(**COMMON)
@given(weighted_graphs(), st.data())
def test_any_strategy_correct(g, data):
    s = data.draw(st.integers(0, g.num_vertices - 1))
    t = data.draw(st.integers(0, g.num_vertices - 1))
    strategy = data.draw(
        st.sampled_from(
            [DeltaStepping(1.0), DeltaStepping(37.0), RhoStepping(3), BellmanFord(), DijkstraOrder()]
        )
    )
    ref = dijkstra(g, s)[t]
    got = run_policy(g, BiDS(s, t), strategy=strategy).answer
    assert np.isinf(got) if np.isinf(ref) else got == pytest.approx(ref)


@settings(**COMMON)
@given(geometric_graphs(), st.data())
def test_astar_family_matches_dijkstra(g, data):
    s = data.draw(st.integers(0, g.num_vertices - 1))
    t = data.draw(st.integers(0, g.num_vertices - 1))
    ref = dijkstra(g, s)[t]
    for policy in (AStar(s, t), BiDAStar(s, t)):
        got = run_policy(g, policy).answer
        if np.isinf(ref):
            assert np.isinf(got)
        else:
            assert got == pytest.approx(ref), type(policy).__name__


@settings(**COMMON)
@given(geometric_graphs())
def test_generated_heuristics_are_consistent(g):
    """The geometric strategy must only generate consistent instances."""
    t = 0
    h = PointHeuristic(g.coords, t, "euclidean")
    src, dst, w = g.edges()
    assert (h(src) <= w + h(dst) + 1e-6).all()


@settings(**COMMON)
@given(weighted_graphs(max_n=14), st.data())
def test_batch_multi_matches_dijkstra(g, data):
    n = g.num_vertices
    k = data.draw(st.integers(2, min(6, n)))
    verts = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    pairs = [(verts[i], verts[(i + 1) % k]) for i in range(k - 1)]
    qg = QueryGraph(pairs)
    res = run_policy(g, MultiPPSP(qg))
    for (s, t), got in res.answer.items():
        ref = dijkstra(g, s)[t]
        assert np.isinf(got) if np.isinf(ref) else got == pytest.approx(ref)


@settings(**COMMON)
@given(weighted_graphs(), st.data())
def test_sequential_bidirectional_dijkstra_exact(g, data):
    s = data.draw(st.integers(0, g.num_vertices - 1))
    t = data.draw(st.integers(0, g.num_vertices - 1))
    ref = dijkstra(g, s)[t]
    got = bidirectional_dijkstra(g, s, t)
    assert np.isinf(got) if np.isinf(ref) else got == pytest.approx(ref)


# ----------------------------------------------------------------------
# Structural invariants
# ----------------------------------------------------------------------

@settings(**COMMON)
@given(weighted_graphs(), st.data())
def test_triangle_inequality_of_output(g, data):
    s = data.draw(st.integers(0, g.num_vertices - 1))
    d = run_policy(g, SsspPolicy(s)).distances_from(0)
    src, dst, w = g.edges()
    finite = np.isfinite(d[src])
    assert (d[dst][finite] <= d[src][finite] + w[finite] + 1e-9).all()


@settings(**COMMON)
@given(
    st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=25),
    st.booleans(),
)
def test_vertex_cover_covers_every_query(pairs, directed):
    qg = QueryGraph(pairs, directed=directed)
    cover = set(int(c) for c in vertex_cover(qg))
    verts = qg.vertices
    needed = set()
    for a, b in qg.edges:
        if verts[a] != verts[b]:
            assert a in cover or b in cover
            needed.update((a, b))
    # A copy whose only queries are self pairs answers nothing.
    assert cover <= needed


@settings(**COMMON)
@given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 6)), min_size=0, max_size=30))
def test_expand_ranges_matches_naive(ranges):
    starts = np.array([r[0] for r in ranges], dtype=np.int64)
    counts = np.array([r[1] for r in ranges], dtype=np.int64)
    want = (
        np.concatenate([np.arange(s, s + c) for s, c in ranges])
        if counts.sum()
        else np.empty(0, dtype=np.int64)
    )
    assert np.array_equal(expand_ranges(starts, counts), want)


@settings(**COMMON)
@given(weighted_graphs(max_n=12), st.data())
def test_all_batch_methods_agree(g, data):
    """Every batch strategy answers every random query graph identically."""
    from repro.core.batch import BATCH_METHODS, solve_batch

    n = g.num_vertices
    k = data.draw(st.integers(2, min(5, n)))
    verts = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    pairs = [(verts[i], verts[j]) for i in range(k) for j in range(i + 1, k)]
    pairs = pairs[: data.draw(st.integers(1, len(pairs)))]
    ref = {}
    for s, t in pairs:
        ref[(s, t)] = dijkstra(g, s)[t]
    for method in BATCH_METHODS:
        res = solve_batch(g, pairs, method=method)
        for key, want in ref.items():
            got = res.distance(*key)
            if np.isinf(want):
                assert np.isinf(got), (method, key)
            else:
                assert got == pytest.approx(want), (method, key)


@settings(**COMMON)
@given(weighted_graphs(max_n=12), st.data())
def test_chunked_multi_equals_unchunked(g, data):
    """max_sources chunking never changes answers."""
    from repro.core.batch import solve_batch

    n = g.num_vertices
    k = data.draw(st.integers(2, min(6, n)))
    verts = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    pairs = list(zip(verts[:-1], verts[1:]))
    full = solve_batch(g, pairs, method="multi")
    cap = data.draw(st.integers(2, k))
    chunked = solve_batch(g, pairs, method="multi", max_sources=cap)
    assert chunked.distances.keys() == full.distances.keys()
    for key in full.distances:
        a, b = full.distances[key], chunked.distances[key]
        if np.isinf(a):
            assert np.isinf(b)
        else:
            assert b == pytest.approx(a)
