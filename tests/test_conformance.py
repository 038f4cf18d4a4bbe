"""The conformance matrix: every way to answer a query, checked one way.

A seeded family of random geometric instances (50 x 4 pairs, the
200-pair floor) has zero-weight arcs, unreachable and self pairs, and
every third instance directed.  Axes: method (``PPSP_METHODS``,
``BATCH_METHODS``); entry point (``ppsp``, ``solve_batch`` on raw
pairs and on a ``QueryGraph``, ``batch_ppsp``, ``ServePipeline.run``,
``QueryService`` futures replayed against the batches the service
recorded); backend (serial, or a caller's persistent process pool, with
``max_sources`` and a heavy-tailed graph on the pool); certify;
directed; kernel
(the default or the ``np.minimum.at`` oracle); budget (none, spent
exactly — ``max_steps`` equal to the unbudgeted steps, summed over a
batch's units — or cut one step short).

Every record is checked against Dijkstra (exact answers equal it, cut
ones bound it from above), single-query answers also against
``core/reference.py``; paths are re-summed over real arcs and
certificates must check valid.  The same batch through another entry
point or backend gives the same records byte for byte.  Axes that do
not interact are crossed sparsely: certify on odd instances, a
``QueryGraph`` or ``batch_ppsp`` on alternate ones, the kernel oracle
on every fifth.  Process cells carry the ``pool`` marker
(``POOL_SMOKE=1`` trims them to 2 workers and three instances, one
directed), process-backed service cells the ``service`` marker.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from repro import batch_ppsp, ppsp, solve_batch
from repro.api import PPSP_METHODS
from repro.baselines import dijkstra
from repro.core import QueryAnswer, QueryGraph
from repro.core.batch import BATCH_METHODS
from repro.core.paths import PathError
from repro.core.policies import AStar, BiDAStar, BiDS, EarlyTermination, SsspPolicy
from repro.core.reference import run_policy_reference
from repro.graphs import from_edges, road_graph
from repro.kernels import Kernel
from repro.robustness import Budget, SimClock
from repro.serve import QueryService, ServePipeline
from repro.verify import CertificateChecker

from tests.kernels.test_scatter import UfuncAtKernel

NUM_SEEDS = 50
SEEDS = range(NUM_SEEDS)
CHECKER = CertificateChecker()
#: the single-query policies ``ppsp`` builds, for the reference engine.
POLICIES = {"sssp": lambda s, t: SsspPolicy(s), "et": EarlyTermination, "astar": AStar,
            "bids": BiDS, "bidastar": BiDAStar}
#: batch methods that keep no per-query search state (no paths).
PLAIN = ("plain-bids", "plain-star-bids")


def random_geometric(seed: int):
    """A random geometric instance plus its query pairs.

    Weights are Euclidean lengths stretched by U(1.0, 1.5), so A*'s
    heuristic stays admissible; every third seed is directed.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 80))
    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    # Coincident duplicates -> zero-length (hence zero-weight) edges.
    dup = rng.integers(0, n // 2, size=max(2, n // 10))
    pts[-len(dup):] = pts[dup]

    m = int(n * rng.uniform(1.2, 2.5))
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # Wire each duplicate to its original so weight-0 edges always exist.
    src = np.concatenate([src, np.arange(n - len(dup), n)])
    dst = np.concatenate([dst, dup])
    stretch = rng.uniform(1.0, 1.5, size=len(src))
    w = np.linalg.norm(pts[src] - pts[dst], axis=1) * stretch

    graph = from_edges(src, dst, w, num_vertices=n, directed=(seed % 3 == 0), coords=pts,
                       coord_system="euclidean", dedupe=True, name=f"diff-{seed}")
    pairs = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(4)]
    return graph, pairs


instance = functools.lru_cache(maxsize=None)(random_geometric)


@functools.lru_cache(maxsize=None)
def truth_row(seed: int, source: int) -> np.ndarray:
    """Dijkstra distances from ``source`` on instance ``seed``."""
    return dijkstra(instance(seed)[0], source)


# Checks shared by every cell
def check_path(graph, path, s: int, t: int, distance: float) -> None:
    """Valid endpoints, every hop a real arc, total weight == distance."""
    assert path[0] == s and path[-1] == t
    total = 0.0
    for u, v in zip(path, path[1:]):
        mask = graph.neighbors(u) == v
        assert mask.any(), f"path uses non-arc {u} -> {v}"
        total += float(graph.neighbor_weights(u)[mask].min())
    assert total == pytest.approx(distance, rel=1e-9, abs=1e-9)


def check_distance(distance: float, want: float, exact: bool) -> None:
    """Exact answers equal Dijkstra's; cut ones bound it from above."""
    if exact:
        assert distance == pytest.approx(want, rel=1e-9, abs=1e-12)
    else:
        assert distance >= want - 1e-9 * max(1.0, want if math.isfinite(want) else 1.0)


def check_certificate(graph, cert, distance: float, exact: bool) -> None:
    report = CHECKER.check(graph, cert, expected_distance=distance)
    assert report.valid, report.failures
    if exact and math.isfinite(distance):
        assert report.proven == "exact"


def check_record(graph, s: int, t: int, ans: QueryAnswer, want: float, *,
                 certified: bool) -> None:
    """One record against Dijkstra's ``want``: distance, outcome,
    certificate and (when collected) path."""
    check_distance(ans.distance, want, ans.exact)
    assert ans.outcome == ("ok" if ans.exact else "inexact")
    assert (ans.certificate is not None) == certified
    if certified:
        check_certificate(graph, ans.certificate, ans.distance, ans.exact)
    if ans.path is not None:
        check_path(graph, ans.path, s, t, ans.distance)


def check_batch(graph, seed: int, pairs, res, *, certified: bool) -> None:
    """Every asked pair's record against Dijkstra, plus its path."""
    for s, t in pairs:
        ans = res.answer(s, t)
        check_record(graph, s, t, ans, truth_row(seed, s)[t], certified=certified)
        if res.method in PLAIN:
            with pytest.raises(NotImplementedError):
                res.path(s, t)
        elif ans.exact and math.isfinite(ans.distance):
            check_path(graph, res.path(s, t), s, t, ans.distance)


def record_key(ans: QueryAnswer) -> tuple:
    """A record's bytes: distance bits, flags, certificate JSON, path."""
    cert = None if ans.certificate is None else ans.certificate.to_json()
    return ans.distance.hex(), ans.exact, ans.outcome, cert, ans.path


def collected_path(res, s: int, t: int):
    """The path a pipeline collects for one pair (``None`` when none)."""
    try:
        return tuple(res.path(s, t))
    except (NotImplementedError, PathError):
        return None


def batch_key(res, pairs) -> tuple:
    """Every observable of a batch except the wall-clock budget report."""
    rows = []
    for s, t in pairs:
        try:
            path = res.path(s, t)
        except Exception as exc:  # noqa: BLE001 — the outcome is the observable
            path = type(exc).__name__
        rows.append((record_key(res.answer(s, t)), path))
    details = {k: v for k, v in res.details.items() if k != "budget_report"}
    meter = res.meter
    return (rows, res.num_searches, details, meter.work, meter.depth, meter.steps,
            list(meter.step_work))


# Single-query entry points: ppsp, reference engine
@pytest.mark.parametrize("seed", SEEDS)
def test_single_query(seed):
    """Every method cold, through the reference engine, and under a
    budget spent exactly and one step short."""
    graph, pairs = instance(seed)
    certify = seed % 2 == 1
    for s, t in pairs:
        want = truth_row(seed, s)[t]
        for method in PPSP_METHODS:
            ctx = (seed, method, s, t)
            cold = ppsp(graph, s, t, method=method, certify=certify)
            assert cold.exact, ctx
            check_distance(cold.distance, want, True)
            if math.isfinite(want):
                check_path(graph, cold.path(), s, t, cold.distance)
            if certify:
                check_certificate(graph, cold.certificate, cold.distance, True)

            ref, _ = run_policy_reference(graph, POLICIES[method](s, t))
            check_distance(float(ref[t] if method == "sssp" else ref), cold.distance, True)

            steps = cold.run.steps
            spent = ppsp(graph, s, t, method=method, budget=Budget(max_steps=steps))
            report = spent.budget_report
            assert spent.exact and spent.distance == cold.distance, ctx
            assert (report.exhausted, report.reason, report.steps) == (False, None, steps), ctx
            if steps:
                cut = ppsp(graph, s, t, method=method, budget=Budget(max_steps=steps - 1))
                # A self pair is answered by its bind: exact even when cut.
                assert cut.exact == (s == t) and cut.budget_report.exhausted, ctx
                assert cut.budget_report.reason == f"max_steps={steps - 1} reached", ctx
                check_distance(cut.distance, want, cut.exact)


# Batch entry points: solve_batch, QueryGraph, batch_ppsp, ServePipeline
@pytest.mark.parametrize("seed", SEEDS)
def test_batch(seed):
    """Every batch method through every batch entry point, with the
    budget spent exactly and cut one step short."""
    graph, pairs = instance(seed)
    certify = seed % 2 == 1
    # Raw pairs on every instance; batch_ppsp or a QueryGraph on alternate ones.
    other = (functools.partial(batch_ppsp, graph, pairs) if seed % 2 else
             functools.partial(solve_batch, graph, QueryGraph(pairs, directed=graph.directed)))
    for method in BATCH_METHODS:
        ctx = (seed, method)
        # An unlimited meter cuts nothing; it counts the steps a spent
        # budget allows.
        probe = Budget().start()
        res = solve_batch(graph, pairs, method=method, certify=certify, budget=probe)
        check_batch(graph, seed, pairs, res, certified=certify)
        assert res.exact and not res.details["budget_report"].exhausted, ctx
        want = batch_key(res, pairs)
        assert batch_key(other(method=method, certify=certify), pairs) == want, ctx

        served = ServePipeline(graph, method=method, certify=certify, collect_paths=True)
        out = served.run(pairs)
        for s, t in pairs:
            expected = replace(res.answer(s, t), path=collected_path(res, s, t))
            assert record_key(out.answers[(s, t)]) == record_key(expected), (ctx, s, t)
            check_record(graph, s, t, out.answers[(s, t)], truth_row(seed, s)[t],
                         certified=certify)

        spent = solve_batch(graph, pairs, method=method, certify=certify,
                            budget=Budget(max_steps=probe.steps))
        assert not spent.details["budget_report"].exhausted, ctx
        assert batch_key(spent, pairs) == want, ctx
        if not probe.steps:
            continue
        cut_budget = Budget(max_steps=probe.steps - 1)
        cut = solve_batch(graph, pairs, method=method, certify=certify, budget=cut_budget)
        assert cut.details["budget_report"].exhausted, ctx
        check_batch(graph, seed, pairs, cut, certified=certify)
        for key, ans in cut.answers.items():
            # A unit the budget let finish answers as if unbudgeted.  A
            # self pair is exact by its bind even in a cut unit, whose
            # certificate samples the cut rows; check_batch proved it.
            if ans.exact and key[0] != key[1]:
                assert record_key(ans) == record_key(res.answers[key]), (ctx, key)
        if seed % 2 == 0:
            out = ServePipeline(graph, method=method, budget=cut_budget).run(pairs)
            for s, t in pairs:
                assert record_key(out.answers[(s, t)]) == record_key(cut.answer(s, t)), ctx


def test_family_shapes():
    """The family really has the shapes the matrix claims to cover."""
    total = zero_w = unreachable = self_pairs = 0
    for seed in SEEDS:
        graph, pairs = instance(seed)
        assert graph.directed == (seed % 3 == 0)
        total += len(pairs)
        zero_w += bool((graph.weights == 0.0).any())
        unreachable += sum(math.isinf(truth_row(seed, s)[t]) for s, t in pairs)
        self_pairs += sum(s == t for s, t in pairs)
    assert total >= 200
    assert zero_w > NUM_SEEDS // 2
    assert unreachable > 0 and self_pairs > 0


# Budget cells: a run that finishes within its budget is exact
def test_budget_cut_marks_only_the_cut_unit():
    """(0, 99)'s unit finishes in 11 steps (7794.71, exact); the budget's
    12th step cuts (5, 90) before it finds a path."""
    g = road_graph(10, 10, seed=1)
    budget = Budget(max_steps=12)
    res = ServePipeline(g, method="plain-bids", budget=budget).run([(0, 99), (5, 90)])
    with QueryService(g, method="plain-bids", budget=budget, max_batch=2) as svc:
        futures = svc.submit_many([(0, 99), (5, 90)])
    served = [f.result(timeout=10).answer for f in futures]
    for done, cut in ([res.answers[(0, 99)], res.answers[(5, 90)]], served):
        assert (done.outcome, done.exact) == ("ok", True)
        assert done.distance == pytest.approx(float(dijkstra(g, 0)[99]), rel=1e-12)
        assert round(done.distance, 2) == 7794.71
        assert cut == QueryAnswer(math.inf, False, "inexact")


def test_budget_spent_reports_no_exhaustion():
    g = road_graph(10, 10, seed=1)
    ans = ppsp(g, 0, 99, method="bids", budget=Budget(max_steps=11))
    report = ans.budget_report.to_dict()
    assert ans.exact and ans.run.steps == 11
    assert report["exhausted"] is False and report["reason"] is None


def test_budget_app_b_exit_is_exact():
    """BiDS ends an unreachable query through the App. B early exit in
    2 steps; a 2-step budget must not turn "unreachable" into "not
    found yet"."""
    g = from_edges([0, 1, 2, 3, 5], [1, 2, 3, 4, 6], [1.0] * 5, num_vertices=7)
    budget = Budget(max_steps=2)
    ans = ppsp(g, 0, 6, method="bids", budget=budget)
    assert (ans.distance, ans.exact, ans.run.steps) == (math.inf, True, 2)
    assert not ans.budget_report.exhausted
    batch = solve_batch(g, [(0, 6)], method="plain-bids", budget=budget)
    served = ServePipeline(g, method="plain-bids", budget=budget).run([(0, 6)])
    for rec in (batch.answers[(0, 6)], served.answers[(0, 6)]):
        assert rec == QueryAnswer(math.inf, True, "ok")


def test_budget_cut_before_an_empty_step():
    """A* (0, 99) relaxes all 353 of its arcs in 17 steps, but its 18th
    step (which relaxes none) still has frontier work: a budget of 353
    relaxations cuts it, so the answer stays inexact."""
    g = road_graph(10, 10, seed=1)
    free = ppsp(g, 0, 99, method="astar")
    assert (free.run.steps, free.run.relaxations) == (18, 353)
    ans = ppsp(g, 0, 99, method="astar", budget=Budget(max_relaxations=353))
    assert not ans.exact and ans.run.steps == 17
    assert ans.budget_report.exhausted


# Kernel axis: the np.minimum.at oracle through kernel=
KERNEL_SEEDS = range(0, NUM_SEEDS, 5)


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_kernel_oracle(seed):
    """Distances, ``dist`` bytes and paths are the same bytes under the
    oracle kernel as under the default one."""
    graph, pairs = instance(seed)
    for s, t in pairs:
        for method in PPSP_METHODS:
            ref = ppsp(graph, s, t, method=method)
            got = ppsp(graph, s, t, method=method, kernel=UfuncAtKernel())
            check_distance(got.distance, truth_row(seed, s)[t], True)
            assert got.run.dist.tobytes() == ref.run.dist.tobytes(), (seed, method, s, t)
            assert got.distance == ref.distance
            if ref.reachable:
                assert got.path() == ref.path(), (seed, method, s, t)


@pytest.mark.parametrize("seed", KERNEL_SEEDS)
def test_kernel_oracle_batch(seed):
    """Batch records, paths and meters are the same bytes under the
    oracle kernel as under the default one."""
    graph, pairs = instance(seed)
    for method in BATCH_METHODS:
        ref = solve_batch(graph, pairs, method=method)
        got = solve_batch(graph, pairs, method=method, kernel=UfuncAtKernel())
        assert batch_key(got, pairs) == batch_key(ref, pairs), (seed, method)
        check_batch(graph, seed, pairs, got, certified=False)


def test_kernel_string_rejected():
    graph, pairs = instance(1)
    s, t = pairs[0]
    for name in ("ufunc_at", "sort_reduceat"):
        with pytest.raises(TypeError, match="Kernel instance"):
            ppsp(graph, s, t, kernel=name)
        with pytest.raises(TypeError, match="Kernel instance"):
            solve_batch(graph, pairs, method="multi", kernel=name)


@pytest.mark.parametrize("kernel", [Kernel(), UfuncAtKernel(), "sort_reduceat"])
def test_kernel_rejected_by_process_backend(kernel):
    """A kernel cannot ship to pool workers; the check runs before any fork."""
    from repro.parallel.pool import ProcessPool

    graph, pairs = instance(1)
    with ProcessPool(1) as pool:
        with pytest.raises(ValueError, match="kernel"):
            solve_batch(graph, pairs, method="multi", pool=pool, kernel=kernel)
        assert pool._executor is None and not pool._shared


# Service: futures replayed against the batches the service recorded
MAX_WAIT_MS = 40.0
MAX_BATCH = 6
SCHEDULES = ("bursty", "trickle", "flood")
#: instance 12 is directed, 29 undirected.
SERVICE_SEEDS = (12, 29)


def schedule(seed: int, kind: str, salt: int = 0):
    """One seeded arrival schedule: a list of (dt_seconds, submissions)."""
    rng = np.random.default_rng(seed + salt)
    n = instance(seed)[0].num_vertices
    pairs = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(24)]
    pick = lambda: pairs[rng.integers(0, len(pairs))]  # noqa: E731
    events = []
    if kind == "bursty":
        for _ in range(4):
            burst = [pick() for _ in range(int(rng.integers(5, 13)))]
            events.append((float(rng.uniform(0.0, 0.01)), burst))
    elif kind == "trickle":
        # Gaps straddle max-wait, so some flushes are time-driven
        # partials and some queries coalesce with the next arrival.
        events = [(float(rng.uniform(0.005, 0.08)), [pick()]) for _ in range(10)]
    else:  # flood
        for _ in range(6):
            burst = [pairs[0]] * int(rng.integers(3, 8))
            burst += [pick()] if rng.random() < 0.5 else []
            events.append((float(rng.uniform(0.0, 0.05)), burst))
    return events


def drive(svc: QueryService, clock: SimClock, events):
    """Replay one schedule through the inline flush API; all futures."""
    futures = []
    for dt, submissions in events:
        clock.advance(dt)
        svc.tick()
        futures.extend(svc.submit_many(submissions))
    clock.advance(10 * MAX_WAIT_MS / 1000.0)
    svc.tick()
    return futures


def check_service(seed: int, svc: QueryService, futures) -> None:
    """Each future's record is the serial replay's record for the pair
    in the batch that answered it, and it matches Dijkstra."""
    graph, _ = instance(seed)
    assert futures and all(f.done() for f in futures), "stuck futures"
    assert {f.key for f in futures} == {k for b in svc.batches for k in b.keys}
    # A pair resubmitted in a later window executes again in another
    # composition, so the reference is per (batch, pair).
    expected = {}
    for record in svc.batches:
        ref = solve_batch(graph, list(record.keys), method=svc.pipeline.method,
                          certify=True)
        for s, t in record.keys:
            expected[record.index, (s, t)] = replace(ref.answer(s, t),
                                                     path=collected_path(ref, s, t))
    for fut in futures:
        res = fut.result(timeout=0)
        s, t = fut.key
        assert record_key(res.answer) == record_key(expected[res.batch_index, fut.key])
        check_record(graph, s, t, res.answer, truth_row(seed, s)[t], certified=True)


def service(seed: int, method: str, clock: SimClock, **kwargs) -> QueryService:
    return QueryService(
        instance(seed)[0], method=method, max_batch=MAX_BATCH, max_wait_ms=MAX_WAIT_MS,
        clock=clock, certify=True, collect_paths=True, **kwargs,
    )


@pytest.mark.parametrize("kind", SCHEDULES)
@pytest.mark.parametrize("method", BATCH_METHODS)
@pytest.mark.parametrize("seed", SERVICE_SEEDS)
def test_service_replay(seed, method, kind):
    clock = SimClock()
    with service(seed, method, clock) as svc:
        futures = drive(svc, clock, schedule(seed, kind))
    check_service(seed, svc, futures)


@pytest.mark.parametrize("kind", SCHEDULES)
def test_service_dedup(kind):
    """Executed batch keys are always distinct; duplicates fan out."""
    clock = SimClock()
    with QueryService(instance(29)[0], method="multi", max_batch=MAX_BATCH,
                      max_wait_ms=MAX_WAIT_MS, clock=clock) as svc:
        futures = drive(svc, clock, schedule(29, kind, salt=3))
    for record in svc.batches:
        assert len(set(record.keys)) == len(record.keys)
    stats = svc.stats()
    assert stats["submitted"] == len(futures)
    assert stats["executed"] == sum(b.size for b in svc.batches)
    assert stats["submitted"] == stats["executed"] + stats["deduped"]
    if kind == "flood":
        assert stats["deduped"] > 0


@pytest.mark.service
@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("method", BATCH_METHODS)
def test_process_service_replay(method, workers):
    """The service's records on a persistent warm pool replay serially."""
    seed = SERVICE_SEEDS[workers - 1]
    clock = SimClock()
    with service(seed, method, clock, backend="process", workers=workers) as svc:
        svc.warm()
        futures = drive(svc, clock, schedule(seed, "bursty", salt=97))
        futures += drive(svc, clock, schedule(seed, "flood", salt=97))
        assert svc.stats()["respawns"] == 0
    check_service(seed, svc, futures)


# Backend: process pools against the serial backend, byte for byte
_SMOKE = bool(os.environ.get("POOL_SMOKE"))
#: instance 0 (and 6) are directed.
POOL_SEEDS = (0, 2, 4) if _SMOKE else tuple(range(0, 12, 2))
WORKER_COUNTS = (2,) if _SMOKE else (1, 2, 4)


@pytest.fixture(scope="module", params=WORKER_COUNTS, ids=lambda w: f"w{w}")
def pool(request):
    """One shared pool per worker count, reused across every instance
    and method, like a serving process would."""
    from repro.parallel.pool import ProcessPool

    with ProcessPool(request.param) as p:
        yield p


@pytest.mark.pool
@pytest.mark.parametrize("method", BATCH_METHODS)
@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_process_backend(pool, seed, method):
    """Records, paths, meters and details equal the serial backend's,
    certified or not; self and unreachable pairs included."""
    graph, pairs = instance(seed)
    for certify in (True, False):
        serial = solve_batch(graph, pairs, method=method, certify=certify)
        proc = solve_batch(graph, pairs, method=method, certify=certify, pool=pool)
        assert batch_key(proc, pairs) == batch_key(serial, pairs), (seed, method, certify)
        check_batch(graph, seed, pairs, proc, certified=certify)


@pytest.mark.pool
@pytest.mark.parametrize("seed", POOL_SEEDS)
def test_process_backend_max_sources(pool, seed):
    """An explicit ``max_sources`` ships: its bounded units (a larger
    component cut into query subsets, run in turn) give the serial
    records byte for byte."""
    graph, pairs = instance(seed)
    for bound in (2, 4):
        serial = solve_batch(graph, pairs, method="multi", certify=True, max_sources=bound)
        proc = solve_batch(graph, pairs, method="multi", certify=True, max_sources=bound,
                           pool=pool)
        assert batch_key(proc, pairs) == batch_key(serial, pairs), (seed, bound)
        check_batch(graph, seed, pairs, proc, certified=True)


@pytest.mark.pool
def test_process_backend_heavy_tailed(pool, monkeypatch):
    """On heavy-tailed weights (CH5, std/mean 3.5) the workers take Δ
    from the graph as the parent does.  A timed Δ in the parent — a
    patched ``calibrate_delta`` returning mean/100, which the doubling
    never picks, installed after the workers forked — must reach
    neither side's records."""
    from repro.experiments.suite import build_graph
    from repro.graphs.connectivity import largest_component
    from repro.kernels import calibrate

    graph = build_graph("CH5", "tiny")
    ends = np.random.default_rng(5).choice(largest_component(graph), 20, replace=False)
    pairs = [(int(s), int(t)) for s, t in zip(ends[0::2], ends[1::2])]
    pool.open()
    mean_w, std_w = graph.weight_stats()
    assert std_w > 1.5 * mean_w
    monkeypatch.setattr(calibrate, "calibrate_delta", lambda g, **kw: mean_w / 100)
    serial = solve_batch(graph, pairs, method="multi", certify=True)
    proc = solve_batch(graph, pairs, method="multi", certify=True, pool=pool)
    assert batch_key(proc, pairs) == batch_key(serial, pairs)
    for s, t in pairs:
        assert proc.distance(s, t) == pytest.approx(dijkstra(graph, s)[t], rel=1e-9)
