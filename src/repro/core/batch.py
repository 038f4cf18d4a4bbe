"""Batch PPSP solvers (Sec. 4): Multi-BiDS, plain BiDS, and SSSP-based.

Four strategies over one :class:`~repro.core.query_graph.QueryGraph`,
matching the columns of the paper's Fig. 7:

* ``multi``        — Multi-BiDS: one engine run searching from every
  query-graph vertex with per-source radii (Sec. 4.2);
* ``plain-bids``   — our parallel BiDS per query, one query at a time;
* ``plain-star-bids`` (the paper's "Plain*") — all per-query BiDS runs
  launched simultaneously; on the simulated machine their steps overlap;
* ``sssp-plain``   — full SSSP from every distinct query source;
* ``sssp-vc``      — full SSSP from a vertex cover of the query graph
  (Sec. 4.3), the minimum set of SSSPs that answers everything.

Every method is one pipeline.  :func:`plan_units` splits the batch into
independent engine runs (:class:`BatchUnit`): one per query-graph
connected component for ``multi`` (per component of each query subset
when ``max_sources`` chunks the batch), one per query for the plain
modes, one per covering source for the SSSP methods.  :func:`run_unit`
answers one unit and :func:`reassemble` merges the unit results in the
serial order with the method's meter-merge structure.  The serial
backend runs the units inline; the process backend
(:mod:`repro.parallel.pool`) cuts the same units, in plan order, into
tasks whose workers call the same :func:`run_unit`, so the two backends
agree bit for bit by construction.

Each solve returns a :class:`BatchResult` carrying one
:class:`~repro.core.answer.QueryAnswer` per query, built by the unit
that answered it, and the run's work/depth meter, so simulated parallel
times are directly comparable across strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..parallel.cost_model import WorkDepthMeter
from .answer import AnswerLookup, QueryAnswer
from .engine import run_policy
from .paths import PathError, stitch_bidirectional_path, walk_path
from .policies import BiDS, MultiPPSP, SsspPolicy
from .query_graph import QueryGraph
from .stepping import SteppingStrategy

__all__ = [
    "BatchResult",
    "BatchUnit",
    "BatchPlan",
    "UnitResult",
    "solve_batch",
    "plan_units",
    "run_unit",
    "reassemble",
    "BATCH_METHODS",
]

BATCH_METHODS = ("multi", "plain-bids", "plain-star-bids", "sssp-plain", "sssp-vc")

#: methods whose units keep no per-query search state (no paths).
_PLAIN = ("plain-bids", "plain-star-bids")


@dataclass
class BatchResult(AnswerLookup):
    """Answers for one batch: one :class:`QueryAnswer` per stored key.

    Each record's ``exact`` comes from the unit run that answered it.
    A run an execution budget cut answers its current upper bounds
    (``inf`` for queries it never reached) with ``exact=False``, and
    ``details["budget_report"]`` says which limit tripped.  ``exact``
    and ``distances`` are read-only views over ``answers``.
    """

    answers: dict[tuple[int, int], QueryAnswer]
    meter: WorkDepthMeter
    method: str
    num_searches: int
    details: dict = field(default_factory=dict)
    #: a directed batch answers each pair in its asked orientation only.
    directed: bool = False
    #: the :class:`UnitResult` list paths are walked from (``None`` for
    #: the plain modes, which keep no per-query search state).
    _units: list | None = field(default=None, repr=False)

    def path(self, s: int, t: int) -> list[int]:
        """A shortest vertex path for one queried pair.

        Available for ``multi`` (stitched at the meeting vertex from the
        two search halves) and the SSSP-based methods (backward walk
        over the covering row).  The plain per-query BiDS modes discard
        per-query state; use ``multi`` when paths are needed.
        """
        if self._units is None:
            raise NotImplementedError(
                f"paths are not retained by method {self.method!r}; "
                "use method='multi' or an SSSP-based method"
            )
        if s == t:
            return [int(s)]
        for key in self._keys(s, t):
            for unit in self._units:
                if key in unit.answers:
                    path = unit.path(key)
                    if path is None:
                        raise PathError(f"no shortest path found for query {key}")
                    return list(path) if key == (s, t) else list(path)[::-1]
        raise KeyError(f"({s}, {t}) was not part of this batch")


class BatchUnit(NamedTuple):
    """One independent engine run of a batch.

    ``pairs`` are the queries the unit answers, as stored keys in answer
    order.  A ``multi`` unit searches from every endpoint of its pairs
    (one query-graph component, ``directed`` like its batch); a plain
    unit runs one BiDS for its one pair; an SSSP unit searches from
    ``source`` — over the reverse graph when ``reverse`` is set (a
    directed target copy) — and answers a pair from its source
    endpoint's row when the matching ``forward`` flag is set, from its
    target's otherwise.
    """

    method: str
    pairs: tuple
    directed: bool = False
    source: int = -1
    reverse: bool = False
    forward: tuple = ()


@dataclass
class BatchPlan:
    """A batch split into units, and how their results merge back.

    ``owner`` maps every answer key, in result order, to the index of
    the unit answering it (``None`` for a self pair that no SSSP
    covers: it is its own answer).  Meters merge concurrently within
    each of ``groups`` when ``parallel`` is set (sequentially
    otherwise), and sequentially across groups.  ``max_sources`` is set
    when ``multi`` ran in query subsets.
    """

    method: str
    units: list[BatchUnit]
    owner: dict
    groups: list[list[int]]
    parallel: bool
    max_sources: int | None = None


@dataclass
class UnitResult:
    """One unit's answer records, meter and path state.

    Paths are walked on demand from the unit's distance ``rows`` and
    cached in ``paths``; :meth:`detach` walks them all and drops the
    rows, which is the compact form a pool worker sends back.
    """

    answers: dict
    meter: WorkDepthMeter
    num_searches: int
    steps: int
    relaxations: int
    paths: dict = field(default_factory=dict)
    rows: np.ndarray | None = field(default=None, repr=False)
    _walk: object = field(default=None, repr=False)

    def path(self, key) -> tuple | None:
        """Witness path for one stored key (``None`` when none walks)."""
        if key not in self.paths:
            try:
                self.paths[key] = tuple(self._walk(key))
            except (PathError, ValueError, IndexError):
                self.paths[key] = None
        return self.paths[key]

    def detach(self) -> "UnitResult":
        """Walk every path now and drop the rows; returns ``self``."""
        if self._walk is not None:
            for key in self.answers:
                self.path(key)
        self.rows = self._walk = None
        return self


def solve_batch(
    graph,
    queries,
    *,
    method: str = "multi",
    strategy: SteppingStrategy | None = None,
    max_sources: int | None = None,
    budget=None,
    observer=None,
    certify: bool = False,
    backend: str = "serial",
    workers: int | None = None,
    pool=None,
    shard_deadline: float | None = None,
    **engine_kwargs,
) -> BatchResult:
    """Answer a batch of PPSP queries.

    ``queries`` is a :class:`QueryGraph` or a sequence of (s, t) pairs;
    an empty sequence yields an empty result.  Raw pairs are directed
    exactly when the graph is; a directed graph rejects an undirected
    :class:`QueryGraph`, whose searches would ignore arc direction.
    Endpoints are validated against the graph before any engine run.
    One ``strategy`` serves every engine run of the batch: the engine
    resets it at the start of each run.

    ``max_sources`` (Multi-BiDS only) bounds concurrent searches: the
    engine's distance table is ``O(n · |V_q|)``, so very large batches
    are processed in query-subsets of at most this many endpoints — the
    space-control strategy of Sec. 4.2 ("process a subset of queries in
    turn").

    ``budget`` (a :class:`repro.robustness.Budget`) is shared across the
    whole batch: one meter covers every engine run, and a run the meter
    cuts degrades its own answers gracefully (``exact=False``, current
    upper bounds, ``inf`` for unreached queries).  Each answer's
    exactness comes from its run, so a run that finishes on its own is
    exact even when it spends the budget to its last unit.

    ``observer`` (a :class:`repro.obs.Observer`) is threaded into every
    engine run this batch launches and receives one ``on_batch``
    notification for the combined result.

    ``certify=True`` attaches a :class:`repro.verify.Certificate` to
    each pair's :class:`QueryAnswer`: witness path plus
    relaxation facts sampled from the settled frontiers, built while the
    solver's dist rows are still alive.  Budget-degraded answers get
    one-sided upper-bound certificates.

    ``backend="process"`` ships the batch's units to a pool of worker
    processes attached to a shared-memory view of the graph
    (:mod:`repro.parallel.pool`): ``workers`` sets the pool size, or
    pass an existing :class:`~repro.parallel.pool.ProcessPool` as
    ``pool`` to amortize worker startup and graph export across batches.
    Workers run the same units through the same :func:`run_unit`, so the
    answers — distances, paths, and certificates — are bit-identical
    to ``backend="serial"``; features that are inherently single-process
    (``budget``, ``max_sources``, a ``kernel``) are rejected with a
    ``ValueError``.

    ``shard_deadline`` (wall seconds from submission) bounds a process
    batch: a stuck worker raises
    :class:`~repro.parallel.pool.ShardTimeout` after the pool has
    quarantined its workers, instead of hanging the batch.  Process
    backend only.

    Remaining keyword arguments flow into every engine run this batch
    launches (all five solvers), e.g. a caller-built ``kernel=``
    (:class:`repro.kernels.Kernel`) that observes the serial runs'
    scatter.
    """
    if method not in BATCH_METHODS:
        raise ValueError(f"unknown batch method {method!r}; options: {BATCH_METHODS}")
    if backend not in ("serial", "process"):
        raise ValueError(f"unknown backend {backend!r}; options: serial, process")
    if not isinstance(queries, QueryGraph):
        queries = list(queries)
        if len(queries) == 0:
            return BatchResult(
                answers={},
                meter=WorkDepthMeter(),
                method=method,
                num_searches=0,
                details={"empty": True},
            )
        qg = QueryGraph(queries, directed=graph.directed)
    else:
        qg = queries
        if graph.directed and not qg.directed:
            raise ValueError(
                f"graph {graph.name!r} is directed but the QueryGraph is not; "
                "build it with QueryGraph(pairs, directed=True)"
            )
    _validate_endpoints(graph, qg)

    if backend == "process":
        from ..parallel.pool import run_units, shippable_kwargs  # lazy: pool imports this module

        engine_kwargs, injector = shippable_kwargs(
            engine_kwargs, budget=budget, max_sources=max_sources
        )
    else:
        if workers is not None or pool is not None:
            raise ValueError("workers/pool apply to backend='process' only")
        if shard_deadline is not None:
            raise ValueError("shard_deadline applies to backend='process' only")
        if max_sources is not None and method != "multi":
            raise ValueError("max_sources applies to the 'multi' method only")

    plan = plan_units(graph, qg, method, max_sources=max_sources)
    if certify:
        engine_kwargs = {**engine_kwargs, "track_processed": True}
    bmeter = None
    if backend == "process":
        results = run_units(
            graph,
            plan.units,
            label=method,
            pool=pool,
            workers=workers,
            injector=injector,
            observer=observer,
            deadline=shard_deadline,
            strategy=strategy,
            certify=certify,
            **engine_kwargs,
        )
    else:
        if budget is not None:
            bmeter = budget if hasattr(budget, "charge") else budget.start()
            engine_kwargs = {**engine_kwargs, "budget": bmeter}
        if observer is not None:
            engine_kwargs = {**engine_kwargs, "observer": observer}
        results = [
            run_unit(graph, unit, strategy=strategy, certify=certify, **engine_kwargs)
            for unit in plan.units
        ]
    res = reassemble(graph, plan, results, certify=certify)
    res.directed = qg.directed

    if bmeter is not None:
        res.details["budget_report"] = bmeter.report()
    if observer is not None:
        observer.on_batch(method, res)
    return res


def _validate_endpoints(graph, qg: QueryGraph) -> None:
    """Reject out-of-range query endpoints before any engine work."""
    n = graph.num_vertices
    if n == 0:
        raise ValueError("graph has no vertices; cannot answer queries")
    for s, t in qg.original_pairs:
        for v in (s, t):
            if not 0 <= v < n:
                raise ValueError(
                    f"query ({s}, {t}): vertex {v} out of range for graph "
                    f"{graph.name!r} with {n} vertices"
                )


def _keys(qg: QueryGraph) -> list[tuple[int, int]]:
    """Stored (s, t) answer keys of the query-graph edges, in edge order."""
    verts = qg.vertices
    return [(int(verts[i]), int(verts[j])) for i, j in qg.edges]


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
def plan_units(
    graph, qg: QueryGraph, method: str, *, max_sources: int | None = None
) -> BatchPlan:
    """Split a batch into independent units (no engine work).

    ``multi`` runs each query-graph connected component as its own
    engine run.  Components exchange no shortest-path information, but
    a whole-batch run would still couple them: the stepping threshold
    comes from the *global* frontier minimum, so an unrelated component
    would alter extraction batching (and last-ulp float trajectories)
    everywhere.  Separate runs are independent, so the simulated machine
    executes them concurrently (``merge_parallel``).  With
    ``max_sources`` below the batch's endpoint count, edges are first
    greedily packed into query subsets whose union of endpoints stays
    within the bound; subsets run one after another (``merge``).

    The plain modes run one BiDS per query; the SSSP methods one full
    SSSP per source (the distinct sources of non-self queries for
    ``sssp-plain``, a vertex cover for ``sssp-vc``), each answering the
    queries it covers.  Self pairs need no search.
    """
    if method == "multi":
        subsets = [qg]
        if max_sources is not None and qg.num_vertices > max_sources:
            subsets = [QueryGraph(pairs, directed=qg.directed)
                       for pairs in _subsets(qg, max_sources)]
        else:
            max_sources = None
        units: list[BatchUnit] = []
        groups: list[list[int]] = []
        for subset in subsets:
            comps = subset.components()
            groups.append(list(range(len(units), len(units) + len(comps))))
            units += [BatchUnit(method, tuple(_keys(sub)), qg.directed) for sub in comps]
        owner = {key: u for u, unit in enumerate(units) for key in unit.pairs}
        return BatchPlan(method, units, owner, groups, True, max_sources)

    if method in _PLAIN:
        keys = _keys(qg)
        units = [BatchUnit(method, (key,)) for key in keys]
        owner = {key: u for u, key in enumerate(keys)}
        return BatchPlan(
            method, units, owner, [list(range(len(units)))], method == "plain-star-bids"
        )

    if method == "sssp-plain":
        sources = sorted({s for s, t in qg.original_pairs if s != t})
        source_indices = [qg.index_of(s) for s in sources]
    else:
        source_indices = [int(q) for q in qg.vertex_cover()]
    slot = {qi: u for u, qi in enumerate(source_indices)}
    owner: dict = {}
    answered: list[list[tuple]] = [[] for _ in source_indices]
    for (i, j), key in zip(qg.edges, _keys(qg)):
        s, t = key
        if s == t:
            # Self-queries are their own answer and need no covering row.
            owner[key] = None
        elif i in slot or j in slot:
            u = slot[i] if i in slot else slot[j]
            owner[key] = u
            answered[u].append((key, i in slot))
        else:
            raise ValueError(
                f"query ({s}, {t}) not covered by SSSP sources; "
                f"method {method!r} needs a covering source set"
            )
    verts = qg.vertices
    units = [
        BatchUnit(
            method,
            tuple(key for key, _ in answered[u]),
            source=int(verts[qi]),
            reverse=bool(
                graph.directed and qg.direction is not None and qg.direction[qi] < 0
            ),
            forward=tuple(fwd for _, fwd in answered[u]),
        )
        for u, qi in enumerate(source_indices)
    ]
    return BatchPlan(method, units, owner, [list(range(len(units)))], False)


def _subsets(qg: QueryGraph, max_sources: int) -> list[list[tuple[int, int]]]:
    """Greedy query subsets of at most ``max_sources`` endpoints each."""
    if max_sources < 2:
        raise ValueError("max_sources must be at least 2 (one query)")
    subsets: list[list[tuple[int, int]]] = []
    subset: list[tuple[int, int]] = []
    endpoints: set[int] = set()
    for pair in _keys(qg):
        added = {pair[0], pair[1]} - endpoints
        if subset and len(endpoints) + len(added) > max_sources:
            subsets.append(subset)
            subset, endpoints = [], set()
        subset.append(pair)
        endpoints.update(pair)
    if subset:
        subsets.append(subset)
    return subsets


# ----------------------------------------------------------------------
# Run
# ----------------------------------------------------------------------
def run_unit(graph, unit: BatchUnit, *, strategy=None, certify: bool = False,
             **engine_kwargs) -> UnitResult:
    """Answer one unit with one engine run (serial inline, or in a worker).

    Each key's :class:`QueryAnswer` is built here, so its ``exact`` is
    its own run's.  With ``certify`` (and ``track_processed=True`` among
    the engine kwargs) each answer gets its certificate while the run's
    rows are alive; the witness path is walked once and shared by the
    certificate and the unit's path cache.
    """
    if certify:
        from ..verify import build_certificate, certificate_for_run  # lazy: verify imports obs
    if unit.method in _PLAIN:
        (key,) = unit.pairs
        s, t = key
        res = run_policy(graph, BiDS(s, t), strategy=strategy, **engine_kwargs)
        d, exact = float(res.answer), not res.exhausted
        cert = certificate_for_run(graph, s, t, "bids", d, exact, res) if certify else None
        return UnitResult(
            {key: QueryAnswer.of(d, exact, cert)}, res.meter, 2, res.steps, res.relaxations,
        )

    if unit.method == "multi":
        qg = QueryGraph(unit.pairs, directed=unit.directed)
        res = run_policy(graph, MultiPPSP(qg), strategy=strategy, **engine_kwargs)
        index = dict(zip(unit.pairs, qg.edges))
        dist = res.dist  # the walk keeps the rows alive, not the whole run
        out = UnitResult(
            {}, res.meter, qg.num_vertices, res.steps, res.relaxations, rows=dist,
            _walk=lambda key: _stitch(graph, dist, index[key], key),
        )
        exact, pd = not res.exhausted, res.processed_dist
        for key, (i, j) in index.items():
            d = res.answer[key]
            cert = None
            if certify:
                # Row j is the target copy's search, over the reverse
                # orientation for a directed backward copy (Sec. 4.4).
                rev_j = bool(graph.directed and qg.direction is not None
                             and qg.direction[j] < 0)
                cert = build_certificate(
                    graph, key[0], key[1], "multi", d, exact,
                    dist_forward=res.dist[i],
                    dist_backward=res.dist[j],
                    backward_reversed=rev_j,
                    processed_forward=None if pd is None else pd[i],
                    processed_backward=None if pd is None else pd[j],
                    mu=d if exact else None,
                    path=out.path(key) if np.isfinite(d) else None,
                )
            out.answers[key] = QueryAnswer.of(d, exact, cert)
        return out

    g = graph.reverse() if unit.reverse else graph
    res = run_policy(g, SsspPolicy(unit.source), strategy=strategy, **engine_kwargs)
    row = res.distances_from(0)
    forward = dict(zip(unit.pairs, unit.forward))
    out = UnitResult(
        {}, res.meter, 1, res.steps, res.relaxations, rows=row,
        _walk=lambda key: _walk_row(g, row, forward[key], key),
    )
    exact = not res.exhausted
    prow = None if res.processed_dist is None else res.processed_dist[0]
    for key in unit.pairs:
        s, t = key
        d = float(row[t] if forward[key] else row[s])
        cert = None
        if certify:
            path = out.path(key) if np.isfinite(d) else None
            if forward[key]:
                cert = build_certificate(
                    graph, s, t, unit.method, d, exact,
                    dist_forward=row, processed_forward=prow, path=path,
                )
            else:
                cert = build_certificate(
                    graph, s, t, unit.method, d, exact,
                    dist_backward=row, backward_reversed=unit.reverse,
                    processed_backward=prow, path=path,
                )
        out.answers[key] = QueryAnswer.of(d, exact, cert)
    return out


def _stitch(graph, dist: np.ndarray, edge: tuple[int, int], key) -> list[int]:
    """Multi-BiDS path for one stored key from its edge's two rows."""
    s, t = key
    if s == t:
        return [s]
    i, j = edge
    return stitch_bidirectional_path(graph, dist[i], dist[j], s, t)


def _walk_row(g, row: np.ndarray, forward: bool, key) -> list[int]:
    """SSSP path for one stored key from the covering row.

    A source-covered key walks ``s -> t`` over the row.  A target-covered
    key walks ``t -> s`` over the graph the row was searched on (the
    reverse graph for a directed target copy), then flips.
    """
    s, t = key
    if forward:
        return walk_path(g, row, s, t)
    return walk_path(g, row, t, s)[::-1]


# ----------------------------------------------------------------------
# Reassemble
# ----------------------------------------------------------------------
def reassemble(graph, plan: BatchPlan, results: list[UnitResult], *,
               certify: bool = False) -> BatchResult:
    """Merge unit results into one :class:`BatchResult`.

    Keys come out in the plan's order with the record their unit built;
    meters fold concurrently within a plan group and sequentially across
    groups, a lone meter passing through as is.
    """
    if certify:
        from ..verify import build_certificate  # lazy: verify imports obs
    answers: dict[tuple[int, int], QueryAnswer] = {}
    for key, u in plan.owner.items():
        if u is not None:
            answers[key] = results[u].answers[key]
        else:
            cert = (build_certificate(graph, key[0], key[1], plan.method, 0.0, True)
                    if certify else None)
            answers[key] = QueryAnswer(0.0, certificate=cert)
    meter = _merge(
        [_merge([results[u].meter for u in group], plan.parallel) for group in plan.groups],
        False,
    )
    details: dict = {}
    if plan.max_sources is not None:
        details = {"chunks": len(plan.groups), "max_sources": plan.max_sources}
    elif plan.method == "multi":
        if len(results) > 1:
            details["components"] = len(results)
        details["steps"] = sum(res.steps for res in results)
        details["relaxations"] = sum(res.relaxations for res in results)
    return BatchResult(
        answers=answers,
        meter=meter,
        method=plan.method,
        num_searches=sum(res.num_searches for res in results),
        details=details,
        _units=None if plan.method in _PLAIN else results,
    )


def _merge(meters: list[WorkDepthMeter], parallel: bool) -> WorkDepthMeter:
    """Fold meters into one (a single meter is returned as is)."""
    if len(meters) == 1:
        return meters[0]
    combined = WorkDepthMeter()
    if parallel:
        combined.merge_parallel(meters)
    else:
        for meter in meters:
            combined.merge(meter)
    return combined
