"""The PPSP framework engine — the paper's Algorithm 2.

One engine, :func:`run_policy`, drives every algorithm in Orionet.  A
:class:`~repro.core.policies.Policy` supplies the three user-defined
functions of the framework —

* ``Init``   (:meth:`Policy.bind`: seed elements and distances),
* ``Prune``  (:meth:`Policy.prune_bound`: skip elements whose
  priority reaches the bound, since they cannot improve any answer),
* ``UpdateDistance`` (:meth:`Policy.on_relax`: fold freshly relaxed
  elements into the running answer μ),

while a :class:`~repro.core.stepping.SteppingStrategy` supplies
``GetDist`` (the per-step threshold θ of Alg. 1).

Searches from multiple sources share one flat distance array indexed by
*composite element ids* ``e = i * n + v`` — vertex ``v`` searched from
the ``i``-th source, the paper's ``v^(i)`` copies.  Each step extracts
all frontier elements with priority <= θ, relaxes their out-edges as one
vectorized batch (the data-parallel inner loop of the fork-join
algorithm), applies ``write_min`` over the targets, and feeds the
successfully relaxed elements to the policy.

Work/depth of every step is recorded in a
:class:`~repro.parallel.cost_model.WorkDepthMeter` so that simulated
parallel times (Fig. 5/9) come from the same execution that produced the
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..kernels.relax import gather_relax
from ..kernels.scatter import get_kernel
from ..parallel.cost_model import WorkDepthMeter
from ..parallel.primitives import expand_ranges
from .frontier import Frontier
from .stepping import SteppingStrategy, default_strategy

if TYPE_CHECKING:  # pragma: no cover
    from ..graphs.csr import Graph
    from .policies import Policy

__all__ = ["RunResult", "run_policy"]


@dataclass
class RunResult:
    """Outcome of one engine run.

    ``dist`` is the ``(k, n)`` tentative-distance matrix at termination
    (row ``i`` = distances from the ``i``-th source; settled vertices hold
    true distances).  ``answer`` is whatever the policy's ``result()``
    returns — a float μ for single queries, a per-query dict for batches.

    ``exhausted`` is True when an execution budget stopped the run before
    the frontier drained; ``answer`` then holds the policy's current
    upper bound (graceful degradation) and ``budget_report`` says which
    limit tripped.
    """

    answer: object
    dist: np.ndarray
    meter: WorkDepthMeter
    steps: int
    relaxations: int
    policy: "Policy"
    graph: "Graph"
    exhausted: bool = False
    budget_report: object | None = None
    #: with ``track_processed=True``: the ``(k, n)`` snapshot of each
    #: element's tentative distance at its most recent extraction (inf =
    #: never relaxed).  Certificates sample relaxation facts from it.
    processed_dist: np.ndarray | None = None

    def distances_from(self, source_index: int = 0) -> np.ndarray:
        """Tentative distances from one source (full SSSP row)."""
        return self.dist[source_index]


def run_policy(
    graph: "Graph",
    policy: "Policy",
    *,
    strategy: SteppingStrategy | None = None,
    frontier_mode: str = "auto",
    pull_relax: bool = False,
    meter: WorkDepthMeter | None = None,
    budget=None,
    auditor=None,
    fault_injector=None,
    observer=None,
    trace=None,
    track_processed: bool = False,
    kernel=None,
) -> RunResult:
    """Execute Alg. 2 with ``policy`` on ``graph`` until the frontier drains.

    Parameters
    ----------
    graph : Graph
        The input graph.
    policy : Policy
        ``Init``/``Prune``/``UpdateDistance`` of the algorithm to run.
    strategy : SteppingStrategy, optional
        ``GetDist`` plug-in; defaults to untuned Δ*-stepping.  Its
        ``reset()`` runs at the start of every run, so one strategy
        object may serve many runs.
    frontier_mode : {"auto", "sparse", "dense"}
        Frontier representation (App. B sparse-dense optimization).
    pull_relax : bool
        Enable the bidirectional relaxation optimization (App. B): before
        pushing from an extracted vertex, pull the best distance from its
        in-neighbors so it pushes the tightest value it can.
    meter : WorkDepthMeter, optional
        Charged with every step's work; a fresh one by default.
    budget : Budget or BudgetMeter or None
        Execution budget (:mod:`repro.robustness.budget`), the one way to
        cut a run short.  A ``Budget`` spec is started fresh for this
        run; a live ``BudgetMeter`` is charged in place, letting several
        runs share one budget.  A reached limit stops the run at a step
        boundary; unless the policy is ``finished()`` there, the run
        was cut and reports ``RunResult.exhausted``.
    auditor : InvariantAuditor or None
        Checked mode (:mod:`repro.robustness.auditor`): verify framework
        invariants after every step, raising ``InvariantViolation``.
    fault_injector : FaultInjector or None
        Chaos hook (:mod:`repro.robustness.faults`); production runs
        leave this None.
    observer : Observer or None
        Observability hook (:mod:`repro.obs`), duck-typed like the
        robustness hooks so the core stays import-free of repro.obs.
        When set, the run is traced (the observer supplies a
        :class:`~repro.core.tracing.StepTrace` if the caller didn't)
        and folded into the observer's metrics and current span at run
        end.  ``None`` — the default — costs one ``is None`` test.
    trace : StepTrace or None
        Receives a per-step record of θ, frontier sizes, prune counts,
        and μ.
    track_processed : bool
        Record, per element, the tentative distance it held when it was
        last extracted for relaxation (``RunResult.processed_dist``).
        Certificate emission (:mod:`repro.verify`) samples sound
        relaxation facts from this snapshot: an extracted element
        relaxed *all* its out-edges, so ``dist[v] <= snapshot[u] + w``
        must hold at termination.  Off by default — the extra ``(k*n,)``
        buffer and per-step scatter stay out of the hot path.
    kernel : Kernel or None
        Scatter-min kernel for the relaxation inner loop
        (:mod:`repro.kernels`); ``None`` builds a fresh one.  A caller
        passes its own (sub)class instance to observe or time the
        scatter; answers never depend on it.
    """
    kernel = get_kernel(kernel)
    if strategy is None:
        strategy = default_strategy(graph)
    if observer is not None:
        trace = observer.begin_run(policy, trace)
    n = graph.num_vertices
    k = policy.num_sources
    dist = np.full(k * n, np.inf, dtype=np.float64)
    meter = meter if meter is not None else WorkDepthMeter()
    # Certificate support: snapshot of dist[e] at e's last extraction.
    pdist = np.full(k * n, np.inf, dtype=np.float64) if track_processed else None
    strategy.reset()

    seeds, seed_vals = policy.bind(graph, dist)
    seeds = np.asarray(seeds, dtype=np.int64)
    dist[seeds] = np.asarray(seed_vals, dtype=np.float64)
    policy.on_relax(seeds, dist)

    frontier = Frontier(k * n, mode=frontier_mode, observer=observer)
    frontier.add(seeds)

    # Robustness hooks are duck-typed so the core stays import-free of
    # repro.robustness: a Budget spec (has .start) opens a fresh meter;
    # a live BudgetMeter is charged in place (shared budgets).
    bmeter = budget
    if bmeter is not None and not hasattr(bmeter, "charge"):
        bmeter = bmeter.start()
    if fault_injector is not None:
        fault_injector.on_bind(policy, graph)
    if auditor is not None:
        auditor.start(policy, graph, dist)

    # Group source indices by the graph they traverse (identical for
    # undirected inputs; forward/reverse split for directed BiDS).
    groups = _source_graph_groups(policy, k)

    steps = 0
    relaxations = 0
    exhausted_reason = None
    empty = np.empty(0, dtype=np.int64)
    while len(frontier):
        if bmeter is not None and bmeter.reached() is not None:
            # A spent budget cuts the run only while work is left: a
            # run that ends at this boundary finished within it.
            if not policy.finished(frontier.ids(), dist):
                exhausted_reason = bmeter.check()
            break
        if fault_injector is not None:
            fault_injector.on_step_start(steps, dist, frontier, policy)
        current = frontier.ids()
        if policy.finished(current, dist):
            break
        prio = policy.priority(current, dist)
        theta = strategy.threshold(prio)
        take = prio <= theta
        step_work = float(len(current))

        # Prune (line 6 of Alg. 2) with one mask over the whole
        # frontier: extracted elements that cannot contribute are
        # skipped, and stale deferred ones are dropped so μ
        # improvements shrink the frontier immediately.  While the
        # policy cannot prune yet (μ = ∞) the mask is skipped.
        keep = None
        pruned_count = 0
        pruned_parts: list[np.ndarray] = []
        if policy.prunable():
            pmask = prio >= policy.prune_bound(current)
            if pmask.any():
                keep = ~pmask
                pruned_count = int(pmask.sum())
                if auditor is not None:
                    pruned_parts.append(current[pmask])
        if take.all():
            # Whole-frontier steps (Bellman-Ford strategy, bucket
            # tails) skip the split.
            extracted_count = len(current)
            process = current if keep is None else current[keep]
            deferred = empty
        else:
            extracted_count = int(take.sum())
            if keep is None:
                process = current[take]
                deferred = current[~take]
            else:
                process = current[take & keep]
                deferred = current[~take & keep]
        frontier.replace(deferred, assume_sorted=True)

        step_edges = 0
        improved_count = 0
        changed_kept = empty
        if len(process):
            if pdist is not None:
                # Values about to be used for relaxation.  A later
                # group may lower some of them mid-step, so the
                # snapshot is an upper bound on the value actually
                # used — which keeps dist[v] <= pdist[u] + w sound.
                pdist[process] = dist[process]
            changed_all: list[np.ndarray] = []
            for graph_obj, source_mask in groups:
                if source_mask is None:
                    batch = process
                else:
                    batch = process[source_mask[process // n]]
                if len(batch) == 0:
                    continue
                changed, edge_count = _relax_batch(
                    graph_obj, batch, dist, n, kernel, pull_relax
                )
                relaxations += edge_count
                step_edges += edge_count
                step_work += len(batch) + edge_count
                if len(changed):
                    changed_all.append(changed)

            if changed_all:
                # scatter_min returns sorted unique ids, so the
                # single-group case (all undirected searches) skips
                # the extra unique sort entirely.
                if len(changed_all) == 1:
                    changed = changed_all[0]
                else:
                    changed = np.unique(np.concatenate(changed_all))
                improved_count = len(changed)
                step_work += float(improved_count)
                policy.on_relax(changed, dist)
                if policy.prunable():
                    mask = policy.prune_mask(changed, dist)
                    if auditor is not None and mask.any():
                        pruned_parts.append(changed[mask])
                    changed = changed[~mask]
                    pruned_count += improved_count - len(changed)
                changed_kept = changed
                frontier.add(changed_kept)

        if fault_injector is not None:
            fault_injector.on_step_end(steps, dist, frontier, policy)
        if auditor is not None:
            auditor.after_step(
                steps, dist, policy,
                frontier_ids=frontier.ids(),
                deferred=deferred,
                changed_kept=changed_kept,
                processed=process,
                pruned=np.concatenate(pruned_parts) if pruned_parts else empty,
            )

        step_work += policy.take_extra_work()
        meter.record_step(step_work)
        if trace is not None:
            trace.record(
                step=steps, theta=float(theta), frontier_size=len(current),
                extracted=extracted_count, pruned=pruned_count,
                relaxed_edges=step_edges, improved=improved_count,
                mu=policy.trace_mu(),
            )
        if bmeter is not None:
            bmeter.charge(steps=1, relaxations=step_edges)
        steps += 1

    result = RunResult(
        answer=policy.result(),
        dist=dist.reshape(k, n),
        meter=meter,
        steps=steps,
        relaxations=relaxations,
        policy=policy,
        graph=graph,
        exhausted=exhausted_reason is not None,
        budget_report=bmeter.report() if bmeter is not None else None,
        processed_dist=pdist.reshape(k, n) if pdist is not None else None,
    )
    if observer is not None:
        kernel_stats = kernel.take_stats()
        if kernel_stats:
            observer.on_kernel(kernel_stats)
        observer.end_run(result, trace)
    return result


def _relax_batch(
    graph: "Graph", eids: np.ndarray, dist: np.ndarray, n: int, kernel, pull_relax: bool
) -> tuple[np.ndarray, int]:
    """Relax all out-edges of ``eids`` in one vectorized batch.

    Returns the composite ids whose tentative distance strictly
    improved, plus the number of edges touched.
    """
    if len(dist) == n:
        # One search: element ids are vertex ids.
        v = eids
        src_off = np.zeros(len(eids), dtype=np.int64)
    else:
        v = eids % n
        src_off = eids - v  # i * n per element

    if pull_relax:
        _pull_relax(graph, eids, v, src_off, dist, kernel)

    # scratch=None: the traced benchmark run (perfbench/spans.py)
    # wraps this name with a signature that requires the keyword.
    te, new_d, edge_count = gather_relax(graph, eids, v, src_off, dist, scratch=None)
    if edge_count == 0:
        return np.empty(0, dtype=np.int64), 0

    before = dist[te]
    improving = new_d < before
    if not improving.any():
        return np.empty(0, dtype=np.int64), edge_count
    # Every unique improving target strictly changed: its final value
    # is <= the smallest proposal, which was < the pre-batch value.
    changed = kernel.scatter_min(dist, te[improving], new_d[improving])
    return changed, edge_count


def _pull_relax(
    graph: "Graph",
    eids: np.ndarray,
    v: np.ndarray,
    src_off: np.ndarray,
    dist: np.ndarray,
    kernel,
) -> None:
    """Bidirectional relaxation (App. B): tighten δ[u] from in-neighbors."""
    rev = graph if not graph.directed else graph.reverse()
    starts = rev.indptr[v]
    counts = rev.out_degrees()[v]
    has = counts > 0
    if not has.any():
        return
    edge_idx = expand_ranges(starts[has], counts[has])
    nbr = rev.indices[edge_idx].astype(np.int64)
    ne = np.repeat(src_off[has], counts[has]) + nbr
    cand = dist[ne] + rev.weights[edge_idx]
    # Segment-min per extracted element, then write_min into dist.
    ends = np.cumsum(counts[has])
    seg_starts = np.concatenate([[0], ends[:-1]])
    mins = np.minimum.reduceat(cand, seg_starts)
    kernel.scatter_min(dist, eids[has], mins)


def _source_graph_groups(policy: "Policy", k: int):
    """Group the k sources by the CSR they traverse.

    Returns a list of ``(graph, source_mask)`` pairs; ``source_mask`` is
    None when every source shares one graph (the overwhelmingly common
    undirected case, which then skips the mask gather entirely).
    """
    graphs = [policy.source_graph(i) for i in range(k)]
    if all(g is graphs[0] for g in graphs):
        return [(graphs[0], None)]
    groups: list[tuple[object, np.ndarray]] = []
    seen: dict[int, int] = {}
    masks: list[np.ndarray] = []
    objs: list[object] = []
    for i, g in enumerate(graphs):
        key = id(g)
        if key not in seen:
            seen[key] = len(objs)
            objs.append(g)
            masks.append(np.zeros(k, dtype=bool))
        masks[seen[key]][i] = True
    return list(zip(objs, masks))
