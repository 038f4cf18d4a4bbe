"""GraphIt-style unidirectional PPSP baseline (GI-ET / GI-A*).

Reimplements the algorithmic core of GraphIt's ordered-processing PPSP
(Zhang et al., CGO'20) over our CSR substrate so the comparison against
Orionet isolates the *algorithmic* differences the paper credits for its
speedups:

* unidirectional search only (early termination, optionally A*);
* lazy bucketed Δ-stepping in which a vertex is **not deduplicated**
  across bucket insertions — stale and duplicate entries are re-examined
  when popped (GraphIt's lazy bucket update);
* no sparse-dense frontier switching, no bidirectional relaxation, and
  no heuristic memoization (GraphIt recomputes ``h`` per relaxation,
  which is why the paper finds GI-A* can lose to GI-ET).

The implementation is still vectorized per bucket, so wall-clock ratios
against Orionet reflect extra relaxations and heuristic work, not an
artificial Python penalty.
"""

from __future__ import annotations

import math

import numpy as np

from ..heuristics.geometric import PointHeuristic
from ..kernels.scatter import Kernel
from ..parallel.cost_model import WorkDepthMeter
from ..parallel.primitives import expand_ranges

__all__ = ["graphit_ppsp"]


def graphit_ppsp(
    graph,
    source: int,
    target: int,
    *,
    delta: float,
    use_astar: bool = False,
    meter: WorkDepthMeter | None = None,
    max_buckets: int = 1 << 22,
) -> float:
    """GI-ET (``use_astar=False``) or GI-A* distance query.

    ``delta`` is the bucket width (tuned per graph, as in the paper's
    experiments).  Returns the exact s-t distance.  The scatter-min is
    the engine's :class:`~repro.kernels.Kernel`, so baseline timings
    ride the same inner loop.
    """
    n = graph.num_vertices
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("query out of range")
    meter = meter if meter is not None else WorkDepthMeter()
    if source == target:
        return 0.0

    h = None
    if use_astar:
        if graph.coords is None:
            raise ValueError("GI-A* needs coordinates")
        h = PointHeuristic(graph.coords, target, graph.coord_system)

    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    kern = Kernel()
    degs = graph.out_degrees()
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    mu = np.inf

    def bucket_of(priorities: np.ndarray) -> np.ndarray:
        return np.minimum((priorities / delta).astype(np.int64), max_buckets - 1)

    # Lazy bucket structure: bucket index -> list of vertex-id arrays.
    seed = np.array([source], dtype=np.int64)
    seed_prio = dist[seed] + (h(seed) if h is not None else 0.0)
    buckets: dict[int, list[np.ndarray]] = {int(bucket_of(seed_prio)[0]): [seed]}
    current = 0

    while buckets:
        while current not in buckets:
            current += 1
            if current >= max_buckets:
                return float(mu)
            if not buckets:
                return float(mu)
        chunks = buckets.pop(current)
        batch = np.concatenate(chunks)
        # Lazy update: drop entries whose priority no longer matches the
        # bucket (they were superseded) and entries past the prune bound.
        d = dist[batch]
        prio = d + h(batch) if h is not None else d
        # Lazy check: entries whose priority moved *up* past this bucket
        # are stale copies (a duplicate lives in a later bucket); entries
        # at or below the current bucket are processed now.
        live = bucket_of(prio) <= current
        live &= prio < mu
        batch = batch[live]
        step_work = float(len(chunks) + len(d))
        if h is not None:
            step_work += len(d)
        if len(batch) == 0:
            meter.record_step(step_work)
            continue
        # NOTE: no dedup here — duplicates relax redundantly, as in lazy
        # bucketing.
        starts = indptr[batch]
        counts = degs[batch]
        edge_idx = expand_ranges(starts, counts)
        step_work += float(len(edge_idx))
        if len(edge_idx):
            tgt = indices[edge_idx].astype(np.int64)
            nd = np.repeat(dist[batch], counts) + weights[edge_idx]
            before = dist[tgt]
            improving = nd < before
            if improving.any():
                # One fused scatter-min: the write and the deduplicated
                # improving-target set (a vertex may still live in
                # several buckets at once — lazy bucket update — so
                # stale copies are filtered at pop time).
                tgt_i = kern.scatter_min(dist, tgt[improving], nd[improving])
                if dist[target] < mu:
                    mu = float(dist[target])
                prio_i = dist[tgt_i] + h(tgt_i) if h is not None else dist[tgt_i]
                if h is not None:
                    step_work += len(tgt_i)
                keep = prio_i < mu
                tgt_i, prio_i = tgt_i[keep], prio_i[keep]
                # An improvement can map below the cursor (its old bucket
                # already passed); Δ-stepping re-processes it in the
                # current bucket, so clamp the insertion index.
                ins = np.maximum(bucket_of(prio_i), current)
                for b in np.unique(ins):
                    buckets.setdefault(int(b), []).append(tgt_i[ins == b])
        meter.record_step(step_work)
        if math.isfinite(mu) and not buckets:
            break
    return float(mu)
