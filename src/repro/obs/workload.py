"""The seeded stats workload behind ``repro stats``.

One deterministic pass that exercises every instrumented layer on one
graph: each of the five single-query methods answers every pair once
through :func:`repro.ppsp`, a Multi-BiDS batch runs over the same
pairs, one resilient query walks the fallback chain, a chaos-seeded
serve pipeline trips a circuit breaker open,
routes through the fallback rungs and recovers it via a half-open
probe (all on a simulated clock), and a verified serve run detects
seeded bit-flip corruption and repairs it (exercising the certificate
checker, repair, and quarantine counters).
All randomness flows from one seed,
so the resulting metrics — everything except wall-clock histograms —
are reproducible byte for byte, which is what lets the text exposition
be pinned as a golden fixture (``tests/obs/test_stats_golden.py``).
"""

from __future__ import annotations

import numpy as np

from ..graphs import road_graph
from ..graphs.connectivity import largest_component
from .observer import Observer

__all__ = ["stats_workload", "DEFAULT_STATS_SEED", "STATS_METHODS"]

DEFAULT_STATS_SEED = 1729
STATS_METHODS = ("sssp", "et", "astar", "bids", "bidastar")


def default_stats_graph():
    """The built-in workload graph (the golden-trace road grid)."""
    return road_graph(8, 8, seed=5, name="stats-road")


def seeded_pairs(graph, num_pairs: int, seed: int) -> list[tuple[int, int]]:
    """``num_pairs`` distinct (s, t) pairs inside the largest component."""
    lcc = largest_component(graph)
    if len(lcc) < 2:
        raise ValueError(
            f"graph {graph.name!r} has no component with >= 2 vertices"
        )
    rng = np.random.default_rng(seed)
    want = min(num_pairs, len(lcc) // 2)
    chosen = rng.choice(lcc, size=2 * want, replace=False)
    return [(int(chosen[2 * i]), int(chosen[2 * i + 1])) for i in range(want)]


def stats_workload(
    graph=None, *, num_pairs: int = 3, seed: int = DEFAULT_STATS_SEED
) -> Observer:
    """Run the observed workload and return the (filled) observer.

    ``graph`` defaults to the seeded 8x8 road grid; on a graph without
    coordinates the A* methods are skipped.  Each query runs inside its
    own :class:`QuerySpan`, so the returned observer carries both the
    lifetime metrics and the per-query records.
    """
    from ..api import ppsp
    from ..core.batch import solve_batch
    from ..robustness.clock import SimClock
    from ..robustness.faults import FaultInjector
    from ..robustness.resilient import resilient_ppsp
    from ..serve import ServePipeline

    if graph is None:
        graph = default_stats_graph()
    obs = Observer()
    pairs = seeded_pairs(graph, num_pairs, seed)

    has_coords = graph.coords is not None and graph.coord_system is not None
    run_methods = tuple(
        m for m in STATS_METHODS if has_coords or m not in ("astar", "bidastar")
    )

    for method in run_methods:
        for s, t in pairs:
            with obs.span(method, source=s, target=t) as span:
                span.distance = ppsp(graph, s, t, method=method, observer=obs).distance

    if len(pairs) >= 2:
        with obs.span("batch-multi") as span:
            res = solve_batch(graph, pairs, method="multi", observer=obs)
            span.exact = res.exact
    if pairs:
        s, t = pairs[0]
        with obs.span("resilient", source=s, target=t) as span:
            ans = resilient_ppsp(graph, s, t, observer=obs)
            span.distance = ans.distance

    if len(pairs) >= 2:
        # A deterministic serve story on a simulated clock: the first
        # two shards hit injected permanent faults, trip the batch
        # breaker open, and route through the resilient rungs; admission
        # sheds the lowest-priority pair; after the cooldown a second
        # run's half-open probe closes the breaker again.  Every counter
        # this touches is seed-reproducible.
        sim = SimClock()
        pipe = ServePipeline(
            graph,
            method="multi",
            checkpoint_every=max(len(pairs) // 2, 1),
            max_queue=max(len(pairs) - 1, 1),
            breaker_threshold=1,
            breaker_cooldown=5.0,
            clock=sim,
            observer=obs,
            fault_injector=FaultInjector(seed=seed, raise_at=0, max_fires=2),
        )
        with obs.span("serve-batch") as span:
            res = pipe.run(pairs)
            span.exact = res.exact
        sim.advance(10.0)  # past the cooldown: next run probes half-open
        with obs.span("serve-batch") as span:
            res = pipe.run(pairs)
            span.exact = res.exact

        # The verification story, two acts: a clean verified run proves
        # every answer valid, then seeded bit-flips corrupt tentative
        # distances mid-run and every corrupted answer is refuted by its
        # certificate, repaired by an exact recompute, and re-proven —
        # filling the verify/repair counter families deterministically.
        with obs.span("serve-verify") as span:
            res = ServePipeline(
                graph, method="multi", verify=True, observer=obs
            ).run(pairs)
            span.exact = res.exact
        pipe = ServePipeline(
            graph,
            method="multi",
            verify=True,
            observer=obs,
            fault_injector=FaultInjector(
                seed=seed, flip_dist_at=2, flip_dist_count=8, max_fires=4
            ),
        )
        with obs.span("serve-verify") as span:
            res = pipe.run(pairs)
            span.exact = res.exact

    return obs
