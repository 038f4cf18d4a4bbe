"""Orionet public API: one-call PPSP and batch queries.

This is the library facade most users need:

>>> from repro import ppsp, batch_ppsp
>>> result = ppsp(graph, s, t, method="bids")
>>> result.distance, result.path()

Methods map to the paper's algorithms: ``sssp`` (no pruning), ``et``
(early termination), ``astar``, ``bids``, ``bidastar``; batch methods
are documented in :mod:`repro.core.batch`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core.batch import BATCH_METHODS, BatchResult, solve_batch
from .core.engine import RunResult, run_policy
from .core.paths import stitch_bidirectional_path, walk_path
from .core.policies import AStar, BiDAStar, BiDS, EarlyTermination, SsspPolicy
from .core.query_graph import QueryGraph
from .core.stepping import SteppingStrategy

__all__ = [
    "ppsp",
    "batch_ppsp",
    "PPSPAnswer",
    "PPSP_METHODS",
    "BATCH_METHODS",
    "validate_query",
]

PPSP_METHODS = ("sssp", "et", "astar", "bids", "bidastar")

_BIDIRECTIONAL = {"bids", "bidastar"}


def validate_query(graph, source: int, target: int) -> None:
    """Check a query's endpoints against the graph at the API boundary.

    Raises ``ValueError`` naming the offending vertex id instead of
    letting an out-of-range id surface as a cryptic numpy indexing error
    deep inside the engine.
    """
    n = graph.num_vertices
    if n == 0:
        raise ValueError("graph has no vertices; cannot answer queries")
    for name, v in (("source", source), ("target", target)):
        v = int(v)
        if not 0 <= v < n:
            raise ValueError(
                f"{name} vertex {v} out of range for graph "
                f"{graph.name!r} with {n} vertices"
            )


@dataclass
class PPSPAnswer:
    """Result of one point-to-point query.

    ``distance`` is the exact shortest s-t distance (``inf`` when
    disconnected); ``run`` carries the distance matrix and the work/depth
    meter for performance analysis.

    When an execution budget ran out mid-search, ``exact`` is False and
    ``distance`` degrades gracefully to the search's current upper bound
    μ — always ≥ the true distance, and finite as soon as any s-t path
    was seen; ``budget_report`` records which limit tripped.
    """

    source: int
    target: int
    distance: float
    method: str
    run: RunResult
    exact: bool = True
    budget_report: object | None = None
    #: set by ``ppsp(..., certify=True)`` — see :mod:`repro.verify`.
    certificate: object | None = None

    def path(self) -> list[int]:
        """A shortest s-t vertex path (raises PathError if unreachable)."""
        if self.source == self.target:
            return [self.source]
        graph = self.run.graph
        if self.method in _BIDIRECTIONAL:
            return stitch_bidirectional_path(
                graph, self.run.dist[0], self.run.dist[1], self.source, self.target
            )
        return walk_path(graph, self.run.dist[0], self.source, self.target)

    @property
    def reachable(self) -> bool:
        return bool(np.isfinite(self.distance))


def ppsp(
    graph,
    source: int,
    target: int,
    *,
    method: str = "bids",
    strategy: SteppingStrategy | None = None,
    memoize: bool = True,
    heuristic=None,
    heuristic_to_source=None,
    heuristic_to_target=None,
    budget=None,
    checked: bool = False,
    auditor=None,
    certify: bool = False,
    **engine_kwargs,
) -> PPSPAnswer:
    """Exact shortest s-t distance with the chosen algorithm.

    ``astar``/``bidastar`` need vertex coordinates on the graph (or
    explicit heuristics); all methods accept engine keywords
    (``frontier_mode``, ``pull_relax``, ``kernel``).  ``kernel`` takes a
    caller-built :class:`repro.kernels.Kernel` (e.g. a subclass that
    times the scatter); it never changes answers.

    ``budget`` (a :class:`repro.robustness.Budget`) bounds the search;
    on exhaustion the answer degrades gracefully to the current upper
    bound with ``exact=False``.  ``checked=True`` runs under a fresh
    :class:`repro.robustness.InvariantAuditor` (or pass ``auditor=``),
    raising ``InvariantViolation`` if a framework invariant breaks.
    ``certify=True`` attaches a :class:`repro.verify.Certificate`
    (witness path + lower-bound evidence) to the answer; degraded
    answers get one-sided upper-bound certificates.
    """
    validate_query(graph, source, target)
    if checked and auditor is None:
        from .robustness.auditor import InvariantAuditor  # lazy: avoids cycle

        auditor = InvariantAuditor()
    if method == "sssp":
        policy = SsspPolicy(source)
    elif method == "et":
        policy = EarlyTermination(source, target)
    elif method == "astar":
        policy = AStar(source, target, heuristic=heuristic, memoize=memoize)
    elif method == "bids":
        policy = BiDS(source, target)
    elif method == "bidastar":
        policy = BiDAStar(
            source,
            target,
            heuristic_to_source=heuristic_to_source,
            heuristic_to_target=heuristic_to_target,
            memoize=memoize,
        )
    else:
        raise ValueError(f"unknown method {method!r}; options: {PPSP_METHODS}")
    if certify:
        engine_kwargs.setdefault("track_processed", True)
    run = run_policy(
        graph, policy, strategy=strategy, budget=budget, auditor=auditor, **engine_kwargs
    )
    if method == "sssp":
        distance = float(run.answer[target])
    else:
        distance = float(run.answer)
    # A self pair is answered by its bind, even when a budget cuts the
    # run before its first step.
    exact = source == target or not run.exhausted
    certificate = None
    if certify:
        from .verify import certificate_for_run  # lazy: verify imports obs

        certificate = certificate_for_run(
            graph, int(source), int(target), method, distance, exact, run,
            heuristic_bound=_certified_bound(graph, source, target, method, heuristic,
                                             heuristic_to_source, heuristic_to_target),
        )
    return PPSPAnswer(
        source=int(source),
        target=int(target),
        distance=distance,
        method=method,
        run=run,
        exact=exact,
        budget_report=run.budget_report,
        certificate=certificate,
    )


def _certified_bound(
    graph, source, target, method, heuristic, heuristic_to_source, heuristic_to_target
):
    """h(s) for the certificate, or None when it cannot be vouched for.

    Only the *default geometric* heuristic is certifiable — the checker
    recomputes it from coordinates.  User-supplied heuristics may be
    admissible, but the checker has no way to re-derive them, so they
    are left out of the certificate rather than trusted blindly.
    """
    if method not in ("astar", "bidastar") or not graph.has_coords():
        return None
    if heuristic is not None or heuristic_to_source is not None or heuristic_to_target is not None:
        return None
    from .heuristics import make_heuristic  # lazy: optional dependency path

    h = make_heuristic(graph, int(target), memoize=False)
    return float(h(np.asarray([int(source)]))[0])


def batch_ppsp(graph, queries, *, method: str = "multi", **kwargs) -> BatchResult:
    """Answer a batch of (s, t) queries; see :mod:`repro.core.batch`.

    Endpoints are validated up front (``ValueError`` names the first
    offending vertex id); an empty batch returns an empty result.
    Raw pairs on a directed graph are directed queries.  Engine keywords
    ride through to every solver.
    """
    return solve_batch(graph, queries, method=method, **kwargs)

