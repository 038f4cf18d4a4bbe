"""The warm engine: amortize per-query overheads across a query stream.

A cold :func:`repro.ppsp` call pays two avoidable costs every time: a
new heuristic (recomputing ``h`` rows A* already computed for the last
query to the same target), and — trivially but measurably —
re-deriving the answer for a query the service just answered.
:class:`WarmEngine` binds both amortizations to one graph and answers
every miss through :func:`repro.ppsp` itself:

* **heuristic caching** — memoized per-target heuristics are kept in an
  LRU, so repeated A*/BiD-A* queries toward a target reuse its ``h``
  table (geometric graphs) or its landmark row
  (:class:`~repro.heuristics.landmarks.LandmarkSet` graphs);
* **result caching** — exact ``(s, t, method)`` answers are served from
  an LRU without touching the engine at all.

Usage::

    engine = WarmEngine(graph)
    a = engine.query(s, t, method="bidastar", path=True)
    a.distance, a.path()
    engine.batch(pairs, method="multi")

Caches assume the graph is frozen; after mutating it in place call
:meth:`WarmEngine.invalidate`.  See ``docs/perf.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..api import ppsp, validate_query
from ..core.batch import BATCH_METHODS, BatchResult, solve_batch
from ..heuristics.geometric import Heuristic, make_heuristic
from .cache import LRUCache, ResultCache

__all__ = ["WarmAnswer", "WarmEngine"]

#: LRU capacity of the per-target heuristic cache.
HEURISTIC_CACHE_SIZE = 64


@dataclass(frozen=True)
class WarmAnswer:
    """One warm query's answer — values only, no live engine state.

    Unlike :class:`repro.api.PPSPAnswer`, this carries no ``RunResult``,
    so a cached answer keeps no ``(k, n)`` distance matrix alive.
    ``path()`` returns the shortest path when the query was made with
    ``path=True``; ``cached`` says the answer came straight from the
    result cache.
    """

    source: int
    target: int
    method: str
    distance: float
    exact: bool = True
    cached: bool = False
    steps: int = 0
    relaxations: int = 0
    work: float = 0.0
    depth: float = 0.0
    path_vertices: tuple[int, ...] | None = None
    #: attached under ``verify_hits=True`` so cache hits can be
    #: re-validated; excluded from equality (two answers with the same
    #: values are the same answer, certified or not).
    certificate: object | None = field(default=None, compare=False)

    @property
    def reachable(self) -> bool:
        return bool(np.isfinite(self.distance))

    def path(self) -> list[int]:
        """The shortest s-t vertex path captured at query time."""
        if self.source == self.target:
            return [self.source]
        if not self.reachable:
            from ..core.paths import PathError

            raise PathError(f"target {self.target} unreachable from {self.source}")
        if self.path_vertices is None:
            raise ValueError(
                "path was not captured; re-run the query with path=True"
            )
        return list(self.path_vertices)


class WarmEngine:
    """Serve many queries against one graph with cached state.

    Parameters
    ----------
    graph : Graph
        The (frozen) input graph.
    landmarks : LandmarkSet, optional
        ALT landmarks enabling ``astar``/``bidastar`` on graphs without
        coordinates; graphs *with* coordinates use their geometric
        heuristic and ignore this.
    result_cache_size : int
        LRU capacity of the exact-answer cache (0 disables).
    observer : repro.obs.Observer, optional
        Default-off observability hook.  When attached, every engine run
        reports work/depth/steps, the result and heuristic caches emit
        hit/miss/evict events (layers ``"result"`` and ``"heuristic"``),
        and an attached landmark set reports its h-row memo hits.  When
        ``None`` (the default) the warm path is bit-identical to the
        uninstrumented engine.
    verify_hits : bool
        Certificate-validate every result-cache hit before serving it
        (:mod:`repro.verify`).  A hit that fails its check is
        **quarantined**: evicted and recomputed fresh, never served.
        Fresh computations get certificates attached so later hits are
        checkable.  Off by default — the cost is one O(path + k) check
        per hit plus certificate construction per miss.
    fault_injector : FaultInjector, optional
        Chaos hook: its ``corrupt_warm_answer`` is applied to every
        cache hit before verification, modeling in-cache payload
        corruption (the bytes in the cache go bad, not just the served
        copy).
    """

    def __init__(
        self,
        graph,
        *,
        landmarks=None,
        result_cache_size: int = 1024,
        observer=None,
        verify_hits: bool = False,
        fault_injector=None,
    ) -> None:
        self.graph = graph
        self.landmarks = landmarks
        self.observer = observer
        if landmarks is not None and observer is not None:
            landmarks.observer = observer
        self.results = ResultCache(result_cache_size)
        self._heuristics: LRUCache = LRUCache(HEURISTIC_CACHE_SIZE)
        self.verify_hits = bool(verify_hits)
        self.fault_injector = fault_injector
        self._checker = None
        if self.verify_hits:
            from ..verify import CertificateChecker  # lazy: verify imports obs

            self._checker = CertificateChecker()
        self.queries = 0
        self.batches = 0
        #: cache hits evicted because their certificate failed.
        self.quarantined = 0

    # ------------------------------------------------------------------
    # Heuristic cache
    # ------------------------------------------------------------------
    def heuristic_for(self, vertex: int) -> Heuristic:
        """The cached, memoized distance-to-``vertex`` heuristic.

        Geometric graphs get their coordinate heuristic; coordinate-free
        graphs fall back to the attached :class:`LandmarkSet`.  The same
        instance is returned for repeated targets, so its memo table
        (the ``h`` row) persists across queries — the Sec.-5 memoization
        lifted from per-query to per-engine scope.
        """
        vertex = int(vertex)
        observer = self.observer
        h = self._heuristics.get(vertex)
        if h is not None:
            if observer is not None:
                observer.on_cache("heuristic", "hit")
            return h
        if observer is not None:
            observer.on_cache("heuristic", "miss")
        if self.graph.coords is not None and self.graph.coord_system is not None:
            h = make_heuristic(self.graph, vertex, memoize=True)
        elif self.landmarks is not None:
            h = self.landmarks.heuristic_to(vertex)
        else:
            raise ValueError(
                f"graph {self.graph.name!r} has no coordinates and no landmarks "
                "attached; A* methods are not applicable"
            )
        before = self._heuristics.evictions
        self._heuristics.put(vertex, h)
        if observer is not None and self._heuristics.evictions > before:
            observer.on_cache("heuristic", "evict")
        return h

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        *,
        method: str = "bids",
        path: bool = False,
        use_cache: bool = True,
        budget=None,
    ) -> WarmAnswer:
        """Exact shortest s-t distance, warm.

        A result-cache miss is answered by ``repro.ppsp(graph, s, t,
        method=...)`` with the cached heuristic rows passed in, so warm
        and cold answers agree in distance, counters and path.
        ``path=True`` captures a shortest path while the distance matrix
        is still alive (the answer keeps no matrix, so the path cannot
        be derived later).

        ``budget`` (a :class:`repro.robustness.Budget` or live meter)
        bounds this one query's engine run; an answer whose budget ran
        out (``exact=False``) is never stored in the result cache.
        """
        validate_query(self.graph, source, target)
        source, target = int(source), int(target)
        self.queries += 1
        observer = self.observer
        if use_cache:
            hit = self.results.get(source, target, method)
            if hit is not None and (hit.path_vertices is not None or not path
                                    or not hit.reachable or source == target):
                if self.verify_hits:
                    hit = self._verified_hit(source, target, method, hit)
                if hit is not None:
                    if observer is not None:
                        observer.on_cache("result", "hit")
                    return replace(hit, cached=True)
            if observer is not None:
                observer.on_cache("result", "miss")

        heuristics = {}
        if method == "astar":
            heuristics["heuristic"] = self.heuristic_for(target)
        elif method == "bidastar":
            heuristics["heuristic_to_source"] = self.heuristic_for(source)
            heuristics["heuristic_to_target"] = self.heuristic_for(target)
        ans = ppsp(
            self.graph, source, target, method=method, budget=budget,
            certify=self.verify_hits, observer=observer, **heuristics,
        )
        path_vertices = None
        if path and ans.reachable and source != target:
            path_vertices = tuple(int(v) for v in ans.path())
        answer = WarmAnswer(
            source=source,
            target=target,
            method=method,
            distance=ans.distance,
            exact=ans.exact,
            cached=False,
            steps=ans.run.steps,
            relaxations=ans.run.relaxations,
            work=float(ans.run.meter.work),
            depth=float(ans.run.meter.depth),
            path_vertices=path_vertices,
            certificate=ans.certificate,
        )
        if use_cache and answer.exact:
            before = self.results.evictions
            self.results.put(source, target, method, answer)
            if observer is not None and self.results.evictions > before:
                observer.on_cache("result", "evict")
        return answer

    def _verified_hit(self, source, target, method, hit):
        """Certificate-check one cache hit; None means quarantined/unusable.

        The fault injector (when armed) corrupts the payload first and
        the corrupted copy is written back — the cache itself now holds
        bad bytes, exactly like real in-memory corruption, so eviction
        (not mere recomputation) is what keeps it from resurfacing.
        """
        observer = self.observer
        if self.fault_injector is not None:
            corrupted = self.fault_injector.corrupt_warm_answer(hit)
            if corrupted is not hit:
                self.results.put(source, target, method, corrupted)
                hit = corrupted
        if hit.certificate is None:
            # Uncertified entry (cached before verify_hits was enabled):
            # nothing to vouch for it — recompute and replace.
            if observer is not None:
                observer.on_verify("unproven")
            return None
        report = self._checker.check(
            self.graph, hit.certificate, expected_distance=hit.distance
        )
        if report.valid:
            if observer is not None:
                observer.on_verify("valid", checks=report.checks)
            return hit
        self.results.evict(source, target, method)
        self.quarantined += 1
        if observer is not None:
            observer.on_verify("invalid", checks=report.checks)
            observer.on_quarantine("result-cache")
        return None

    def batch(self, queries, *, method: str = "multi", **kwargs) -> BatchResult:
        """Answer a batch of (s, t) pairs through :func:`solve_batch`.

        The result keeps its path state, like a cold batch.  The exact
        per-pair answers are folded into the result cache under their
        single-query method equivalents, so a later
        ``query(s, t, method='bids')`` hits.
        """
        if method not in BATCH_METHODS:
            raise ValueError(f"unknown batch method {method!r}; options: {BATCH_METHODS}")
        self.batches += 1
        if self.observer is not None and "observer" not in kwargs:
            kwargs = {**kwargs, "observer": self.observer}
        if self.verify_hits:
            # Certified folds: later verified hits need evidence.
            kwargs.setdefault("certify", True)
        res = solve_batch(self.graph, queries, method=method, **kwargs)
        for (s, t), ans in res.answers.items():
            if ans.exact:
                cached = WarmAnswer(
                    source=int(s), target=int(t), method="bids",
                    distance=ans.distance, exact=True, certificate=ans.certificate,
                )
                self.results.put(int(s), int(t), "bids", cached)
        return res

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached answer and heuristic row.

        Call this after mutating the bound graph *in place* (weights or
        topology).
        """
        self.results.invalidate()
        self._heuristics.clear()
        if self.landmarks is not None:
            self.landmarks.clear_cache()

    def stats(self) -> dict:
        """Lifetime counters of every warm layer (for dashboards/tests)."""
        out = {
            "queries": self.queries,
            "batches": self.batches,
            "results": self.results.stats(),
            "heuristics": self._heuristics.stats(),
        }
        if self.verify_hits:
            out["quarantined"] = self.quarantined
        if self.landmarks is not None:
            out["landmark_cache"] = {
                "hits": self.landmarks.cache_hits,
                "misses": self.landmarks.cache_misses,
            }
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WarmEngine(graph={self.graph.name!r}, queries={self.queries}, "
            f"result_hits={self.results.hits})"
        )
