"""Independent certificate validation in O(path length + k spot checks).

The checker shares **no code path** with the solvers: it looks up edges
directly in the CSR arrays, re-sums weights with plain arithmetic, and
recomputes geometric bounds from coordinates.  A bug (or bit flip) in
the engine, the caches, or a checkpoint therefore cannot vouch for
itself.

What is *proven* vs *spot-checked* (see docs/robustness.md):

* A claim that is **too low** is always refuted: the witness path must
  re-sum to the claimed distance over real edges, and no real path sums
  below the true distance.
* A claim that is **too high** while presenting a consistent witness
  path is caught by the lower-bound side — μ/distance agreement, the
  recomputed heuristic bound, and the sampled relaxation facts — which
  is probabilistic, not exhaustive.  Fabricating such a certificate
  requires a *valid but suboptimal* path plus consistent facts; random
  corruption does not produce one.
* ``inf`` (unreachable) claims carry no cheap disconnection proof; the
  report marks them ``unproven`` and callers needing certainty (the
  serve pipeline) confirm them with one authoritative Dijkstra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificate import Certificate

__all__ = ["CertificateChecker", "CheckReport"]


@dataclass
class CheckReport:
    """Outcome of one certificate check.

    ``valid``
        No check failed.  (Vacuously true for an empty certificate —
        see ``proven`` for what was actually established.)
    ``proven``
        Strength of the established claim: ``"exact"`` (witness path
        verified and optimality evidence consistent), ``"upper-bound"``
        (witness verified, no optimality claim), ``"unproven"`` (nothing
        checkable — e.g. an infinite distance), or ``"refuted"`` when
        any check failed.
    ``checks``
        Number of individual facts verified (path hops + relaxation
        facts + bounds) — the histogram fodder.
    ``failures``
        Human-readable reasons, empty when valid.
    """

    valid: bool
    proven: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.valid


class CertificateChecker:
    """Validates a :class:`Certificate` against a graph.

    ``tolerance`` is relative for distance comparisons (scaled by
    ``max(1, |distance|)``) and absolute for per-edge facts; the default
    ``1e-6`` is ~9 orders of magnitude above float64 path-sum noise on
    the bundled workloads while still refuting any material corruption.
    """

    def __init__(self, *, tolerance: float = 1e-6) -> None:
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.tolerance = float(tolerance)

    # ------------------------------------------------------------------
    def check(self, graph, cert: Certificate, *, expected_distance=None) -> CheckReport:
        """Validate ``cert`` against ``graph``; see :class:`CheckReport`.

        ``expected_distance`` cross-checks the answer actually *served*
        (cache payload, checkpoint row) against the certificate's own
        claim — the hook that catches corruption of the stored answer
        after the certificate was built.
        """
        failures: list[str] = []
        checks = 0
        d = float(cert.distance)
        tol = self.tolerance * max(1.0, abs(d) if math.isfinite(d) else 1.0)
        n = graph.num_vertices

        # --- structural sanity -----------------------------------------
        if not (0 <= cert.source < n) or not (0 <= cert.target < n):
            failures.append(
                f"endpoints ({cert.source}, {cert.target}) out of range for n={n}"
            )
            return CheckReport(False, "refuted", checks, failures)
        if math.isnan(d) or d < 0:
            failures.append(f"distance {d!r} is not a valid metric value")
        if cert.graph_fingerprint is not None:
            checks += 1
            if cert.graph_fingerprint != graph.fingerprint():
                failures.append(
                    f"graph fingerprint mismatch: certificate was issued for "
                    f"{cert.graph_fingerprint}, this graph is {graph.fingerprint()}"
                )
        if expected_distance is not None:
            checks += 1
            e = float(expected_distance)
            same_inf = math.isinf(d) and math.isinf(e) and (d > 0) == (e > 0)
            if not same_inf and not (
                math.isfinite(d) and math.isfinite(e) and abs(d - e) <= tol
            ):
                failures.append(
                    f"served distance {e!r} disagrees with certified {d!r}"
                )
        if cert.source == cert.target:
            checks += 1
            if d != 0.0:
                failures.append(f"self-query must certify 0, got {d!r}")
            if cert.path is not None and cert.path != (cert.source,):
                failures.append("self-query path must be the single vertex")

        # --- witness path (the upper-bound side) -----------------------
        proven = "unproven"
        if cert.path is not None and cert.source != cert.target:
            hops, path_failures = self._check_path(graph, cert, d, tol)
            checks += hops
            failures.extend(path_failures)
            if not path_failures:
                proven = "exact" if cert.exact else "upper-bound"
        elif cert.exact and math.isfinite(d) and cert.source != cert.target:
            # The producer always attaches a witness to a finite exact
            # claim; its absence means reconstruction failed on the
            # solver's own rows — corrupt state, not a checkable answer.
            failures.append("finite exact claim carries no witness path")
        elif cert.source == cert.target and not failures:
            proven = "exact" if cert.exact else "upper-bound"

        # --- optimality evidence (the lower-bound side) ----------------
        if cert.mu is not None:
            checks += 1
            m = float(cert.mu)
            if cert.exact and math.isfinite(d) and abs(m - d) > tol:
                failures.append(f"final mu {m!r} disagrees with exact distance {d!r}")
        if cert.heuristic_bound is not None:
            checks += 1
            failures.extend(self._check_heuristic_bound(graph, cert, d, tol))
        for i, f in enumerate(cert.facts):
            checks += 1
            msg = self._check_fact(graph, f, i)
            if msg is not None:
                failures.append(msg)

        if failures:
            return CheckReport(False, "refuted", checks, failures)
        return CheckReport(True, proven, checks, failures)

    # ------------------------------------------------------------------
    def _check_path(self, graph, cert: Certificate, d: float, tol: float):
        """Re-sum the witness path over real edges; return (hops, failures)."""
        path = cert.path
        failures: list[str] = []
        if path[0] != cert.source or path[-1] != cert.target:
            failures.append(
                f"path endpoints ({path[0]}, {path[-1]}) are not the query "
                f"({cert.source}, {cert.target})"
            )
            return len(path) - 1, failures
        n = graph.num_vertices
        total = 0.0
        for hop, (u, v) in enumerate(zip(path, path[1:])):
            if not (0 <= v < n):
                failures.append(f"path vertex {v} out of range")
                return hop + 1, failures
            w = _min_arc_weight(graph, u, v)
            if w is None:
                failures.append(f"path hop {u} -> {v} is not an edge of the graph")
                return hop + 1, failures
            total += w
        if not math.isfinite(d):
            failures.append("witness path attached to a non-finite distance claim")
        elif cert.exact:
            if abs(total - d) > tol:
                failures.append(
                    f"witness path sums to {total!r}, certificate claims {d!r}"
                )
        elif total > d + tol:
            # One-sided certificates still promise path weight <= claim;
            # a heavier witness means the stored bound was corrupted.
            failures.append(
                f"witness path ({total!r}) exceeds the claimed upper bound {d!r}"
            )
        return len(path) - 1, failures

    def _check_heuristic_bound(self, graph, cert: Certificate, d: float, tol: float):
        """Recompute the geometric lower bound h(s) from coordinates."""
        from ..heuristics import make_heuristic

        if not graph.has_coords():
            return ["certificate carries a heuristic bound but the graph has no coords"]
        failures = []
        h = make_heuristic(graph, cert.target, memoize=False)
        b = float(cert.heuristic_bound)
        hs = float(h(np.asarray([cert.source]))[0])
        if abs(hs - b) > tol:
            failures.append(
                f"heuristic bound {b!r} does not match recomputed h(s)={hs!r}"
            )
        if math.isfinite(d) and b > d + tol:
            failures.append(
                f"heuristic lower bound {b!r} exceeds the claimed distance {d!r}"
            )
        if cert.path is not None and len(cert.path) > 1 and not failures:
            # Dual feasibility along the witness: a consistent potential
            # satisfies h(u) <= w(u, v) + h(v) on every hop.
            verts = np.asarray(cert.path, dtype=np.int64)
            hv = h(verts)
            for u, v, hu, hnext in zip(cert.path, cert.path[1:], hv, hv[1:]):
                w = _min_arc_weight(graph, u, v)
                if w is not None and hu > w + hnext + tol:
                    failures.append(
                        f"heuristic inconsistent on hop {u} -> {v}: "
                        f"h({u})={float(hu)!r} > w + h({v})"
                    )
                    break
        return failures

    def _check_fact(self, graph, f, index: int):
        """One relaxation fact: the arc exists and dv <= du + w holds."""
        g = graph.reverse() if (f.rev and graph.directed) else graph
        n = g.num_vertices
        if not (0 <= f.u < n) or not (0 <= f.v < n):
            return f"fact #{index}: endpoints ({f.u}, {f.v}) out of range"
        if math.isnan(f.w) or math.isnan(f.du) or math.isnan(f.dv):
            return f"fact #{index}: NaN value"
        tol = self.tolerance * max(1.0, abs(f.w), abs(f.du) if math.isfinite(f.du) else 1.0)
        indptr, indices, weights = g.csr_views()
        arc_ok = False
        for e in range(indptr[f.u], indptr[f.u + 1]):
            if indices[e] == f.v and abs(weights[e] - f.w) <= tol:
                arc_ok = True
                break
        if not arc_ok:
            return (
                f"fact #{index}: arc {f.u} -> {f.v} (w={f.w!r}"
                f"{', reverse' if f.rev else ''}) is not in the graph"
            )
        if f.dv > f.du + f.w + tol:
            return (
                f"fact #{index}: relaxation invariant violated: "
                f"dist[{f.v}]={f.dv!r} > {f.du!r} + {f.w!r}"
            )
        return None


def _min_arc_weight(graph, u: int, v: int):
    """Minimum weight among arcs u -> v, or None when absent.

    Parallel edges collapse to the minimum — the only weight a shortest
    path can use.  O(deg(u)) straight off the CSR arrays.
    """
    n = graph.num_vertices
    if not (0 <= u < n):
        return None
    indptr, indices, weights = graph.csr_views()
    best = None
    # Scalar scan: called once per path hop, where degree-sized numpy
    # temporaries cost more than the comparison loop itself.
    for e in range(indptr[u], indptr[u + 1]):
        if indices[e] == v:
            w = weights[e]
            if best is None or w < best:
                best = w
    return best
