"""Answer certificates: a PPSP result that can prove itself.

A :class:`Certificate` packages everything an *independent* checker needs
to validate a query answer without re-solving it:

* **witness path** — the upper-bound side.  Re-summing real edge weights
  along the path takes O(path length) and pins the claimed distance from
  above; since no real path can sum below the true distance, any claim
  that is *too low* is always refuted by this check alone.
* **final μ** — the engine's best source–target estimate at termination;
  for exact answers it must coincide with the claimed distance.
* **heuristic bound** — for the A*-family methods, the geometric lower
  bound ``h(s)`` recomputed from coordinates (dual feasibility: an
  admissible potential certifies ``dist >= h(s)``).
* **relaxation facts** — ``k`` spot-checkable samples from the settled
  frontiers.  Each fact ``(u, v, w, du, dv)`` records the tentative
  distance ``du`` that element ``u`` held *when it was last extracted
  for relaxation* (the engine's ``track_processed`` snapshot) and
  asserts ``dv <= du + w`` for an out-edge ``(u, v, w)`` — sound because
  an extracted element relaxes all its out-edges and distances only
  decrease afterwards.

Certificates are plain data: JSON round-trippable (inf/nan encoded with
the same sentinels as :class:`repro.obs.QuerySpan`), independent of the
engine, and validated by :class:`repro.verify.CertificateChecker` in
O(path length + k) — orders of magnitude cheaper than re-solving.

Budget-degraded answers (``exact=False``) carry one-sided *upper-bound*
certificates: the witness path still proves ``d(s, t) <= distance``, but
no optimality claim is made or checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..core.paths import PathError, stitch_bidirectional_path, walk_path
from ..obs.span import _decode, _encode

__all__ = [
    "CERTIFICATE_KIND",
    "CERTIFICATE_VERSION",
    "Certificate",
    "CertificateError",
    "RelaxFact",
    "build_certificate",
    "certificate_for_run",
]

CERTIFICATE_KIND = "repro-certificate"
CERTIFICATE_VERSION = 1

#: Knuth's multiplicative hash constant — deterministic edge picks.
_HASH = 2654435761

#: Methods whose run keeps two dist rows (forward + backward).
_BIDIRECTIONAL = frozenset({"bids", "bidastar"})


class CertificateError(ValueError):
    """A certificate payload that violates the schema (not merely invalid:
    a *malformed* certificate cannot even be checked)."""


@dataclass(frozen=True)
class RelaxFact:
    """One spot-checkable relaxation invariant from a settled frontier.

    Asserts ``dv <= du + w`` where ``du`` is the distance ``u`` held at
    its last extraction and ``dv`` is the final distance of ``v``.  With
    ``rev=True`` the arc ``(u, v, w)`` lives in the *reverse* graph (the
    fact came from a backward search row on a directed graph).
    """

    u: int
    v: int
    w: float
    du: float
    dv: float
    rev: bool = False

    def to_dict(self) -> dict:
        return {
            "u": self.u,
            "v": self.v,
            "w": self.w,
            "du": self.du,
            "dv": self.dv,
            "rev": self.rev,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RelaxFact":
        if not isinstance(payload, dict):
            raise CertificateError(f"fact must be an object, got {type(payload).__name__}")
        extra = set(payload) - {"u", "v", "w", "du", "dv", "rev"}
        if extra:
            raise CertificateError(f"fact has unknown fields {sorted(extra)}")
        try:
            return cls(
                u=_as_int(payload["u"], "fact.u"),
                v=_as_int(payload["v"], "fact.v"),
                w=_as_float(payload["w"], "fact.w"),
                du=_as_float(payload["du"], "fact.du"),
                dv=_as_float(payload["dv"], "fact.dv"),
                rev=_as_bool(payload.get("rev", False), "fact.rev"),
            )
        except KeyError as exc:
            raise CertificateError(f"fact is missing field {exc.args[0]!r}") from None


@dataclass
class Certificate:
    """Self-contained evidence for one query answer (see module docs)."""

    source: int
    target: int
    method: str
    distance: float
    exact: bool
    mu: float | None = None
    graph_fingerprint: str | None = None
    path: tuple[int, ...] | None = None
    facts: tuple[RelaxFact, ...] = field(default=())
    heuristic_bound: float | None = None

    @property
    def kind(self) -> str:
        """``"exact"`` (two-sided claim) or ``"upper-bound"`` (one-sided)."""
        return "exact" if self.exact else "upper-bound"

    # ------------------------------------------------------------------
    # JSON round trip — same inf/nan sentinels as QuerySpan
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return _encode(
            {
                "kind": CERTIFICATE_KIND,
                "version": CERTIFICATE_VERSION,
                "source": self.source,
                "target": self.target,
                "method": self.method,
                "distance": float(self.distance),
                "exact": self.exact,
                "mu": None if self.mu is None else float(self.mu),
                "graph_fingerprint": self.graph_fingerprint,
                "path": None if self.path is None else list(self.path),
                "facts": [f.to_dict() for f in self.facts],
                "heuristic_bound": (
                    None if self.heuristic_bound is None else float(self.heuristic_bound)
                ),
            }
        )

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "Certificate":
        """Strict inverse of :meth:`to_dict`.

        Raises :class:`CertificateError` on any schema violation —
        unknown fields, wrong types, missing keys, bad kind/version —
        so a tampered or truncated payload fails loudly at parse time
        rather than producing a half-checked certificate.
        """
        if not isinstance(payload, dict):
            raise CertificateError(
                f"certificate must be an object, got {type(payload).__name__}"
            )
        payload = _decode(payload)
        if payload.get("kind") != CERTIFICATE_KIND:
            raise CertificateError(
                f"not a certificate (kind={payload.get('kind')!r}, "
                f"expected {CERTIFICATE_KIND!r})"
            )
        if payload.get("version") != CERTIFICATE_VERSION:
            raise CertificateError(
                f"certificate version {payload.get('version')!r} is not "
                f"readable by this build (expects {CERTIFICATE_VERSION})"
            )
        known = {
            "kind", "version", "source", "target", "method", "distance",
            "exact", "mu", "graph_fingerprint", "path", "facts",
            "heuristic_bound",
        }
        extra = set(payload) - known
        if extra:
            raise CertificateError(f"certificate has unknown fields {sorted(extra)}")
        missing = {"source", "target", "method", "distance", "exact"} - set(payload)
        if missing:
            raise CertificateError(f"certificate is missing fields {sorted(missing)}")

        method = payload["method"]
        if not isinstance(method, str) or not method:
            raise CertificateError("method must be a non-empty string")
        fingerprint = payload.get("graph_fingerprint")
        if fingerprint is not None and not isinstance(fingerprint, str):
            raise CertificateError("graph_fingerprint must be a string or null")
        path = payload.get("path")
        if path is not None:
            if not isinstance(path, list) or not path:
                raise CertificateError("path must be a non-empty array or null")
            path = tuple(_as_int(v, "path vertex") for v in path)
        facts = payload.get("facts", [])
        if not isinstance(facts, list):
            raise CertificateError("facts must be an array")
        mu = payload.get("mu")
        bound = payload.get("heuristic_bound")
        return cls(
            source=_as_int(payload["source"], "source"),
            target=_as_int(payload["target"], "target"),
            method=method,
            distance=_as_float(payload["distance"], "distance"),
            exact=_as_bool(payload["exact"], "exact"),
            mu=None if mu is None else _as_float(mu, "mu"),
            graph_fingerprint=fingerprint,
            path=path,
            facts=tuple(RelaxFact.from_dict(f) for f in facts),
            heuristic_bound=None if bound is None else _as_float(bound, "heuristic_bound"),
        )

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        try:
            payload = json.loads(text)
        except (TypeError, ValueError) as exc:
            raise CertificateError(f"certificate is not valid JSON: {exc}") from None
        return cls.from_dict(payload)


# ----------------------------------------------------------------------
# Schema helpers
# ----------------------------------------------------------------------
def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise CertificateError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CertificateError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_bool(value, name: str) -> bool:
    if not isinstance(value, bool):
        raise CertificateError(f"{name} must be a boolean, got {value!r}")
    return value


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def build_certificate(
    graph,
    source: int,
    target: int,
    method: str,
    distance: float,
    exact: bool,
    *,
    dist_forward=None,
    dist_backward=None,
    backward_reversed: bool = False,
    processed_forward=None,
    processed_backward=None,
    mu: float | None = None,
    heuristic_bound: float | None = None,
    path="auto",
    spot_checks: int = 8,
) -> Certificate:
    """Assemble a :class:`Certificate` from a solver's dist rows.

    ``dist_forward``/``dist_backward`` are the final ``(n,)`` distance
    rows (backward row present only for bidirectional methods;
    ``backward_reversed=True`` when it traversed ``graph.reverse()``).
    ``processed_*`` are the matching ``track_processed`` snapshots used
    to sample relaxation facts.  ``path="auto"`` reconstructs the
    witness path from the rows; pass an explicit sequence (or ``None``)
    for solvers that already walked it — a tuple of ints is kept as the
    same object, so a solver's path cache and its certificate share it.
    Reconstruction failures — expected when the rows are corrupt or the
    run was cut short — yield ``path=None``, which the checker treats as
    refuting any finite exact claim (the producer always supplies a
    witness when one exists).
    """
    distance = float(distance)
    if path == "auto":
        path = _reconstruct_path(graph, source, target, distance, dist_forward, dist_backward)
    elif path is not None and not isinstance(path, tuple):
        path = tuple(int(v) for v in path)

    facts: list[RelaxFact] = []
    per_row = max(1, spot_checks // (2 if processed_backward is not None else 1))
    if processed_forward is not None and dist_forward is not None:
        facts.extend(
            _sample_facts(graph, dist_forward, processed_forward, False, per_row)
        )
    if processed_backward is not None and dist_backward is not None:
        facts.extend(
            _sample_facts(
                graph, dist_backward, processed_backward,
                backward_reversed and graph.directed, per_row,
            )
        )

    return Certificate(
        source=int(source),
        target=int(target),
        method=str(method),
        distance=distance,
        exact=bool(exact),
        mu=None if mu is None else float(mu),
        graph_fingerprint=graph.fingerprint(),
        path=path,
        facts=tuple(facts),
        heuristic_bound=heuristic_bound,
    )


def certificate_for_run(
    graph,
    source: int,
    target: int,
    method: str,
    distance: float,
    exact: bool,
    run,
    *,
    heuristic_bound: float | None = None,
    spot_checks: int = 8,
) -> Certificate:
    """Build a certificate straight from a :class:`RunResult`.

    Knows the engine's dist-row layout per method: bidirectional methods
    keep the forward search in row 0 and the backward search in row 1
    (traversing the reverse graph when directed); everything else is a
    single forward row.  Reads ``run.dist`` and ``run.processed_dist``.
    """
    bidir = method in _BIDIRECTIONAL
    pd = run.processed_dist
    return build_certificate(
        graph,
        source,
        target,
        method,
        distance,
        exact,
        dist_forward=run.dist[0],
        dist_backward=run.dist[1] if bidir else None,
        backward_reversed=bool(graph.directed),
        processed_forward=None if pd is None else pd[0],
        processed_backward=pd[1] if (bidir and pd is not None) else None,
        mu=distance if method != "sssp" else None,
        heuristic_bound=heuristic_bound,
        spot_checks=spot_checks,
    )


def _reconstruct_path(graph, source, target, distance, dist_forward, dist_backward):
    """Witness path from dist rows, or None when one cannot be walked."""
    if not np.isfinite(distance):
        return None
    if source == target:
        return (int(source),)
    if dist_forward is None:
        return None
    try:
        if dist_backward is not None:
            path = stitch_bidirectional_path(
                graph, dist_forward, dist_backward, source, target
            )
        else:
            path = walk_path(graph, dist_forward, source, target)
    except (PathError, ValueError, IndexError):
        return None
    return tuple(int(v) for v in path)


def _sample_facts(graph, dist_row, processed_row, rev: bool, count: int):
    """Evenly spaced relaxation facts from one search's snapshot.

    Sampling is deterministic (no RNG): evenly spaced over the settled
    elements, with the out-edge per vertex picked by a multiplicative
    hash — reproducible across runs, yet spread over the frontier.
    """
    g = graph.reverse() if (rev and graph.directed) else graph
    settled = np.flatnonzero(np.isfinite(processed_row))
    if len(settled) == 0 or count <= 0:
        return []
    picks = settled[
        np.unique(np.linspace(0, len(settled) - 1, num=min(count, len(settled)), dtype=np.int64))
    ]
    facts = []
    for u in picks:
        u = int(u)
        start, end = int(g.indptr[u]), int(g.indptr[u + 1])
        if end == start:
            continue
        e = start + (u * _HASH) % (end - start)
        v = int(g.indices[e])
        facts.append(
            RelaxFact(
                u=u,
                v=v,
                w=float(g.weights[e]),
                du=float(processed_row[u]),
                dv=float(dist_row[v]),
                rev=bool(rev),
            )
        )
    return facts
