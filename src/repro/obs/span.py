"""Query spans: one structured record per PPSP / batch execution.

A :class:`QuerySpan` is the per-query unit of observability: everything
the paper's analysis reasons about for one execution — work/depth from
the :class:`~repro.parallel.cost_model.WorkDepthMeter`, step/prune/μ
structure from the :class:`~repro.core.tracing.StepTrace`, budget
consumption from the :class:`~repro.robustness.budget.BudgetMeter`, and
landmark h-row cache traffic — folded into a single
JSON-serializable record.

Spans are opened with :meth:`Observer.span` and filled passively: every
engine run, cache event, and fallback attempt that happens while the
span is open is folded in.  A span therefore aggregates naturally over
multi-run executions (BiDS counts as one engine run; a fallback chain
folds every rung it tried; a batch folds every search).

Non-finite floats are encoded as the strings ``"inf"``/``"-inf"``/
``"nan"`` in JSON (the same convention as
:meth:`repro.core.tracing.StepTrace.to_json`) so exports are strict
JSON; :meth:`QuerySpan.from_json` restores them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = ["QuerySpan"]

_SPECIAL = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def _encode(value):
    """Recursively replace non-JSON floats with sentinel strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(value):
    """Inverse of :func:`_encode`."""
    if isinstance(value, str) and value in _SPECIAL:
        return _SPECIAL[value]
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


@dataclass
class QuerySpan:
    """Aggregated observability record of one query/batch execution.

    Engine quantities (``work``/``depth``/``steps``/``relaxations``/
    ``pruned``) sum over every engine run folded into the span;
    ``mu_settled_step``/``final_mu``/``peak_frontier`` describe the most
    recent traced run (the query's own run for single queries).  Cache
    counters cover every cache layer that fired while the span was open,
    split per layer in ``cache_layers``.  ``budget`` holds the last
    folded :meth:`BudgetReport.to_dict` (None when no budget was set).
    """

    method: str
    source: int | None = None
    target: int | None = None
    runs: int = 0
    work: float = 0.0
    depth: float = 0.0
    steps: int = 0
    relaxations: int = 0
    pruned: int = 0
    mu_settled_step: int | None = None
    final_mu: float | None = None
    peak_frontier: int = 0
    distance: float | None = None
    exact: bool = True
    exhausted: bool = False
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_layers: dict = field(default_factory=dict)
    budget: dict | None = None
    batch_searches: int = 0
    fallback_attempts: list = field(default_factory=list)
    verification: dict = field(default_factory=dict)
    wall_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Folding hooks (called by Observer while the span is open)
    # ------------------------------------------------------------------
    def fold_run(self, result, trace=None) -> None:
        """Fold one engine :class:`~repro.core.engine.RunResult` in."""
        self.runs += 1
        self.work += float(result.meter.work)
        self.depth += float(result.meter.depth)
        self.steps += int(result.steps)
        self.relaxations += int(result.relaxations)
        if result.exhausted:
            self.exhausted = True
            self.exact = False
        if result.budget_report is not None:
            self.budget = result.budget_report.to_dict()
        if trace is not None and len(trace):
            self.pruned += trace.total_pruned()
            self.mu_settled_step = trace.mu_settled_step()
            final = trace.records[-1].mu
            self.final_mu = float(final)
            self.peak_frontier = max(self.peak_frontier, trace.peak_frontier())

    def fold_cache(self, layer: str, event: str) -> None:
        """Fold one cache event (``hit`` / ``miss`` / ``evict``)."""
        per = self.cache_layers.setdefault(
            layer, {"hits": 0, "misses": 0, "evictions": 0}
        )
        if event == "hit":
            self.cache_hits += 1
            per["hits"] += 1
        elif event == "miss":
            self.cache_misses += 1
            per["misses"] += 1
        elif event == "evict":
            self.cache_evictions += 1
            per["evictions"] += 1
        else:
            raise ValueError(f"unknown cache event {event!r}")

    def fold_fallback(self, method: str, outcome: str) -> None:
        """Fold one fallback-chain rung in (resilient execution)."""
        self.fallback_attempts.append({"method": method, "outcome": outcome})

    def fold_verify(self, event: str) -> None:
        """Fold one verification event (check outcome / repair / quarantine)."""
        self.verification[event] = self.verification.get(event, 0) + 1

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The span as a nested plain dict (floats kept as floats)."""
        return {
            "method": self.method,
            "source": self.source,
            "target": self.target,
            "runs": self.runs,
            "work": self.work,
            "depth": self.depth,
            "steps": self.steps,
            "relaxations": self.relaxations,
            "pruned": self.pruned,
            "mu_settled_step": self.mu_settled_step,
            "final_mu": self.final_mu,
            "peak_frontier": self.peak_frontier,
            "distance": self.distance,
            "exact": self.exact,
            "exhausted": self.exhausted,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "evictions": self.cache_evictions,
                "layers": self.cache_layers,
            },
            "budget": self.budget,
            "batch_searches": self.batch_searches,
            "fallback": {"attempts": self.fallback_attempts},
            "verification": self.verification,
            "wall_seconds": self.wall_seconds,
        }

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(_encode(self.to_dict()), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "QuerySpan":
        cache = payload.get("cache", {})
        fallback = payload.get("fallback", {})
        return cls(
            method=payload["method"],
            source=payload.get("source"),
            target=payload.get("target"),
            runs=payload.get("runs", 0),
            work=payload.get("work", 0.0),
            depth=payload.get("depth", 0.0),
            steps=payload.get("steps", 0),
            relaxations=payload.get("relaxations", 0),
            pruned=payload.get("pruned", 0),
            mu_settled_step=payload.get("mu_settled_step"),
            final_mu=payload.get("final_mu"),
            peak_frontier=payload.get("peak_frontier", 0),
            distance=payload.get("distance"),
            exact=payload.get("exact", True),
            exhausted=payload.get("exhausted", False),
            cache_hits=cache.get("hits", 0),
            cache_misses=cache.get("misses", 0),
            cache_evictions=cache.get("evictions", 0),
            cache_layers=cache.get("layers", {}),
            budget=payload.get("budget"),
            batch_searches=payload.get("batch_searches", 0),
            fallback_attempts=fallback.get("attempts", []),
            # Absent in pre-1.5 span exports; default keeps those loading.
            verification=payload.get("verification", {}),
            wall_seconds=payload.get("wall_seconds", 0.0),
        )

    @classmethod
    def from_json(cls, text: str) -> "QuerySpan":
        return cls.from_dict(_decode(json.loads(text)))
