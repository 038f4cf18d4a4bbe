"""Per-step execution traces of the PPSP engine.

A :class:`StepTrace` records, for every engine step, the quantities the
paper's analysis reasons about: the threshold θ, frontier/extracted/
pruned/relaxed sizes, and the current μ.  Attach one via
``run_policy(..., trace=StepTrace())`` to see *why* a query was fast or
slow — e.g. watch μ drop and the pruned count spike the moment the
searches meet.

The engine reports through the narrow :meth:`StepTrace.record` hook, so
tracing costs nothing when absent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["StepRecord", "StepTrace"]


@dataclass(frozen=True)
class StepRecord:
    """One engine step."""

    step: int
    theta: float
    frontier_size: int
    extracted: int
    pruned: int
    relaxed_edges: int
    improved: int
    mu: float

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "theta": self.theta,
            "frontier_size": self.frontier_size,
            "extracted": self.extracted,
            "pruned": self.pruned,
            "relaxed_edges": self.relaxed_edges,
            "improved": self.improved,
            "mu": self.mu,
        }


@dataclass
class StepTrace:
    """Collects :class:`StepRecord` rows for one engine run."""

    records: list[StepRecord] = field(default_factory=list)

    def record(self, **kwargs) -> None:
        self.records.append(StepRecord(**kwargs))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # -- Analysis helpers ------------------------------------------------
    def mu_settled_step(self) -> int | None:
        """First step whose μ equals the final μ (when the answer was
        effectively found; later steps only *verify* it)."""
        if not self.records:
            return None
        final = self.records[-1].mu
        if not np.isfinite(final):
            return None
        for rec in self.records:
            if np.isclose(rec.mu, final, rtol=1e-12, atol=1e-12):
                return rec.step
        return None

    def total_pruned(self) -> int:
        return sum(r.pruned for r in self.records)

    def peak_frontier(self) -> int:
        return max((r.frontier_size for r in self.records), default=0)

    def summary(self) -> dict:
        return {
            "steps": len(self.records),
            "peak_frontier": self.peak_frontier(),
            "total_pruned": self.total_pruned(),
            "mu_settled_step": self.mu_settled_step(),
            "final_mu": self.records[-1].mu if self.records else None,
        }

    # -- Serialization ---------------------------------------------------
    def to_json(self, *, indent: int | None = None) -> str:
        """The full trace as JSON: ``{"summary": ..., "records": [...]}``.

        Non-finite floats (θ = ∞ before any path is found, μ = NaN for
        policies without a bound) are encoded as the strings ``"inf"``
        / ``"-inf"`` / ``"nan"`` so the output is strict JSON that any
        consumer can parse; :meth:`from_json` restores them.
        """
        payload = {
            "summary": _encode(self.summary()),
            "records": [_encode(r.as_dict()) for r in self.records],
        }
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "StepTrace":
        """Rebuild a trace from :meth:`to_json` output (golden fixtures)."""
        payload = json.loads(text)
        trace = cls()
        for rec in payload["records"]:
            trace.record(**_decode(rec))
        return trace

    def render(self, *, max_rows: int = 40) -> str:
        """A fixed-width table of the trace (head + tail when long)."""
        header = f"{'step':>5} {'theta':>12} {'front':>7} {'extr':>6} {'prune':>6} {'edges':>8} {'impr':>6} {'mu':>12}"
        rows = [header, "-" * len(header)]
        recs = self.records
        shown = recs if len(recs) <= max_rows else recs[: max_rows // 2] + recs[-max_rows // 2 :]
        last_step = None
        for r in shown:
            if last_step is not None and r.step != last_step + 1:
                rows.append("  ...")
            last_step = r.step
            mu = f"{r.mu:.4g}" if np.isfinite(r.mu) else "inf"
            theta = f"{r.theta:.4g}" if np.isfinite(r.theta) else "inf"
            rows.append(
                f"{r.step:>5} {theta:>12} {r.frontier_size:>7} {r.extracted:>6} "
                f"{r.pruned:>6} {r.relaxed_edges:>8} {r.improved:>6} {mu:>12}"
            )
        return "\n".join(rows)


_SPECIAL = {"inf": np.inf, "-inf": -np.inf, "nan": np.nan}


def _encode(d: dict) -> dict:
    """Replace non-JSON floats with sentinel strings."""
    out = {}
    for key, value in d.items():
        if isinstance(value, float) and not np.isfinite(value):
            value = "nan" if np.isnan(value) else ("inf" if value > 0 else "-inf")
        out[key] = value
    return out


def _decode(d: dict) -> dict:
    """Inverse of :func:`_encode`."""
    return {k: _SPECIAL[v] if isinstance(v, str) and v in _SPECIAL else v
            for k, v in d.items()}
