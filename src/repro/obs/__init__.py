"""Observability layer: metrics registry, query spans, exposition.

The production leg that follows robustness (budgets/checked mode):
make every per-run quantity the paper's evaluation reasons about —
work/depth, prune counts, μ-settlement, cache hit rates, budget
consumption — visible as first-class metrics without taxing the
default path.

Three pieces:

* :class:`~repro.obs.registry.MetricsRegistry` — dependency-free
  counters / gauges / fixed-bucket histograms with labeled families;
* :class:`~repro.obs.observer.Observer` — the default-off hook the hot
  paths report to, plus :meth:`Observer.span` producing one
  :class:`~repro.obs.span.QuerySpan` record per query/batch execution;
* :mod:`~repro.obs.exposition` — Prometheus text and schema-checked
  JSON snapshots (``repro stats`` on the CLI).

The overhead contract: with no observer installed the instrumented
sites cost one ``is None`` test each — zero extra allocations, bit-
identical deterministic counters.  See ``docs/observability.md``.
"""

from .exposition import render_json, render_prometheus, validate_snapshot
from .observer import Observer, policy_label
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .span import QuerySpan

__all__ = [
    "Observer",
    "QuerySpan",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "render_prometheus",
    "render_json",
    "validate_snapshot",
    "policy_label",
]
