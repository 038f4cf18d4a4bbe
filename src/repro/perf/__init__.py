"""``repro.perf`` — the warm-engine performance layer.

Everything here amortizes per-query overhead across a query stream on
one graph (the serving scenario of the ROADMAP north star):

* :class:`LRUCache` / :class:`ResultCache` (:mod:`repro.perf.cache`) —
  bounded caches for exact answers and per-target heuristics;
* :class:`WarmEngine` (:mod:`repro.perf.warm`) — the user-facing
  handle combining heuristic caching + result caching;
* :mod:`repro.perf.regression` — the ``repro bench`` harness that
  freezes a seeded workload and gates each ``BENCH_<i>.json`` snapshot
  against the previous one.
"""

from .cache import LRUCache, ResultCache
from .warm import WarmAnswer, WarmEngine

__all__ = [
    "LRUCache",
    "ResultCache",
    "WarmAnswer",
    "WarmEngine",
]
