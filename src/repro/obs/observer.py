"""The Observer: the single, default-off hook the hot paths report to.

Instrumented call sites (:func:`~repro.core.engine.run_policy`,
:class:`~repro.core.frontier.Frontier`,
:func:`~repro.core.batch.solve_batch`,
:func:`~repro.robustness.resilient.resilient_ppsp`,
:class:`~repro.serve.pipeline.ServePipeline`,
:class:`~repro.heuristics.landmarks.LandmarkSet`) all take an optional
``observer``; when it is ``None`` — the default everywhere — the only
cost is the ``is not None`` test, so production paths that do not opt in
pay nothing (the overhead-guard test pins this: zero new allocations,
identical deterministic counters).

With an observer installed, every run/cache/fallback event updates two
sinks at once:

* the **metrics registry** — process-lifetime counters/histograms in
  the catalogue of ``docs/observability.md``, exported via
  :func:`~repro.obs.exposition.render_prometheus` /
  :func:`~repro.obs.exposition.render_json`;
* the **current span**, if one is open — the per-query record
  (:class:`~repro.obs.span.QuerySpan`) wrapping one PPSP or batch
  execution::

      obs = Observer()
      with obs.span("bidastar", source=s, target=t) as span:
          ppsp(graph, s, t, method="bidastar", observer=obs)
      span.to_json()   # work, depth, steps, pruned, mu-settled, caches...

Engine runs under an observer always carry a
:class:`~repro.core.tracing.StepTrace` (the observer supplies one when
the caller didn't), which is where per-step prune counts and the
μ-settlement step come from — the pay-for-use part of the contract.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..core.tracing import StepTrace
from .registry import DEFAULT_BUCKETS, TIME_BUCKETS, MetricsRegistry
from .span import QuerySpan

__all__ = ["Observer", "policy_label"]

#: policy class name -> the public method label used on metrics.
_POLICY_LABELS = {
    "SsspPolicy": "sssp",
    "EarlyTermination": "et",
    "AStar": "astar",
    "BiDS": "bids",
    "BiDAStar": "bidastar",
    "MultiPPSP": "multi",
}


def policy_label(policy) -> str:
    """The metrics label of a policy instance (``bids``, ``multi``, ...)."""
    return _POLICY_LABELS.get(type(policy).__name__, type(policy).__name__.lower())


class Observer:
    """Aggregates engine/cache/fallback events into metrics and spans.

    Parameters
    ----------
    registry : MetricsRegistry, optional
        Share one registry between several observers (e.g. per-tenant
        observers over one process-wide exposition endpoint); defaults
        to a private registry.
    max_spans : int
        Completed spans retained in :attr:`spans` (oldest dropped
        first); metrics are unaffected by this bound.
    """

    def __init__(self, *, registry: MetricsRegistry | None = None, max_spans: int = 256) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_spans = int(max_spans)
        self.spans: list[QuerySpan] = []
        self._span: QuerySpan | None = None
        r = self.registry
        self._runs = r.counter(
            "repro_runs_total", "Engine runs completed", ("policy",))
        self._steps = r.counter(
            "repro_steps_total", "Engine steps (rounds of Alg. 2) executed", ("policy",))
        self._relaxations = r.counter(
            "repro_relaxations_total", "Edge relaxations performed", ("policy",))
        self._pruned = r.counter(
            "repro_pruned_total", "Frontier elements pruned (Prune of Alg. 2)", ("policy",))
        self._work_hist = r.histogram(
            "repro_run_work", "Work (unit operations) per engine run", ("policy",),
            buckets=DEFAULT_BUCKETS)
        self._depth_hist = r.histogram(
            "repro_run_depth", "Depth (critical path) per engine run", ("policy",),
            buckets=DEFAULT_BUCKETS)
        self._mu_settled = r.histogram(
            "repro_mu_settled_fraction",
            "mu-settlement step as a fraction of total steps (settle early = small)",
            ("policy",),
            buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0))
        self._frontier_peak = r.histogram(
            "repro_frontier_peak", "Peak frontier size per traced run", ("policy",),
            buckets=DEFAULT_BUCKETS)
        self._frontier_switches = r.counter(
            "repro_frontier_switches_total",
            "Sparse<->dense frontier representation switches (App. B)", ("to",))
        self._cache_events = r.counter(
            "repro_cache_events_total",
            "Landmark heuristic-row cache traffic (landmark_h_row)",
            ("layer", "event"))
        self._batches = r.counter(
            "repro_batches_total", "Batch executions", ("method",))
        self._batch_searches = r.counter(
            "repro_batch_searches_total", "Concurrent searches launched by batches",
            ("method",))
        self._fallback = r.counter(
            "repro_fallback_attempts_total",
            "Fallback-chain rung attempts by outcome", ("method", "outcome"))
        self._retries = r.counter(
            "repro_fallback_retries_total", "Transient-failure retries in fallback chains")
        self._budget_exhausted = r.counter(
            "repro_budget_exhausted_total", "Runs stopped by an execution budget", ("limit",))
        self._query_seconds = r.histogram(
            "repro_query_seconds", "Wall-clock time of observed spans", ("method",),
            buckets=TIME_BUCKETS)
        self._serve_queries = r.counter(
            "repro_serve_queries_total",
            "Serve-pipeline queries by terminal outcome "
            "(ok / inexact / shed / timeout / failed / repaired)", ("outcome",))
        self._serve_deadline = r.counter(
            "repro_serve_deadline_misses_total",
            "Queries whose deadline expired before execution began")
        self._serve_checkpoints = r.counter(
            "repro_serve_checkpoints_total",
            "Durable checkpoint events (write / resume)", ("event",))
        self._breaker_state = r.gauge(
            "repro_breaker_state",
            "Circuit-breaker state per method (0 closed, 1 half-open, 2 open)",
            ("method",))
        self._breaker_transitions = r.counter(
            "repro_breaker_transitions_total",
            "Circuit-breaker state transitions", ("method", "to"))
        self._verify_checks = r.counter(
            "repro_verify_checks_total",
            "Certificate/answer verifications by outcome "
            "(valid / invalid / unproven / confirmed)", ("outcome",))
        self._verify_check_count = r.histogram(
            "repro_verify_check_count",
            "Individual facts checked per certificate verification",
            buckets=(1, 2, 5, 10, 20, 50, 100, 200))
        self._verify_repairs = r.counter(
            "repro_verify_repairs_total",
            "Exact recomputes triggered by refuted answers (repaired / failed)",
            ("result",))
        self._verify_quarantine = r.counter(
            "repro_verify_quarantine_total",
            "Corrupt state quarantined instead of served (checkpoint)",
            ("layer",))
        self._pool_batches = r.counter(
            "repro_pool_batches_total",
            "Batches executed on the process-pool backend", ("method",))
        self._pool_shards = r.counter(
            "repro_pool_shards_total",
            "Pool shards by completion status (ok / crashed)", ("status",))
        self._pool_workers = r.gauge(
            "repro_pool_workers",
            "Worker processes of the most recent pool batch")
        self._pool_shard_seconds = r.histogram(
            "repro_pool_shard_seconds",
            "Wall-clock from shard dispatch to shard completion",
            buckets=TIME_BUCKETS)
        self._pool_crashes = r.counter(
            "repro_pool_worker_crashes_total",
            "Pool workers that died mid-shard (SIGKILL/OOM)")
        self._service_depth = r.gauge(
            "repro_service_queue_depth",
            "Distinct queries waiting in the micro-batcher's submission queue")
        self._service_batches = r.counter(
            "repro_service_batches_total",
            "Coalesced batches flushed by trigger "
            "(size / wait / drain / shutdown / manual)", ("reason",))
        self._service_coalesce = r.histogram(
            "repro_service_coalesce_size",
            "Distinct queries per coalesced service batch",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128))
        self._service_wait = r.histogram(
            "repro_service_coalesce_wait_seconds",
            "Longest submission-queue wait inside each coalesced batch",
            buckets=TIME_BUCKETS)
        self._service_dedup = r.counter(
            "repro_service_dedup_total",
            "Submissions coalesced into an already-queued identical query")
        self._service_respawns = r.counter(
            "repro_service_worker_respawns_total",
            "Pool worker respawns observed by the query service")
        self._pool_ping_failures = r.counter(
            "repro_pool_ping_failures_total",
            "Pool health-check probes that failed, by exception class",
            ("error",))
        self._pool_shard_timeouts = r.counter(
            "repro_pool_shard_timeouts_total",
            "Shards that produced no result within their deadline")
        self._pool_suspects = r.counter(
            "repro_pool_suspect_workers_total",
            "Worker-set quarantines by reason (deadline)",
            ("reason",))
        self._overload_decisions = r.counter(
            "repro_overload_decisions_total",
            "Degradation-ladder decisions (exact / inexact / shed)",
            ("mode",))
        self._overload_shed = r.counter(
            "repro_overload_shed_total",
            "Submissions shed at the door by queue-delay overload control")
        self._retry_denials = r.counter(
            "repro_overload_retry_denials_total",
            "Retry-budget denials by kind (retry)",
            ("kind",))
        self._kernel_calls = r.counter(
            "repro_kernel_invocations_total",
            "scatter_min kernel invocations by concrete implementation",
            ("impl",))
        self._kernel_elements = r.counter(
            "repro_kernel_elements_total",
            "Elements scattered through each kernel implementation",
            ("impl",))

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    @property
    def current_span(self) -> QuerySpan | None:
        return self._span

    @contextmanager
    def span(self, method: str, *, source: int | None = None, target: int | None = None):
        """Open a :class:`QuerySpan`; events inside fold into it.

        Spans nest: an inner span shadows the outer one for its
        duration (events fold into the innermost open span only).
        """
        span = QuerySpan(
            method=str(method),
            source=None if source is None else int(source),
            target=None if target is None else int(target),
        )
        prev, self._span = self._span, span
        t0 = time.perf_counter()
        try:
            yield span
        finally:
            span.wall_seconds = time.perf_counter() - t0
            self._span = prev
            self.spans.append(span)
            if len(self.spans) > self.max_spans:
                del self.spans[: len(self.spans) - self.max_spans]
            self._query_seconds.observe(span.wall_seconds, method=span.method)

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def begin_run(self, policy, trace: StepTrace | None) -> StepTrace:
        """Engine run start: ensure a StepTrace exists for this run."""
        return trace if trace is not None else StepTrace()

    def end_run(self, result, trace: StepTrace | None) -> None:
        """Engine run end: fold the result into metrics and the span."""
        label = policy_label(result.policy)
        self._runs.inc(policy=label)
        self._steps.inc(result.steps, policy=label)
        self._relaxations.inc(result.relaxations, policy=label)
        self._work_hist.observe(result.meter.work, policy=label)
        self._depth_hist.observe(result.meter.depth, policy=label)
        if trace is not None and len(trace):
            self._pruned.inc(trace.total_pruned(), policy=label)
            self._frontier_peak.observe(trace.peak_frontier(), policy=label)
            settled = trace.mu_settled_step()
            if settled is not None and result.steps > 0:
                self._mu_settled.observe((settled + 1) / result.steps, policy=label)
        if result.exhausted and result.budget_report is not None:
            reason = result.budget_report.reason or ""
            limit = reason.split("=", 1)[0] if "=" in reason else "unknown"
            self._budget_exhausted.inc(limit=limit)
        if self._span is not None:
            self._span.fold_run(result, trace)

    def on_frontier_switch(self, to_dense: bool, size: int) -> None:
        """Frontier hook: one sparse<->dense representation switch."""
        self._frontier_switches.inc(to="dense" if to_dense else "sparse")

    def on_kernel(self, stats: dict) -> None:
        """Kernel hook: fold one run's scatter-min tallies into counters.

        ``stats`` maps an impl name to its ``{"calls", "elements"}``
        totals, as returned by
        :meth:`repro.kernels.scatter.Kernel.take_stats`.
        """
        for impl, s in stats.items():
            if s.get("calls"):
                self._kernel_calls.inc(s["calls"], impl=impl)
            if s.get("elements"):
                self._kernel_elements.inc(s["elements"], impl=impl)

    # ------------------------------------------------------------------
    # Batch / cache / fallback hooks
    # ------------------------------------------------------------------
    def on_batch(self, method: str, result) -> None:
        self._batches.inc(method=method)
        self._batch_searches.inc(result.num_searches, method=method)
        if self._span is not None:
            self._span.batch_searches += result.num_searches

    def on_cache(self, layer: str, event: str) -> None:
        self._cache_events.inc(layer=layer, event=event)
        if self._span is not None:
            self._span.fold_cache(layer, event)

    def on_fallback(self, method: str, attempt: int, outcome: str) -> None:
        self._fallback.inc(method=method, outcome=outcome)
        if attempt > 1:
            self._retries.inc()
        if self._span is not None:
            self._span.fold_fallback(method, attempt, outcome)

    # ------------------------------------------------------------------
    # Process-pool hooks
    # ------------------------------------------------------------------
    def on_pool_batch(self, method: str, workers: int) -> None:
        """Pool hook: one batch dispatched to the process backend."""
        self._pool_batches.inc(method=method)
        self._pool_workers.set(workers)

    def on_pool_shard(self, status: str, seconds: float) -> None:
        """Pool hook: one shard reached a terminal status (ok / crashed / timeout)."""
        self._pool_shards.inc(status=status)
        self._pool_shard_seconds.observe(seconds)

    def on_pool_crash(self) -> None:
        """Pool hook: a worker process died mid-shard."""
        self._pool_crashes.inc()

    def on_pool_ping_failure(self, error: str) -> None:
        """Pool hook: one health probe failed (``error`` = exception class)."""
        self._pool_ping_failures.inc(error=error)

    def on_shard_timeout(self) -> None:
        """Pool hook: a shard hit its deadline with no result."""
        self._pool_shard_timeouts.inc()

    def on_worker_suspect(self, reason: str) -> None:
        """Pool hook: the worker set was quarantined (killed + respawn)."""
        self._pool_suspects.inc(reason=reason)

    # ------------------------------------------------------------------
    # Overload-control hooks
    # ------------------------------------------------------------------
    def on_overload_decision(self, mode: str) -> None:
        """Overload hook: one ladder decision (exact / inexact / shed)."""
        self._overload_decisions.inc(mode=mode)

    def on_overload_shed(self) -> None:
        """Overload hook: a submission was shed at the door."""
        self._overload_shed.inc()

    def on_retry_denied(self, kind: str) -> None:
        """Overload hook: the retry budget denied a token (``kind`` = retry)."""
        self._retry_denials.inc(kind=kind)

    # ------------------------------------------------------------------
    # Serve-pipeline hooks
    # ------------------------------------------------------------------
    def on_serve_query(self, outcome: str) -> None:
        """Pipeline hook: one query reached a terminal outcome."""
        self._serve_queries.inc(outcome=outcome)

    def on_deadline_miss(self) -> None:
        """Pipeline hook: a deadline expired while the query was queued."""
        self._serve_deadline.inc()

    def on_checkpoint(self, event: str) -> None:
        """Pipeline hook: a durable checkpoint was written or resumed."""
        self._serve_checkpoints.inc(event=event)

    # ------------------------------------------------------------------
    # Query-service hooks (micro-batcher)
    # ------------------------------------------------------------------
    def on_service_queue(self, depth: int) -> None:
        """Service hook: the submission queue's current distinct depth."""
        self._service_depth.set(depth)

    def on_service_flush(self, reason: str, size: int, waited_s: float) -> None:
        """Service hook: one coalesced batch left the queue for execution."""
        self._service_batches.inc(reason=reason)
        self._service_coalesce.observe(size)
        self._service_wait.observe(waited_s)

    def on_service_dedup(self) -> None:
        """Service hook: a duplicate (s, t) submission coalesced."""
        self._service_dedup.inc()

    def on_service_respawn(self, count: int = 1) -> None:
        """Service hook: the pool respawned crashed workers."""
        self._service_respawns.inc(count)

    # ------------------------------------------------------------------
    # Verification hooks (certificates, quarantine, repair)
    # ------------------------------------------------------------------
    def on_verify(self, outcome: str, *, checks: int = 0) -> None:
        """One answer verification finished (valid / invalid / unproven /
        confirmed); ``checks`` is the number of individual facts the
        certificate checker evaluated."""
        self._verify_checks.inc(outcome=outcome)
        if checks:
            self._verify_check_count.observe(checks)
        if self._span is not None:
            self._span.fold_verify(f"verify-{outcome}")

    def on_repair(self, result: str) -> None:
        """One exact recompute of a refuted answer (repaired / failed)."""
        self._verify_repairs.inc(result=result)
        if self._span is not None:
            self._span.fold_verify(f"repair-{result}")

    def on_quarantine(self, layer: str) -> None:
        """Corrupt state dropped instead of served (checkpoint)."""
        self._verify_quarantine.inc(layer=layer)
        if self._span is not None:
            self._span.fold_verify(f"quarantine-{layer}")

    def on_breaker(self, method: str, state: str, *, transition: bool = True) -> None:
        """Breaker hook: mirror the state machine onto the gauge.

        ``transition=False`` is the initial closed reading at breaker
        creation — the gauge is set, but no transition is counted.
        """
        from ..serve.breaker import STATE_VALUES

        self._breaker_state.set(STATE_VALUES.get(state, -1), method=method)
        if transition:
            self._breaker_transitions.inc(method=method, to=state)

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def export_text(self) -> str:
        """Prometheus text exposition of the registry."""
        from .exposition import render_prometheus

        return render_prometheus(self.registry)

    def export_json(self, *, include_spans: bool = True) -> dict:
        """The JSON snapshot (validated by ``validate_snapshot``)."""
        from .exposition import render_json

        return render_json(self.registry, spans=self.spans if include_spans else None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Observer(metrics={len(self.registry)}, spans={len(self.spans)})"
