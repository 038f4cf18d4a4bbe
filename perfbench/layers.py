"""Per-layer metrics of the traced run.

Single-query workloads report per query; service-bursts reports per
coalesced batch.  The parent process cannot see a pool worker's solve,
so for service-bursts the engine, kernel, frontier and ``batch.*``
figures, and ``pool.efficiency``, come from replaying every recorded
batch serially (:func:`replay_batches`) after the timed part.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import repro.core.batch
import repro.core.engine
from repro.core.batch import solve_batch
from repro.core.tracing import StepTrace

import spans


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def replay_batches(graph, records, rec: spans.Recorder) -> None:
    """Solve each recorded batch again, serially, with spans and counts.

    The replay asks for what the service's pipeline asks for under
    ``verify=True``: Multi-BiDS answers with certificates.
    """
    with spans.patch(repro.core.batch, "run_policy",
                     spans.traced_run_policy(rec)), \
         spans.patch(repro.core.engine, "gather_relax", spans.traced_gather(rec)):
        for record in records:
            step_trace = StepTrace()
            with rec.span("replay.solve_batch", request=record.index):
                res = solve_batch(graph, list(record.keys), method="multi",
                                  certify=True, trace=step_trace)
            rec.count("batch.size", record.size)
            rec.count("batch.shared_queries", _shared_endpoint_queries(record.keys))
            rec.count("batch.components", res.details.get("components", 1))
            rec.count("batch.searches", res.num_searches)
            spans.count_steps(rec, step_trace)


def _shared_endpoint_queries(keys) -> int:
    """Queries of one batch with an endpoint that another query also has."""
    owners = Counter(v for key in keys for v in set(key))
    return sum(owners[s] > 1 or owners[t] > 1 for s, t in keys)


def layer_metrics(workload: str, rec: spans.Recorder, phases: dict, base, traced,
                  pool) -> tuple[dict, dict]:
    """Every per-layer metric, and a note giving each ratio its base."""
    totals = rec.totals()

    def ms(name: str) -> float:
        return totals.get(name, {}).get("ms", 0.0)

    def count(name: str) -> float:
        return rec.counts.get(name, 0)

    service = workload == "service-bursts"
    batches = traced.extra.get("batches", [])
    units = len(batches) if service else len(traced.latency_ms)
    per = "per batch (serial replay)" if service else "per query"
    engine_ms = ms("engine.run_policy")
    steps, relax = count("engine.steps"), count("engine.relaxations")
    kernel_ms = ms("kernels.scatter_min") + ms("kernels.gather_relax")
    improved, relaxed = count("engine.improved"), count("engine.relaxed_edges")
    values = {
        "engine.ms": _ratio(engine_ms, units),
        "engine.steps": _ratio(steps, units),
        "engine.relaxations": _ratio(relax, units),
        "engine.us_per_step": _ratio(1e3 * engine_ms, steps),
        "engine.ns_per_relaxation": _ratio(1e6 * engine_ms, relax),
        "engine.improved_share": _ratio(improved, relaxed),
        "frontier.extracted": _ratio(count("frontier.extracted"), units),
        "frontier.peak": _ratio(count("frontier.peak"), units),
        "policy.pruned": _ratio(count("policy.pruned"), units),
        "kernels.scatter_ms": _ratio(ms("kernels.scatter_min"), units),
        "kernels.scatter_elements": _ratio(count("kernels.scatter_elements"), units),
        "kernels.gather_ms": _ratio(ms("kernels.gather_relax"), units),
        "kernels.gather_edges": _ratio(count("kernels.gather_edges"), units),
        "kernels.bytes": _ratio(count("kernels.bytes"), units),
        "kernels.share": _ratio(kernel_ms, engine_ms),
        "heuristics.evals": _ratio(count("heuristics.evals"), units),
        "heuristics.ms": _ratio(ms("heuristics.eval"), units),
        "paths.ms": _ratio(ms("paths.path"), units),
        "paths.vertices": _ratio(count("paths.vertices"), units),
        "setup.load_ms": 1e3 * phases["load"],
        "setup.pool_ms": 1e3 * phases["pool"],
        "setup.warmup_ms": 1e3 * phases["warmup"],
    }
    base_p50 = float(np.percentile(base.normalised_ms, 50))
    traced_p50 = float(np.percentile(traced.normalised_ms, 50))
    values["trace.overhead"] = traced_p50 / base_p50 - 1.0
    notes = {
        name: f"{per}, {units} {'batches' if service else 'queries'}"
        for name in values if not name.startswith(("setup.", "trace."))
    }
    notes.update({
        "engine.us_per_step": f"{engine_ms:.1f} engine ms / {steps:.0f} steps",
        "engine.ns_per_relaxation": f"{engine_ms:.1f} engine ms / {relax:.0f} relaxations",
        "engine.improved_share": f"{improved:.0f} improved / {relaxed:.0f} relaxed edges",
        "kernels.share": f"{kernel_ms:.1f} kernel ms / {engine_ms:.1f} engine ms",
        "trace.overhead": f"p50 {traced_p50:.3f} ms traced / {base_p50:.3f} ms untraced - 1",
    })
    values.update(_service_metrics(ms, count, base, traced, pool, notes))
    return values, notes


def _service_metrics(ms, count, base, traced, pool, notes) -> dict:
    """Pool, service, pipeline, verify and batch metrics (service-bursts only)."""
    extra = traced.extra
    batches = extra.get("batches", [])
    nb = len(batches)
    if nb == 0:
        return {}
    pipeline_ms = ms("pipeline.run")
    shards_ms = ms("pool.run_shards")
    check_ms = ms("verify.check")
    replay_ms = ms("replay.solve_batch")
    task_bytes, result_bytes = pool.pickled_bytes()
    waits = extra["queue_wait_ms"][np.isfinite(extra["queue_wait_ms"])]
    flushes = Counter(r.reason for r in batches)
    outcomes = extra["outcomes"]
    values = {
        "batch.size": _ratio(count("batch.size"), nb),
        "batch.components": _ratio(count("batch.components"), nb),
        "batch.searches_per_query": _ratio(count("batch.searches"), count("batch.size")),
        "batch.shared_endpoint_share": _ratio(count("batch.shared_queries"), count("batch.size")),
        "pool.run_shards_ms": shards_ms / nb,
        "pool.parent_ms": (pipeline_ms - shards_ms - check_ms) / nb,
        "pool.task_bytes": task_bytes / nb,
        "pool.result_bytes": result_bytes / nb,
        "pool.efficiency": _ratio(replay_ms, pool.workers * shards_ms),
        "pool.respawns": float(extra["respawns"]),
        "service.queue_wait_p50_ms": float(np.percentile(waits, 50)),
        "service.queue_wait_p95_ms": float(np.percentile(waits, 95)),
        "service.flushes.wait": float(flushes["wait"]),
        "service.flushes.size": float(flushes["size"]),
        "service.flushes.pressure": float(flushes["pressure"]),
        "service.bursts_split": float(extra["bursts_split"]),
        "service.dedup_share": _ratio(extra["deduped"], extra["submitted"]),
        "service.shed": float(outcomes.get("shed", 0)),
        "pipeline.ms": pipeline_ms / nb,
        "verify.check_ms": check_ms / nb,
        "verify.checks": _ratio(count("verify.checks"), nb),
        "verify.valid_share": _ratio(count("verify.valid"), count("verify.calls")),
        "verify.repaired": float(outcomes.get("repaired", 0)),
        "bench.generator_late_ms": max(base.extra["generator_late_ms"],
                                       extra["generator_late_ms"]),
    }
    notes.update({
        "batch.searches_per_query": (f"{count('batch.searches'):.0f} searches / "
                                     f"{count('batch.size'):.0f} queries"),
        "batch.shared_endpoint_share": (f"{count('batch.shared_queries'):.0f} queries sharing "
                                        f"an endpoint / {count('batch.size'):.0f} queries"),
        "pool.parent_ms": "pipeline.ms - pool.run_shards_ms - verify.check_ms, per batch",
        "pool.efficiency": (f"{replay_ms:.1f} serial replay ms / ({pool.workers} workers x "
                            f"{shards_ms:.1f} run_shards ms)"),
        "service.queue_wait_p50_ms": f"{len(waits)} queries",
        "service.queue_wait_p95_ms": f"{len(waits)} queries",
        "service.bursts_split": f"of {extra['bursts']} bursts",
        "service.dedup_share": f"{extra['deduped']} deduplicated / {extra['submitted']} submitted",
        "verify.valid_share": (f"{count('verify.valid'):.0f} valid / "
                               f"{count('verify.calls'):.0f} certificate checks"),
        "bench.generator_late_ms": "latest burst start, untraced and traced parts",
    })
    for name in ("pool.run_shards_ms", "pool.task_bytes", "pool.result_bytes",
                 "pipeline.ms", "verify.check_ms", "verify.checks", "batch.size",
                 "batch.components"):
        notes[name] = f"per batch, {nb} batches"
    return values
