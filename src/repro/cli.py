"""Command-line interface: queries and graph tooling without Python code.

Subcommands (``python -m repro <cmd>`` or the installed ``repro-query``
entry point):

* ``query``    — one PPSP query on a saved graph;
* ``batch``    — a batch of queries (pairs on the command line or a file);
* ``serve-batch`` — the fault-tolerant batch pipeline: durable
  checkpoints with ``--resume``, per-query deadlines, per-method
  circuit breakers, priority-based load shedding, and ``--verify``
  (certificate-check every answer, repair refuted ones; ``--chaos-*``
  flags inject seeded bit-flip corruption to exercise it);
* ``serve``    — the always-on streaming service: queries arrive one
  per line (stdin or ``--pairs-file``), the micro-batcher coalesces
  them over a persistent warm worker pool, and one JSON answer per
  query is emitted in submission order;
* ``verify``   — one certified query: emit its certificate and run the
  independent checker on it;
* ``trace``    — a query's full per-step engine trace (table or JSON);
* ``bench``    — the benchmark-regression harness (emits ``BENCH_<i>.json``);
* ``generate`` — build a suite-style synthetic graph and save it;
* ``info``     — Tab.-3-style statistics of a saved graph, plus a probe
  query reporting the run's work/depth and μ-settlement;
* ``stats``    — run the seeded observability workload and print the
  metrics snapshot (Prometheus text or schema-checked JSON).

Graphs are read/written in the formats of :mod:`repro.graphs.io`
(``.npz`` preferred; ``.gr`` DIMACS and plain edge lists accepted).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import batch_ppsp, ppsp
from .core.query_graph import PATTERNS
from .graphs import io as graph_io
from .graphs import knn_graph, road_graph, social_graph, web_graph
from .graphs.connectivity import approximate_diameter, largest_component
from .graphs.knn import clustered_points, skewed_points, uniform_points

__all__ = ["main"]


def _load_graph(path: str):
    if path.endswith(".npz"):
        return graph_io.load_npz(path)
    if path.endswith(".gr"):
        return graph_io.read_dimacs(path)
    return graph_io.read_edge_list(path)


def _parse_budget(spec: str | None):
    """Parse ``--budget`` specs like ``steps=500,relaxations=1e6,wall=2.5``."""
    if not spec:
        return None
    from .robustness.budget import Budget

    keys = {"steps": "max_steps", "relaxations": "max_relaxations", "wall": "wall_time"}
    kwargs = {}
    for part in spec.split(","):
        if not part.strip():
            continue
        try:
            key, value = part.split("=", 1)
        except ValueError:
            raise SystemExit(f"bad --budget item {part!r}; expected key=value") from None
        key = key.strip()
        if key not in keys:
            raise SystemExit(f"unknown --budget key {key!r}; options: {sorted(keys)}")
        field = keys[key]
        try:
            kwargs[field] = float(value) if field == "wall_time" else int(float(value))
        except ValueError:
            raise SystemExit(f"bad --budget value {value!r} for {key}; expected a number") from None
    try:
        return Budget(**kwargs)
    except ValueError as err:
        raise SystemExit(f"bad --budget: {err}") from None


def _cmd_query(args) -> int:
    graph = _load_graph(args.graph)
    if args.backend == "process":
        # A single point-to-point query routed through the process-pool
        # batch backend (one-pair plain-bids batch).  Serial-only
        # features are engine-local and cannot ship to a worker.
        for flag in ("trace", "verbose", "resilient", "checked"):
            if getattr(args, flag):
                raise SystemExit(f"--{flag} is serial-only; drop --backend process")
        if args.budget:
            raise SystemExit("--budget is serial-only; drop --backend process")
        from .core.batch import solve_batch

        res = solve_batch(
            graph, [(args.source, args.target)], method="plain-bids",
            backend="process", workers=args.workers,
        )
        dist = res.distance(args.source, args.target)
        payload = {
            "source": args.source,
            "target": args.target,
            "method": "plain-bids",
            "backend": "process",
            "distance": dist,
            "exact": res.exact,
            "reachable": dist != float("inf"),
        }
        print(json.dumps(payload, indent=2))
        return 0
    trace = None
    if args.trace or args.verbose:
        from .core.tracing import StepTrace

        trace = StepTrace()
    budget = _parse_budget(args.budget)
    if args.resilient:
        from .robustness.resilient import resilient_ppsp

        res = resilient_ppsp(
            graph, args.source, args.target, budget=budget, checked=args.checked
        )
        payload = {
            "source": res.source,
            "target": res.target,
            "method": res.method,
            "distance": res.distance,
            "exact": res.exact,
            "reachable": res.reachable,
            "attempts": [
                {"method": a.method, "attempt": a.attempt, "outcome": a.outcome,
                 **({"error": a.error} if a.error else {})}
                for a in res.attempts
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    ans = ppsp(
        graph, args.source, args.target, method=args.method,
        budget=budget, checked=args.checked, trace=trace,
    )
    payload = {
        "source": ans.source,
        "target": ans.target,
        "method": ans.method,
        "distance": ans.distance,
        "exact": ans.exact,
        "reachable": ans.reachable,
        "steps": ans.run.steps,
        "relaxations": ans.run.relaxations,
    }
    if args.verbose:
        # Costs of the run just executed (work/depth in the paper's
        # cost model; mu-settlement from the attached trace).
        settled = trace.mu_settled_step()
        payload["work"] = float(ans.run.meter.work)
        payload["depth"] = float(ans.run.meter.depth)
        payload["mu_settled_step"] = None if settled is None else int(settled)
    if ans.budget_report is not None:
        payload["budget"] = ans.budget_report.to_dict()
    if args.path and ans.reachable:
        payload["path"] = ans.path()
    if args.trace:
        payload["trace_summary"] = trace.summary()
    print(json.dumps(payload, indent=2))
    if args.trace:
        print(trace.render(), file=sys.stderr)
    return 0


def _cmd_trace(args) -> int:
    """Run one query with a :class:`StepTrace` and export it."""
    from .core.tracing import StepTrace

    graph = _load_graph(args.graph)
    trace = StepTrace()
    ans = ppsp(graph, args.source, args.target, method=args.method, trace=trace)
    if args.json:
        payload = json.loads(trace.to_json())
        payload["query"] = {
            "source": ans.source,
            "target": ans.target,
            "method": ans.method,
            "distance": ans.distance,
            "reachable": ans.reachable,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(trace.render(max_rows=args.max_rows))
        print(json.dumps({"distance": ans.distance, **trace.summary()}), file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    """Run the seeded regression workload and gate against the baseline."""
    from .perf.regression import bench_command

    payload, rc = bench_command(
        scale=args.scale,
        output=args.output,
        baseline=args.baseline,
        directory=args.dir,
        work_tolerance=args.work_tolerance,
        wall_tolerance=args.wall_tolerance,
        check=args.check,
        backend=args.backend,
    )
    print(json.dumps(
        {
            "output": payload["output_file"],
            "gates": payload["gates"],
            "comparison": payload["comparison"],
        },
        indent=2,
    ))
    return rc


def _cmd_batch(args) -> int:
    graph = _load_graph(args.graph)
    if args.pairs_file:
        with open(args.pairs_file) as fh:
            pairs = [tuple(int(x) for x in line.split()[:2]) for line in fh if line.strip()]
    else:
        raw = [int(x) for x in args.pairs]
        if len(raw) % 2:
            raise SystemExit("need an even number of vertex ids")
        pairs = list(zip(raw[0::2], raw[1::2]))
    kwargs = {}
    budget = _parse_budget(args.budget)
    if budget is not None:
        kwargs["budget"] = budget
    if args.checked:
        from .robustness.auditor import InvariantAuditor

        kwargs["auditor"] = InvariantAuditor()
    if args.backend != "serial":
        kwargs["backend"] = args.backend
        if args.workers is not None:
            kwargs["workers"] = args.workers
    res = batch_ppsp(graph, pairs, method=args.method, **kwargs)
    payload = {
        "method": res.method,
        "num_searches": res.num_searches,
        "exact": res.exact,
        "distances": {f"{s}->{t}": d for (s, t), d in sorted(res.distances.items())},
    }
    report = res.details.get("budget_report")
    if report is not None:
        payload["budget"] = report.to_dict()
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_verify(args) -> int:
    """One certified query plus an independent certificate check."""
    from .verify import CertificateChecker

    graph = _load_graph(args.graph)
    ans = ppsp(graph, args.source, args.target, method=args.method,
               budget=_parse_budget(args.budget), certify=True)
    cert = ans.certificate
    report = CertificateChecker(tolerance=args.tolerance).check(
        graph, cert, expected_distance=ans.distance
    )
    payload = {
        "source": ans.source,
        "target": ans.target,
        "method": ans.method,
        "distance": ans.distance,
        "exact": ans.exact,
        "certificate": {
            "kind": cert.kind,
            "path_length": None if cert.path is None else len(cert.path),
            "facts": len(cert.facts),
            "mu": cert.mu,
            "heuristic_bound": cert.heuristic_bound,
            "graph_fingerprint": cert.graph_fingerprint,
        },
        "check": {
            "valid": report.valid,
            "proven": report.proven,
            "checks": report.checks,
            "failures": report.failures,
        },
    }
    print(json.dumps(payload, indent=2))
    if args.cert_out:
        with open(args.cert_out, "w") as fh:
            fh.write(cert.to_json(indent=2))
            fh.write("\n")
        print(f"wrote certificate to {args.cert_out}", file=sys.stderr)
    return 0 if report.valid else 1


def _serve_chaos_injector(args):
    """Build the seeded FaultInjector the --chaos-* flags describe."""
    if not (args.chaos_flip_dist or args.chaos_flip_checkpoint):
        return None
    from .robustness import FaultInjector

    return FaultInjector(
        seed=args.chaos_seed,
        flip_dist_at=2 if args.chaos_flip_dist else None,
        flip_dist_count=args.chaos_flip_dist or 1,
        flip_checkpoint=bool(args.chaos_flip_checkpoint),
        max_fires=args.chaos_fires,
    )


def _serve_recovery_kwargs(args):
    """shard_deadline / retry_budget kwargs from the CLI flags."""
    kwargs = {}
    if args.shard_deadline is not None:
        kwargs["shard_deadline"] = args.shard_deadline
    if args.retry_budget is not None:
        from .serve import RetryBudget

        kwargs["retry_budget"] = RetryBudget(capacity=args.retry_budget)
    return kwargs


def _cmd_serve_batch(args) -> int:
    """The fault-tolerant batch pipeline (checkpoints, deadlines, breakers)."""
    from .serve import ServePipeline

    graph = _load_graph(args.graph)
    if args.pairs_file:
        # 's t' or 's t priority' per line; priority defaults to 0.
        queries = []
        with open(args.pairs_file) as fh:
            for line in fh:
                parts = line.split()
                if not parts:
                    continue
                if len(parts) not in (2, 3):
                    raise SystemExit(
                        f"bad pairs line {line.strip()!r}; expected 's t [priority]'"
                    )
                queries.append(tuple(int(x) for x in parts))
    else:
        raw = [int(x) for x in args.pairs]
        if len(raw) % 2:
            raise SystemExit("need an even number of vertex ids")
        queries = list(zip(raw[0::2], raw[1::2]))
    if not queries:
        raise SystemExit("no queries given (inline pairs or --pairs-file)")

    pipeline = ServePipeline(
        graph,
        method=args.method,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        deadline_ms=args.deadline_ms,
        max_queue=args.max_queue,
        budget=_parse_budget(args.budget),
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        verify=args.verify,
        fault_injector=_serve_chaos_injector(args),
        backend=args.backend,
        workers=args.workers,
        **_serve_recovery_kwargs(args),
    )
    res = pipeline.run(queries, resume=args.resume)
    payload = {
        "method": res.method,
        "counts": res.counts(),
        "checkpoints_written": res.checkpoints_written,
        "resumed_queries": res.resumed_queries,
        "breakers": res.breaker_states,
        "shed": [f"{s}->{t}" for (s, t), a in res.answers.items() if a.outcome == "shed"],
        "results": {
            f"{s}->{t}": {"distance": a.distance, "exact": a.exact, "outcome": a.outcome}
            for (s, t), a in sorted(res.answers.items()) if a.outcome != "shed"
        },
    }
    if args.checkpoint:
        payload["checkpoint"] = args.checkpoint
    if args.verify:
        payload["verification"] = res.details.get("verification", {})
    print(json.dumps(payload, indent=2))
    # Shed/timed-out queries are a degraded (but explicit) service level,
    # not a failure; only a query with no answer at all is one.
    return 1 if "failed" in res.counts() else 0


def _cmd_serve(args) -> int:
    """The streaming query service: stdin/file lines -> JSONL answers.

    Input lines are ``s t [priority]``; answers are emitted in
    submission order as soon as their coalesced batch resolves, so a
    trickle of queries still streams (bounded by ``--max-wait-ms``).
    A run summary (stats + batch log) goes to stderr on shutdown.
    """
    from .serve import QueryService

    graph = _load_graph(args.graph)
    source = open(args.pairs_file) if args.pairs_file else sys.stdin
    observer = None
    if args.stats_out:
        from .obs import Observer

        observer = Observer()
    futures = []
    emitted = 0

    def emit_ready(block: bool) -> None:
        nonlocal emitted
        while emitted < len(futures):
            fut = futures[emitted]
            if not block and not fut.done():
                return
            res = fut.result()
            print(json.dumps({
                "source": res.source,
                "target": res.target,
                "distance": res.distance,
                "exact": res.exact,
                "outcome": res.outcome,
                "batch": res.batch_index,
            }), flush=True)
            emitted += 1

    service = QueryService(
        graph,
        method=args.method,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        backend=args.backend,
        workers=args.workers,
        deadline_ms=args.deadline_ms,
        max_queue=args.max_queue,
        observer=observer,
        codel_target_ms=args.codel_target_ms,
        codel_interval_ms=args.codel_interval_ms,
        shed_multiple=args.shed_multiple,
        degrade_budget_ms=args.degrade_budget_ms,
        **_serve_recovery_kwargs(args),
    )
    try:
        with service as svc:
            svc.start()
            for line in source:
                parts = line.split()
                if not parts:
                    continue
                if len(parts) not in (2, 3):
                    raise SystemExit(
                        f"bad query line {line.strip()!r}; expected 's t [priority]'"
                    )
                s, t = int(parts[0]), int(parts[1])
                priority = int(parts[2]) if len(parts) == 3 else 0
                futures.append(svc.submit(s, t, priority=priority))
                emit_ready(block=False)
        # close() flushed the tail; resolve and emit everything left.
        emit_ready(block=True)
        stats = service.stats()
        print(json.dumps({
            "stats": stats,
            "batches": [
                {"index": b.index, "reason": b.reason, "size": b.size}
                for b in service.batches
            ],
        }, indent=2), file=sys.stderr)
        if args.stats_out:
            with open(args.stats_out, "w") as fh:
                fh.write(observer.export_text())
    finally:
        if args.pairs_file:
            source.close()
    return 1 if any(f.result().outcome == "failed" for f in futures) else 0


def _cmd_generate(args) -> int:
    if args.kind == "social":
        g = social_graph(args.n, seed=args.seed)
    elif args.kind == "web":
        g = web_graph(args.n, seed=args.seed)
    elif args.kind == "road":
        side = max(int(args.n ** 0.5), 2)
        g = road_graph(side, side, seed=args.seed)
    elif args.kind == "knn-uniform":
        g = knn_graph(uniform_points(args.n, 2, seed=args.seed), k=5)
    elif args.kind == "knn-clustered":
        g = knn_graph(clustered_points(args.n, 2, seed=args.seed), k=5)
    else:
        g = knn_graph(skewed_points(args.n, 2, seed=args.seed), k=5)
    g.name = args.kind
    graph_io.save_npz(args.output, g)
    print(f"wrote {g!r} to {args.output}")
    return 0


def _cmd_info(args) -> int:
    from .graphs.validate import validate_graph

    # Diagnostic load: corrupt files must still be inspectable, so npz
    # graphs skip construction-time validation here and let
    # validate_graph report every problem instead.
    if args.graph.endswith(".npz"):
        g = graph_io.load_npz(args.graph, validate=False)
    else:
        g = _load_graph(args.graph)
    lcc = largest_component(g)
    problems = validate_graph(g)
    payload = {
        "name": g.name,
        "directed": g.directed,
        "n": g.num_vertices,
        "m": g.num_edges,
        "coord_system": g.coord_system,
        "diameter_estimate": approximate_diameter(g),
        "lcc_percent": round(100.0 * len(lcc) / max(g.num_vertices, 1), 2),
        "problems": problems,
    }
    if not problems and len(lcc) >= 2:
        # One BiDS probe across the largest component: reports the
        # work/depth and mu-settlement of the run just executed, so
        # "how hard is a query on this graph" ships with the stats.
        from .core.tracing import StepTrace

        s, t = int(lcc[0]), int(lcc[-1])
        trace = StepTrace()
        ans = ppsp(g, s, t, method="bids", trace=trace)
        settled = trace.mu_settled_step()
        payload["probe"] = {
            "source": s,
            "target": t,
            "method": "bids",
            "distance": ans.distance if ans.reachable else None,
            "work": float(ans.run.meter.work),
            "depth": float(ans.run.meter.depth),
            "steps": ans.run.steps,
            "mu_settled_step": None if settled is None else int(settled),
        }
    print(json.dumps(payload, indent=2))
    return 0 if not problems else 1


def _cmd_stats(args) -> int:
    """Run the seeded observability workload, print the snapshot."""
    from .obs.exposition import validate_snapshot
    from .obs.workload import stats_workload

    graph = _load_graph(args.graph) if args.graph else None
    obs = stats_workload(graph, num_pairs=args.pairs, seed=args.seed)
    if args.format == "text":
        out = obs.export_text()
    else:
        payload = obs.export_json(include_spans=not args.no_spans)
        validate_snapshot(payload)
        out = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out)
        print(f"wrote {args.format} snapshot to {args.output}")
    else:
        print(out, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="one point-to-point query")
    q.add_argument("--graph", required=True)
    q.add_argument("--source", type=int, required=True)
    q.add_argument("--target", type=int, required=True)
    q.add_argument("--method", default="bids",
                   choices=("sssp", "et", "bids", "astar", "bidastar"))
    q.add_argument("--path", action="store_true", help="include a shortest path")
    q.add_argument("--trace", action="store_true",
                   help="per-step engine trace (summary in JSON, table on stderr)")
    q.add_argument("--budget", metavar="SPEC",
                   help="execution budget, e.g. 'steps=500,relaxations=1e6,wall=2.5'; "
                        "on exhaustion the answer degrades to an upper bound (exact=false)")
    q.add_argument("--checked", action="store_true",
                   help="verify framework invariants every step (slow; raises on violation)")
    q.add_argument("--resilient", action="store_true",
                   help="run the bidastar->bids->et->dijkstra fallback chain "
                        "instead of a single method")
    q.add_argument("--backend", default="serial", choices=("serial", "process"),
                   help="process: route through the multi-process pool "
                        "(one-pair plain-bids batch; serial-only flags rejected)")
    q.add_argument("--workers", type=int,
                   help="pool size for --backend process (default: cpu count)")
    q.add_argument("--verbose", action="store_true",
                   help="include work/depth and the mu-settlement step of "
                        "the run just executed")
    q.set_defaults(func=_cmd_query)

    b = sub.add_parser("batch", help="a batch of queries")
    b.add_argument("--graph", required=True)
    b.add_argument("--method", default="multi",
                   choices=("multi", "plain-bids", "plain-star-bids", "sssp-plain", "sssp-vc"))
    b.add_argument("--pairs-file", help="file of 's t' lines")
    b.add_argument("--budget", metavar="SPEC",
                   help="batch-wide execution budget (see 'query --budget')")
    b.add_argument("--backend", default="serial", choices=("serial", "process"),
                   help="process: shard the batch across a process pool "
                        "(bit-identical answers; incompatible with --budget)")
    b.add_argument("--workers", type=int,
                   help="pool size for --backend process (default: cpu count)")
    b.add_argument("--checked", action="store_true",
                   help="verify framework invariants every step (slow)")
    b.add_argument("pairs", nargs="*", help="s1 t1 s2 t2 ...")
    b.set_defaults(func=_cmd_batch)

    sv = sub.add_parser(
        "serve-batch",
        help="fault-tolerant batch pipeline: checkpoint/resume, deadlines, "
             "circuit breakers, load shedding",
    )
    sv.add_argument("--graph", required=True)
    sv.add_argument("--method", default="multi",
                    choices=("multi", "plain-bids", "plain-star-bids",
                             "sssp-plain", "sssp-vc", "resilient"))
    sv.add_argument("--pairs-file", help="file of 's t [priority]' lines")
    sv.add_argument("--checkpoint", metavar="PATH",
                    help="durable checkpoint manifest (a .npz sidecar is "
                         "written next to it); enables --resume")
    sv.add_argument("--checkpoint-every", type=int, default=16,
                    help="queries per shard between checkpoints")
    sv.add_argument("--resume", action="store_true",
                    help="skip queries already answered by the checkpoint "
                         "at --checkpoint (bit-identical to an "
                         "uninterrupted run)")
    sv.add_argument("--deadline-ms", type=float,
                    help="per-query deadline; queries running into it return "
                         "the budgeted upper bound (exact=false), queries "
                         "reaching it while queued time out explicitly")
    sv.add_argument("--max-queue", type=int,
                    help="admission capacity; excess queries are shed "
                         "lowest-priority first with an explicit outcome")
    sv.add_argument("--budget", metavar="SPEC",
                    help="base per-shard execution budget (see 'query --budget')")
    sv.add_argument("--breaker-threshold", type=int, default=3,
                    help="consecutive failures that trip a method's breaker open")
    sv.add_argument("--breaker-cooldown", type=float, default=30.0,
                    help="seconds an open breaker waits before a half-open probe")
    sv.add_argument("--backend", default="serial", choices=("serial", "process"),
                   help="process: solve each shard on a process pool "
                        "(budgeted shards still run serially)")
    sv.add_argument("--workers", type=int,
                   help="pool size for --backend process (default: cpu count)")
    sv.add_argument("--verify", action="store_true",
                    help="certificate-check every answer before it is "
                         "returned; refuted answers are repaired by an "
                         "exact recompute (outcome 'repaired')")
    sv.add_argument("--shard-deadline", type=float, metavar="SECONDS",
                    help="wall deadline of each pool batch, counted from "
                         "submission (--backend process): a batch past it "
                         "times out instead of hanging, the suspect worker "
                         "pool is quarantined and respawned, and the shard "
                         "is re-answered through the resilient chain")
    sv.add_argument("--retry-budget", type=float, metavar="TOKENS",
                    help="token-bucket capacity for resilient-chain "
                         "retries (default: unbounded)")
    sv.add_argument("--chaos-flip-dist", type=int, metavar="N",
                    help="inject N seeded bit-flips into tentative "
                         "distances per fault firing (chaos testing)")
    sv.add_argument("--chaos-flip-checkpoint", action="store_true",
                    help="flip one byte of each written checkpoint "
                         "sidecar (chaos testing)")
    sv.add_argument("--chaos-seed", type=int, default=0,
                    help="seed for the chaos fault injector")
    sv.add_argument("--chaos-fires", type=int, default=1,
                    help="total faults the chaos injector may fire")
    sv.add_argument("pairs", nargs="*", help="s1 t1 s2 t2 ...")
    sv.set_defaults(func=_cmd_serve_batch)

    srv = sub.add_parser(
        "serve",
        help="streaming query service: micro-batched execution over a "
             "persistent warm worker pool, one JSON answer per line",
    )
    srv.add_argument("--graph", required=True)
    srv.add_argument("--method", default="multi",
                     choices=("multi", "plain-bids", "plain-star-bids",
                              "sssp-plain", "sssp-vc", "resilient"))
    srv.add_argument("--max-batch", type=int, default=32,
                     help="queries per coalesced batch (flush trigger)")
    srv.add_argument("--max-wait-ms", type=float, default=5.0,
                     help="longest a queued query waits before a partial "
                          "batch flushes")
    srv.add_argument("--backend", default="serial", choices=("serial", "process"),
                     help="process: execute batches on a persistent worker "
                          "pool (workers attach the shared graph once)")
    srv.add_argument("--workers", type=int,
                     help="pool size for --backend process (default: cpu count)")
    srv.add_argument("--deadline-ms", type=float,
                     help="per-query deadline (see 'serve-batch --deadline-ms')")
    srv.add_argument("--max-queue", type=int,
                     help="admission capacity per coalesced batch; excess "
                          "sheds lowest-priority first")
    srv.add_argument("--shard-deadline", type=float, metavar="SECONDS",
                     help="wall deadline of each pool batch "
                          "(see 'serve-batch --shard-deadline')")
    srv.add_argument("--retry-budget", type=float, metavar="TOKENS",
                     help="token-bucket capacity for resilient-chain "
                          "retries (default: unbounded)")
    srv.add_argument("--codel-target-ms", type=float, default=100.0,
                     help="queue-sojourn target; sojourn persistently above "
                          "it for a full interval means overloaded")
    srv.add_argument("--codel-interval-ms", type=float, default=1000.0,
                     help="how long sojourn must stay above target before "
                          "the service degrades")
    srv.add_argument("--shed-multiple", type=float, default=8.0,
                     help="shed new queries at the door once the oldest "
                          "queued query has waited MULTIPLE x target")
    srv.add_argument("--degrade-budget-ms", type=float,
                     help="under persistent overload, degrade flushed "
                          "queries to budgeted (exact=false) answers with "
                          "this wall budget instead of queueing further "
                          "(unset: ladder is exact -> shed)")
    srv.add_argument("--pairs-file",
                     help="read 's t [priority]' lines from this file "
                          "instead of stdin")
    srv.add_argument("--stats-out", metavar="PATH",
                     help="write a Prometheus text snapshot (incl. the "
                          "repro_service_* families) here on shutdown")
    srv.set_defaults(func=_cmd_serve)

    v = sub.add_parser(
        "verify",
        help="one certified query: emit the certificate, run the "
             "independent checker on it",
    )
    v.add_argument("--graph", required=True)
    v.add_argument("--source", type=int, required=True)
    v.add_argument("--target", type=int, required=True)
    v.add_argument("--method", default="bids",
                   choices=("sssp", "et", "bids", "astar", "bidastar"))
    v.add_argument("--budget", metavar="SPEC",
                   help="execution budget; a budget-degraded answer gets a "
                        "one-sided upper-bound certificate")
    v.add_argument("--tolerance", type=float, default=1e-6,
                   help="relative tolerance of the checker's comparisons")
    v.add_argument("--cert-out", metavar="PATH",
                   help="also write the certificate JSON here")
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("trace", help="full per-step engine trace of one query")
    t.add_argument("--graph", required=True)
    t.add_argument("--source", type=int, required=True)
    t.add_argument("--target", type=int, required=True)
    t.add_argument("--method", default="bids",
                   choices=("sssp", "et", "bids", "astar", "bidastar"))
    t.add_argument("--json", action="store_true",
                   help="machine-readable export (StepTrace.to_json) instead of a table")
    t.add_argument("--max-rows", type=int, default=40,
                   help="table rows before head/tail elision (table mode)")
    t.set_defaults(func=_cmd_trace)

    bench = sub.add_parser(
        "bench", help="benchmark-regression harness (emits BENCH_<i>.json)"
    )
    bench.add_argument("--scale", default="small", choices=("tiny", "small"))
    bench.add_argument("--output", help="snapshot path (default: next BENCH_<i>.json)")
    bench.add_argument("--baseline",
                       help="baseline snapshot to gate against "
                            "(default: highest-numbered BENCH_*.json)")
    bench.add_argument("--dir", default=".", help="directory holding BENCH_*.json")
    bench.add_argument("--work-tolerance", type=float, default=0.10,
                       help="allowed relative increase of deterministic counters")
    bench.add_argument("--wall-tolerance", type=float, default=1.00,
                       help="allowed relative increase of wall-clock numbers")
    bench.add_argument("--backend", default="serial", choices=("serial", "process"),
                       help="process: additionally measure the process-pool "
                             "backend (extra 'pool' section; never gated)")
    bench.add_argument("--check", action="store_true",
                       help="exit nonzero when the tolerance gate fails")
    bench.set_defaults(func=_cmd_bench)

    g = sub.add_parser("generate", help="build a synthetic suite-style graph")
    g.add_argument("--kind", required=True,
                   choices=("social", "web", "road", "knn-uniform", "knn-clustered", "knn-skewed"))
    g.add_argument("--n", type=int, default=10_000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", required=True)
    g.set_defaults(func=_cmd_generate)

    i = sub.add_parser("info", help="statistics of a saved graph")
    i.add_argument("--graph", required=True)
    i.set_defaults(func=_cmd_info)

    s = sub.add_parser(
        "stats",
        help="observability snapshot of the seeded workload "
             "(Prometheus text or JSON)",
    )
    s.add_argument("--graph",
                   help="graph to run the workload on "
                        "(default: the built-in seeded road grid)")
    s.add_argument("--pairs", type=int, default=3,
                   help="query pairs per method (seeded)")
    s.add_argument("--seed", type=int, default=1729,
                   help="seed for pair selection")
    s.add_argument("--format", default="text", choices=("text", "json"))
    s.add_argument("--output", help="write the snapshot here instead of stdout")
    s.add_argument("--no-spans", action="store_true",
                   help="omit per-query span records from the JSON snapshot")
    s.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
