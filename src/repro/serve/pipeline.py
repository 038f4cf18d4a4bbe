"""The fault-tolerant batch pipeline: ``serve_batch`` and its machinery.

:class:`ServePipeline` wraps the Sec.-4 batch solvers (and the
single-query resilient chain) with the protections a long-running,
many-query service needs:

1. **Checkpoint/resume** — the admitted queries are processed in shards
   of ``checkpoint_every``; after each shard a durable checkpoint
   (:mod:`~repro.serve.checkpoint`) records every answer so far.  A
   killed job re-run with ``resume=True`` skips completed shards and
   re-executes only unanswered queries; because shard boundaries depend
   only on the submitted batch, the resumed result is bit-identical to
   an uninterrupted run.
2. **Deadlines** — per-query deadlines (absolute, or a default
   ``deadline_ms`` from admission) propagate into the engine as a
   wall-time :class:`~repro.robustness.Budget`, so a query running into
   its deadline returns the search's current upper bound with
   ``exact=False`` instead of missing it; a deadline that expires while
   the query is still queued yields an explicit ``timeout`` outcome.
3. **Circuit breakers** — a :class:`~repro.serve.breaker.BreakerBoard`
   guards the batch method and every resilient-chain rung.  A method
   that keeps failing trips open and traffic routes to the next rung
   without paying the failure again; half-open probes restore it once
   it recovers.
4. **Load shedding** — admission control
   (:mod:`~repro.serve.admission`) bounds the queue and sheds the
   lowest-priority queries with an explicit ``shed`` outcome rather
   than degrading every answer.
5. **Answer verification** (``verify=True``) — every executed answer is
   checked before it is recorded.  Certified answers go through the
   :class:`~repro.verify.CertificateChecker`; certificate-less exact
   claims (and every "unreachable" claim) are confirmed against an
   authoritative Dijkstra run.  A claim that fails its check is never
   returned: the pipeline recomputes it exactly, re-checks the new
   certificate, and records the query with the ``repaired`` outcome
   (or ``failed`` when even the recompute cannot be certified).
   Corrupt checkpoints (:class:`~repro.serve.CheckpointCorrupt`) are
   *quarantined* on resume — the run recomputes from scratch rather
   than trusting bytes that fail their checksum.

The pipeline is strictly opt-in: nothing in the core engine or the
batch solvers changes when it is not used, preserving the zero-overhead
default path the bench gate pins.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field, replace

from ..api import validate_query
from ..core.answer import AnswerLookup, QueryAnswer
from ..core.batch import BATCH_METHODS, solve_batch
from ..parallel.cost_model import WorkDepthMeter
from ..robustness.budget import Budget
from ..robustness.clock import as_clock
from ..robustness.resilient import DEFAULT_CHAIN, resilient_ppsp
from .admission import (
    FAILED,
    OK,
    REPAIRED,
    SHED,
    TIMEOUT,
    AdmissionController,
    ServeQuery,
)
from .breaker import BreakerBoard
from .checkpoint import CheckpointCorrupt, CheckpointStore, batch_fingerprint

__all__ = ["ServePipeline", "PipelineResult", "serve_batch", "SERVE_METHODS"]

#: the batch strategies plus per-query resilient-chain execution.
SERVE_METHODS = BATCH_METHODS + ("resilient",)


@dataclass
class PipelineResult(AnswerLookup):
    """Everything one pipeline run produced, per query and in aggregate.

    ``answers`` holds one :class:`~repro.core.answer.QueryAnswer` per
    submitted query: executed ones (``inf`` for unreachable, timed-out
    or failed queries) and shed ones (outcome ``shed``, ``inf``).  A
    record carries its certificate when the pipeline runs with
    ``certify``/``verify`` (resumed-from-checkpoint queries carry none)
    and its path under ``collect_paths``.  ``distances`` and ``exact``
    are read-only views over the executed records.
    """

    method: str
    answers: dict[tuple[int, int], QueryAnswer] = field(default_factory=dict)
    checkpoints_written: int = 0
    resumed_queries: int = 0
    breaker_states: dict[str, str] = field(default_factory=dict)
    meter: WorkDepthMeter = field(default_factory=WorkDepthMeter)
    details: dict = field(default_factory=dict)
    #: the serving graph's orientation: a directed run answers each
    #: pair as asked only.
    directed: bool = False

    def counts(self) -> dict[str, int]:
        """Queries per outcome (including shed), for logs and the CLI."""
        out: dict[str, int] = {}
        for ans in self.answers.values():
            out[ans.outcome] = out.get(ans.outcome, 0) + 1
        return dict(sorted(out.items()))


class ServePipeline:
    """A resilient executor for one batch workload on one graph.

    Parameters
    ----------
    graph : Graph
        The input graph (validated per query at admission).
    method : str
        One of :data:`SERVE_METHODS`: a Sec.-4 batch strategy executed
        per shard, or ``"resilient"`` to run every query individually
        through the breaker-guarded fallback chain.
    checkpoint_path : str or None
        Manifest path for durable checkpoints (sidecar ``.npz`` derived
        from it); ``None`` disables checkpointing.
    checkpoint_every : int
        Queries per shard — the checkpoint granularity *and* the resume
        re-execution unit.
    deadline_ms : float or None
        Default per-query deadline, assigned at admission relative to
        the pipeline clock; explicit ``ServeQuery.deadline`` values win.
    max_queue : int or None
        Admission capacity; excess queries are shed lowest-priority
        first.
    budget : Budget or None
        Base per-shard execution budget, combined with deadline-derived
        wall-time limits (each shard meters it fresh).
    breaker_threshold, breaker_cooldown :
        Consecutive failures that open a method's breaker, and seconds
        before its half-open probe, for the pipeline's
        :class:`~repro.serve.breaker.BreakerBoard`.
    resilient_methods : tuple of str
        Rung order for chain execution and shard fallback.
    retries : int
        Transient-failure retries per rung (see ``resilient_ppsp``).
    clock : callable or SimClock or None
        Time source for deadlines and breaker cooldowns; ``None`` means
        real time.  Chaos tests pass a
        :class:`~repro.robustness.SimClock` shared with the injector.
    fault_injector : FaultInjector or None
        Threaded into every engine run (chaos testing).
    observer : repro.obs.Observer or None
        Receives serve counters (outcomes, shed, deadline misses,
        checkpoints), breaker gauge transitions, and a span per shard.
    checkpoint_hook : callable or None
        ``checkpoint_hook(manifest)`` after each durable write — the
        crash/resume tests raise from here to simulate a kill exactly
        at a checkpoint boundary.
    backend : str
        ``"serial"`` (default) or ``"process"``: run each shard's batch
        on the :mod:`repro.parallel.pool` worker backend.  Answers are
        bit-identical either way.  A worker death surfaces as a shard
        failure — the breaker trips and the shard's queries route
        through the per-query resilient chain, exactly like any other
        shard fault, so checkpoint/resume semantics are unchanged.
        Shards that carry a budget or live deadlines run serially (the
        budget meter is inherently single-process).
    workers : int or None
        Pool size for ``backend="process"`` (default: CPU count).
    pool : repro.parallel.pool.ProcessPool or None
        Reuse an existing pool (and its shared graph export) across
        runs; by default each ``run()`` builds and tears down its own.
    shard_deadline : float or None
        Wall seconds a pool batch may take from submission
        (``backend="process"``); past it the pool quarantines its
        workers and the shard routes through the resilient chain.
    retry_budget : repro.serve.overload.RetryBudget or None
        Token bucket gating the resilient chain's transient retries.
    verify : bool
        Turn on the answer-verification stage: certificates are
        requested from every solver, checked per answer, and failing
        answers are repaired by an exact recompute (outcome
        ``repaired``) instead of being returned.
    checker : CertificateChecker or None
        Override the checker used by the verification stage (e.g. a
        different tolerance); a default one is built when ``verify``
        is set.
    certify : bool
        Request certificates from every solver and record them on each
        query's answer *without* the verification
        stage — what the query service uses to hand certificates back
        per future.  Implied by ``verify``.
    collect_paths : bool
        Record each executed query's shortest vertex path on its answer
        (``None`` for methods that discard path state, e.g. the plain
        BiDS modes, and for timeouts).
    """

    def __init__(
        self,
        graph,
        *,
        method: str = "multi",
        checkpoint_path=None,
        checkpoint_every: int = 16,
        deadline_ms: float | None = None,
        max_queue: int | None = None,
        budget: Budget | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        resilient_methods: tuple[str, ...] = DEFAULT_CHAIN,
        retries: int = 1,
        clock=None,
        fault_injector=None,
        observer=None,
        checkpoint_hook=None,
        verify: bool = False,
        checker=None,
        certify: bool = False,
        collect_paths: bool = False,
        backend: str = "serial",
        workers: int | None = None,
        pool=None,
        shard_deadline: float | None = None,
        retry_budget=None,
    ) -> None:
        if method not in SERVE_METHODS:
            raise ValueError(f"unknown serve method {method!r}; options: {SERVE_METHODS}")
        if backend not in ("serial", "process"):
            raise ValueError(f"unknown backend {backend!r}; options: serial, process")
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if deadline_ms is not None and deadline_ms < 0:
            raise ValueError(f"deadline_ms must be nonnegative, got {deadline_ms}")
        if shard_deadline is not None and shard_deadline <= 0:
            raise ValueError(f"shard_deadline must be > 0, got {shard_deadline}")
        self.graph = graph
        self.method = method
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = int(checkpoint_every)
        self.deadline_ms = deadline_ms
        self.max_queue = max_queue
        self.budget = budget
        self.retries = int(retries)
        self.resilient_methods = tuple(resilient_methods)
        self._now = as_clock(clock)
        self.observer = observer
        self.fault_injector = fault_injector
        self.checkpoint_hook = checkpoint_hook
        self.backend = backend
        self.workers = workers
        self.pool = pool
        self._pool = None
        self.shard_deadline = shard_deadline
        self.retry_budget = retry_budget
        self.verify = bool(verify)
        self.certify = bool(certify) or self.verify
        self.collect_paths = bool(collect_paths)
        if self.verify and checker is None:
            from ..verify import CertificateChecker

            checker = CertificateChecker()
        self._checker = checker
        self._vcounts: dict[str, int] = {}
        self.breakers = BreakerBoard(
            failure_threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            clock=clock,
            observer=observer,
        )

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _normalize(self, queries) -> list[ServeQuery]:
        """Submissions -> validated, deduplicated ``ServeQuery`` list.

        Accepts ``ServeQuery`` objects, ``(s, t)`` pairs, and
        ``(s, t, priority)`` triples.  Exact-duplicate keys collapse
        (keeping the highest priority and earliest deadline) so shard
        accounting maps one-to-one onto answer keys.  The list holds
        copies: the default deadline and a duplicate's merge never
        write into the caller's objects, so the same submission can be
        run (or resumed) again later.
        """
        out: list[ServeQuery] = []
        by_key: dict[tuple[int, int], ServeQuery] = {}
        default_deadline = (
            None if self.deadline_ms is None else self._now() + self.deadline_ms / 1000.0
        )
        for q in queries:
            q = replace(q) if isinstance(q, ServeQuery) else ServeQuery(*q)
            validate_query(self.graph, q.source, q.target)
            if q.deadline is None:
                q.deadline = default_deadline
            prev = by_key.get(q.key)
            if prev is not None:
                prev.priority = max(prev.priority, q.priority)
                if q.deadline is not None:
                    prev.deadline = (
                        q.deadline if prev.deadline is None
                        else min(prev.deadline, q.deadline)
                    )
                continue
            by_key[q.key] = q
            out.append(q)
        return out

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, queries, *, resume: bool = False) -> PipelineResult:
        """Answer the batch; see the class docstring for the guarantees."""
        obs = self.observer
        submitted = self._normalize(queries)
        result = PipelineResult(method=self.method, directed=self.graph.directed)
        self._meter = result.meter
        self._num_searches = 0
        self._vcounts = {
            "checked": 0, "valid": 0, "invalid": 0, "unproven": 0,
            "confirmed": 0, "repaired": 0, "failed": 0,
        }
        if not submitted:
            result.details["empty"] = True
            return result

        admitted, shed = AdmissionController(self.max_queue).admit(submitted)
        for q in shed:
            result.answers[q.key] = QueryAnswer(math.inf, False, SHED)
            if obs is not None:
                obs.on_serve_query(SHED)

        shards = [
            admitted[i : i + self.checkpoint_every]
            for i in range(0, len(admitted), self.checkpoint_every)
        ]
        fingerprint = batch_fingerprint(
            self.graph, admitted, self.method, self.checkpoint_every
        )

        store = None
        completed: set[int] = set()
        if self.checkpoint_path is not None:
            store = CheckpointStore(self.checkpoint_path)
            if resume:
                completed = self._restore(store, fingerprint, shards, result)
        elif resume:
            raise ValueError("resume=True needs a checkpoint_path to resume from")

        self._pool = self.pool
        own_pool = self.backend == "process" and self._pool is None
        if own_pool:
            from ..parallel.pool import ProcessPool

            self._pool = ProcessPool(self.workers)
        try:
            for si, shard in enumerate(shards):
                if si in completed:
                    continue
                if obs is not None:
                    with obs.span("serve-shard"):
                        shard_results = self._process_shard(shard)
                else:
                    shard_results = self._process_shard(shard)
                for key, ans in shard_results.items():
                    result.answers[key] = ans
                    if obs is not None:
                        obs.on_serve_query(ans.outcome)
                completed.add(si)
                if store is not None:
                    self._checkpoint(store, fingerprint, shards, completed, result)
                    result.checkpoints_written += 1
        finally:
            # Segments must not outlive the run, even when a checkpoint
            # hook (the crash-simulation path) raises mid-batch.
            if own_pool:
                self._pool.close()
            self._pool = None

        result.breaker_states = self.breakers.states()
        result.details["num_shards"] = len(shards)
        result.details["num_searches"] = self._num_searches
        if self.verify:
            result.details["verification"] = dict(self._vcounts)
        return result

    # ------------------------------------------------------------------
    def _restore(
        self,
        store: CheckpointStore,
        fingerprint: dict,
        shards: list[list[ServeQuery]],
        result: PipelineResult,
    ) -> set[int]:
        """Fold a prior checkpoint into ``result``; completed shard ids.

        Resumed answers are *not* re-verified: the manifest's sidecar
        checksum already vouches for the stored distances, and they were
        verified (when ``verify``) before the checkpoint was written.  A
        checkpoint whose bytes fail that checksum is quarantined — every
        shard recomputes — never resumed.
        """
        try:
            loaded = store.load()
        except CheckpointCorrupt as exc:
            result.details["checkpoint_quarantined"] = str(exc)
            if self.observer is not None:
                self.observer.on_checkpoint("quarantined")
                self.observer.on_quarantine("checkpoint")
            return set()
        if loaded is None:
            return set()
        manifest, arrays = loaded
        store.verify_fingerprint(manifest, fingerprint)
        answered = {
            (int(s), int(t)): (float(d), bool(e))
            for s, t, d, e in zip(arrays["s"], arrays["t"], arrays["dist"], arrays["exact"])
        }
        outcomes = manifest.get("outcomes", {})
        completed = set(int(i) for i in manifest.get("completed_shards", ()))
        for si in completed:
            for q in shards[si]:
                # Checkpoints persist answers only: resumed queries
                # carry no certificate or path.
                result.answers[q.key] = QueryAnswer(
                    *answered[q.key], outcomes.get(f"{q.source}->{q.target}", OK)
                )
                result.resumed_queries += 1
        if self.observer is not None:
            self.observer.on_checkpoint("resume")
        return completed

    def _checkpoint(
        self,
        store: CheckpointStore,
        fingerprint: dict,
        shards: list[list[ServeQuery]],
        completed: set[int],
        result: PipelineResult,
    ) -> None:
        """Write one durable checkpoint covering every completed shard."""
        keys = [
            q.key for si in sorted(completed) for q in shards[si]
        ]
        manifest = {
            "fingerprint": fingerprint,
            "method": self.method,
            "checkpoint_every": self.checkpoint_every,
            "num_shards": len(shards),
            "completed_shards": sorted(completed),
            "outcomes": {
                f"{s}->{t}": result.answers[(s, t)].outcome for s, t in keys
            },
        }
        store.save(
            manifest,
            s=[k[0] for k in keys],
            t=[k[1] for k in keys],
            dist=[result.answers[k].distance for k in keys],
            exact=[result.answers[k].exact for k in keys],
        )
        if self.fault_injector is not None:
            # Chaos hook: models silent corruption of the durable bytes
            # *after* the write (bad disk); the checksum catches it on
            # resume and the pipeline quarantines the checkpoint.
            hook = getattr(self.fault_injector, "on_checkpoint_written", None)
            if hook is not None:
                hook(store)
        if self.observer is not None:
            self.observer.on_checkpoint("write")
        if self.checkpoint_hook is not None:
            # Fires *after* the durable write: a hook that raises models
            # a crash at exactly a checkpoint boundary.
            self.checkpoint_hook(manifest)

    # ------------------------------------------------------------------
    def _process_shard(self, shard: list[ServeQuery]) -> dict:
        """Execute one shard and verify its answers (when ``verify``)."""
        raw = self._run_shard(shard)
        if not self.verify:
            return raw
        return {k: self._verify_answer(k, ans) for k, ans in raw.items()}

    def _run_shard(self, shard: list[ServeQuery]) -> dict[tuple[int, int], QueryAnswer]:
        """Execute one shard -> one :class:`QueryAnswer` per key."""
        now = self._now()
        results: dict[tuple[int, int], QueryAnswer] = {}
        live: list[ServeQuery] = []
        for q in shard:
            if q.deadline is not None and q.deadline <= now:
                results[q.key] = QueryAnswer(math.inf, False, TIMEOUT)
                if self.observer is not None:
                    self.observer.on_deadline_miss()
            else:
                live.append(q)
        if not live:
            return results
        if self.method == "resilient":
            for q in live:
                results[q.key] = self._run_query_chain(q)
        else:
            results.update(self._run_shard_batch(live))
        return results

    def _shard_budget(self, live: list[ServeQuery]) -> Budget | None:
        """Base budget limits merged with the shard's earliest deadline."""
        deadlines = [q.deadline for q in live if q.deadline is not None]
        wall = None
        if deadlines:
            wall = max(min(deadlines) - self._now(), 0.0)
        base = self.budget
        if base is None and wall is None:
            return None
        if base is None:
            return Budget(wall_time=wall, clock=self._now)
        walls = [w for w in (base.wall_time, wall) if w is not None]
        return Budget(
            max_steps=base.max_steps,
            max_relaxations=base.max_relaxations,
            wall_time=min(walls) if walls else None,
            clock=base.clock if base.clock is not None else self._now,
        )

    def _run_shard_batch(self, live: list[ServeQuery]) -> dict:
        """One shard through the configured batch method, breaker-gated.

        The batch method's breaker counts *exceptions* (a budget trip is
        graceful degradation, not a failure).  While it is open — or
        when the shard's run raises — every query of the shard routes
        through the per-query resilient chain instead, whose rungs carry
        their own breakers.
        """
        results: dict[tuple[int, int], QueryAnswer] = {}
        board = self.breakers
        if board.allow(self.method):
            budget = self._shard_budget(live)
            backend_kwargs = {}
            if self.backend == "process" and budget is None:
                # Budgeted/deadline shards are single-process by nature;
                # those shards run serially, everything else goes to
                # the pool.
                backend_kwargs = {
                    "backend": "process", "pool": self._pool,
                    "shard_deadline": self.shard_deadline,
                }
            try:
                res = solve_batch(
                    self.graph,
                    [q.key for q in live],
                    method=self.method,
                    budget=budget,
                    fault_injector=self.fault_injector,
                    observer=self.observer,
                    certify=self.certify,
                    **backend_kwargs,
                )
            except Exception:  # noqa: BLE001 — shard failure must be contained
                board.record_failure(self.method)
            else:
                board.record_success(self.method)
                self._meter.merge(res.meter)
                self._num_searches += res.num_searches
                for q in live:
                    ans = res.answer(*q.key)
                    if self.collect_paths:
                        ans = replace(ans, path=self._batch_path(res, *q.key))
                    results[q.key] = ans
                return results
        for q in live:
            results[q.key] = self._run_query_chain(q)
        return results

    def _batch_path(self, res, s: int, t: int):
        """One query's path from a batch result, ``None`` when unavailable.

        Plain BiDS modes discard per-query search state (their serial
        ``path()`` raises ``NotImplementedError``), and unreachable or
        budget-truncated queries have no walkable tree — both simply
        yield ``None`` rather than failing the shard.
        """
        from ..core.paths import PathError

        try:
            return tuple(res.path(s, t))
        except (NotImplementedError, PathError, ValueError, KeyError, IndexError):
            return None

    def _run_query_chain(self, q: ServeQuery) -> QueryAnswer:
        """One query through the breaker-guarded resilient chain."""
        try:
            ans = resilient_ppsp(
                self.graph,
                q.source,
                q.target,
                methods=self.resilient_methods,
                budget=self._shard_budget([q]),
                retries=self.retries,
                retry_budget=self.retry_budget,
                breakers=self.breakers,
                fault_injector=self.fault_injector,
                observer=self.observer,
                certify=self.certify,
            )
        except Exception:  # noqa: BLE001 — one query must not kill the batch
            return QueryAnswer(math.inf, False, FAILED)
        cert = None
        path = None
        if ans.answer is not None:
            self._meter.merge(ans.answer.run.meter)
            cert = ans.answer.certificate
            if self.collect_paths and ans.reachable:
                from ..core.paths import PathError

                try:
                    path = tuple(ans.answer.path())
                except (NotImplementedError, PathError, ValueError,
                        KeyError, IndexError, AttributeError):
                    path = None
        return QueryAnswer.of(ans.distance, ans.exact, cert, path)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def _verify_answer(self, key: tuple[int, int], ans: QueryAnswer) -> QueryAnswer:
        """Check one answer before it is recorded; repair it if refuted.

        Three regimes:

        * **certified finite claims** — the checker validates the
          certificate in O(path + spot checks); an exact claim must come
          out ``proven == "exact"``, an inexact (budget-degraded) claim
          passes with an upper-bound proof;
        * **"unreachable" exact claims** (``inf``) — a certificate can
          never positively prove non-existence, so these are confirmed
          against an authoritative Dijkstra run;
        * **certificate-less finite exact claims** (e.g. the resilient
          chain's reference rung) — also confirmed authoritatively.

        Timed-out/failed queries carry no answer and are skipped; an
        inexact claim without a certificate is counted ``unproven`` but
        served (``inf`` is always a sound upper bound, and the engine
        path always certifies — this arises only for exotic rungs).
        """
        obs = self.observer
        counts = self._vcounts
        dist, exact, cert = ans.distance, ans.exact, ans.certificate
        if ans.outcome in (TIMEOUT, FAILED):
            return ans
        counts["checked"] += 1
        if exact and not math.isfinite(dist):
            # Unreachable claim: confirm with ground truth, never a cert.
            row = self._authoritative_row(*key)
            if not math.isfinite(float(row[key[1]])):
                counts["confirmed"] += 1
                if obs is not None:
                    obs.on_verify("confirmed")
                return ans
            counts["invalid"] += 1
            if obs is not None:
                obs.on_verify("invalid")
            return self._repair(key, row=row)
        if cert is None:
            if not exact:
                counts["unproven"] += 1
                if obs is not None:
                    obs.on_verify("unproven")
                return ans
            row = self._authoritative_row(*key)
            truth = float(row[key[1]])
            tol = 1e-6 * max(1.0, abs(truth)) if math.isfinite(truth) else 0.0
            if math.isfinite(truth) and abs(truth - dist) <= tol:
                counts["confirmed"] += 1
                if obs is not None:
                    obs.on_verify("confirmed")
                return ans
            counts["invalid"] += 1
            if obs is not None:
                obs.on_verify("invalid")
            return self._repair(key, row=row)
        report = self._checker.check(self.graph, cert, expected_distance=dist)
        ok = report.valid and (not exact or report.proven == "exact")
        if ok:
            counts["valid"] += 1
            if obs is not None:
                obs.on_verify("valid", checks=report.checks)
            return ans
        counts["invalid"] += 1
        if obs is not None:
            obs.on_verify("invalid", checks=report.checks)
        return self._repair(key)

    def _authoritative_row(self, source: int, target: int):
        """Ground-truth distances from ``source`` (target-pruned Dijkstra).

        The baseline early-stops once ``target`` settles; every vertex
        on a shortest ``source``→``target`` path settles first, so the
        row supports both the distance read and ``walk_path``.
        """
        from ..baselines.dijkstra import dijkstra

        return dijkstra(self.graph, int(source), target=int(target))

    def _repair(self, key: tuple[int, int], row=None) -> QueryAnswer:
        """Exact recompute for a refuted answer, then re-check.

        The repaired answer is itself certified (witness path from the
        Dijkstra row) and re-checked before being trusted; if even that
        fails — graph corrupted beyond repair — the query is surfaced as
        ``failed`` rather than served wrong.
        """
        from ..verify import build_certificate

        obs = self.observer
        s, t = key
        if row is None:
            row = self._authoritative_row(s, t)
        d = float(row[t])
        cert = build_certificate(
            self.graph, s, t, "dijkstra", d, True, dist_forward=row
        )
        report = self._checker.check(self.graph, cert, expected_distance=d)
        healed = report.valid and (report.proven == "exact" or not math.isfinite(d))
        if healed:
            self._vcounts["repaired"] += 1
            if obs is not None:
                obs.on_repair("repaired")
            path = None
            if self.collect_paths and math.isfinite(d):
                from ..core.paths import PathError, walk_path

                try:
                    path = tuple(walk_path(self.graph, row, s, t))
                except (PathError, ValueError, KeyError, IndexError):
                    path = None
            return QueryAnswer(d, True, REPAIRED, cert, path)
        self._vcounts["failed"] += 1
        if obs is not None:
            obs.on_repair("failed")
        return QueryAnswer(math.inf, False, FAILED)


def serve_batch(graph, queries, *, resume: bool = False, **kwargs) -> PipelineResult:
    """One-shot convenience wrapper: build a pipeline and run it.

    Keyword arguments are :class:`ServePipeline` parameters; ``resume``
    continues from the checkpoint at ``checkpoint_path`` when one
    exists.
    """
    return ServePipeline(graph, **kwargs).run(queries, resume=resume)
