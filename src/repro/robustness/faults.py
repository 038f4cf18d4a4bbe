"""Deterministic fault injection for chaos-testing the PPSP stack.

A :class:`FaultInjector` plugs into the engine at fixed hook points and
corrupts a run in controlled, seedable ways:

* ``corrupt_dist_at``   — raise tentative distances (breaks write_min
  monotonicity; the auditor's ``dist-increase`` check must fire);
* ``corrupt_mu_at``     — shrink the policy's μ below any witnessed path
  (breaks Thm. 3.3 soundness; ``mu-unwitnessed`` must fire);
* ``drop_frontier_at``  — silently discard frontier elements (lost work;
  ``frontier-drop`` must fire);
* ``perturb_heuristic`` — wrap A*/BiD-A* heuristics with positive noise
  (inadmissible; ``heuristic-endpoint``/``heuristic-inconsistent`` must
  fire);
* ``raise_at``          — raise an :class:`InjectedFault` (transient or
  permanent), which the :func:`~repro.robustness.resilient.resilient_ppsp`
  fallback chain must absorb;
* ``stall_at``          — inject per-step latency in *simulated* time:
  from the given step on, every step advances the injector's
  :class:`~repro.robustness.clock.SimClock` by ``stall_seconds`` instead
  of sleeping, so wall-time budgets, per-query deadlines, and circuit
  breakers are testable deterministically (a straggler in fast-forward).

Bit-flip classes (PR 6) model *silent data corruption* — the memory or
storage fault that motivates answer certificates.  Each flips one high
mantissa/exponent bit of a finite float64 (bits 44–62, never the sign),
so the damage is material in either direction (value shrinks, explodes,
or becomes inf/nan) but stays a legal float:

* ``flip_dist_at``          — flip bits of tentative distances inside a
  run (``on_step_start``), producing silently wrong final answers;
* ``flip_checkpoint``       — flip one byte of a just-written serve
  checkpoint sidecar (``on_checkpoint_written``), corrupting durable
  state a resume would otherwise trust.

``kill_worker_at`` targets the process-pool backend instead of the
engine: the worker running the given task index (a batch's units are
cut, in plan order, into tasks of consecutive units) SIGKILLs itself
mid-task, modeling an OOM-killed or segfaulted worker process that the
pool must surface as a batch failure.  ``stall_worker_at`` is its
wedged-but-alive sibling: the worker sleeps ``stall_worker_seconds`` of
real wall time mid-task — invisible to ``BrokenProcessPool``
detection, recoverable only by the batch deadline
(:meth:`repro.parallel.pool.ProcessPool.run_shards`).

Every decision flows from one seeded RNG plus hash-based per-vertex
noise, so a chaos run is exactly reproducible from its seed.  Injection
stops after ``max_fires`` faults, which is how "transient" failures are
modeled: fire once, then behave.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FaultInjector", "InjectedFault"]

# Knuth multiplicative hash constant: cheap deterministic per-vertex noise.
_HASH = 2654435761


class InjectedFault(RuntimeError):
    """An artificial failure raised by :class:`FaultInjector`.

    ``transient=True`` marks failures that a retry may survive (the
    injector disarms after ``max_fires``); the fallback chain retries
    those on the same rung and skips straight to the next rung otherwise.
    """

    def __init__(self, message: str, *, transient: bool = True) -> None:
        super().__init__(message)
        self.transient = transient


class _PerturbedHeuristic:
    """Wrap a heuristic with deterministic positive per-vertex noise.

    The noise depends only on the vertex id, so repeated evaluations
    agree (the corruption is in the *values*, not flakiness) — exactly
    the failure mode of a unit-mismatched or stale landmark table.
    """

    def __init__(self, inner, scale: float) -> None:
        self.inner = inner
        self.scale = float(scale)

    @property
    def evaluated(self) -> int:
        return self.inner.evaluated

    @property
    def calls(self) -> int:
        return self.inner.calls

    def __call__(self, vertices: np.ndarray) -> np.ndarray:
        vertices = np.asarray(vertices)
        noise = ((vertices.astype(np.uint64) * _HASH) % 1024).astype(np.float64) / 1024.0
        return self.inner(vertices) + self.scale * noise


class FaultInjector:
    """Seedable corruption source wired into the engine's step loop.

    All ``*_at`` parameters are engine step indices (0-based); ``None``
    disables that fault class.  ``max_fires`` bounds the total number of
    injected faults across the injector's lifetime — shared across runs,
    so a fallback chain's retry sees a clean re-execution once the
    injector is spent.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        corrupt_dist_at: int | None = None,
        corrupt_dist_count: int = 1,
        corrupt_scale: float = 10.0,
        corrupt_mu_at: int | None = None,
        mu_factor: float = 0.25,
        drop_frontier_at: int | None = None,
        drop_fraction: float = 0.5,
        perturb_heuristic: bool = False,
        perturb_scale: float = 100.0,
        raise_at: int | None = None,
        transient: bool = True,
        stall_at: int | None = None,
        stall_seconds: float = 0.05,
        flip_dist_at: int | None = None,
        flip_dist_count: int = 1,
        flip_checkpoint: bool = False,
        kill_worker_at: int | None = None,
        stall_worker_at: int | None = None,
        stall_worker_seconds: float = 1.0,
        clock=None,
        max_fires: int = 1,
    ) -> None:
        self.rng = np.random.default_rng(seed)
        self.corrupt_dist_at = corrupt_dist_at
        self.corrupt_dist_count = int(corrupt_dist_count)
        self.corrupt_scale = float(corrupt_scale)
        self.corrupt_mu_at = corrupt_mu_at
        self.mu_factor = float(mu_factor)
        self.drop_frontier_at = drop_frontier_at
        self.drop_fraction = float(drop_fraction)
        self.perturb_heuristic = perturb_heuristic
        self.perturb_scale = float(perturb_scale)
        self.raise_at = raise_at
        self.transient = transient
        self.stall_at = stall_at
        self.stall_seconds = float(stall_seconds)
        self.flip_dist_at = flip_dist_at
        self.flip_dist_count = int(flip_dist_count)
        self.flip_checkpoint = bool(flip_checkpoint)
        self.kill_worker_at = kill_worker_at
        self.stall_worker_at = stall_worker_at
        self.stall_worker_seconds = float(stall_worker_seconds)
        #: the SimClock (anything with ``advance``) that stall faults
        #: push forward; stalls are inert without one.
        self.clock = clock
        self.max_fires = int(max_fires)
        #: chronological record of (step, fault-kind) injections.
        self.fired: list[tuple[int, str]] = []

    # ------------------------------------------------------------------
    def _armed(self) -> bool:
        return len(self.fired) < self.max_fires

    def _record(self, step: int, kind: str) -> None:
        self.fired.append((step, kind))

    def has_engine_faults(self) -> bool:
        """Whether any fault class acts inside an engine run.

        Those faults draw on this injector's seeded RNG and step
        indices, so a copy shipped to pool workers would fire different
        faults than the serial run.  The pool-level worker faults and
        the parent-side ``flip_checkpoint`` never enter an engine run
        and do not count.
        """
        steps = (self.corrupt_dist_at, self.corrupt_mu_at, self.drop_frontier_at,
                 self.raise_at, self.stall_at, self.flip_dist_at)
        return bool(self.perturb_heuristic) or any(s is not None for s in steps)

    def _flip_bits(self, value: float) -> float:
        """XOR one high mantissa/exponent bit of a finite float64.

        Bits 44–62 keep the corruption material (relative error >= ~1e-4
        up to inf/nan) while leaving the sign alone — a negative
        distance would be caught by trivial range checks, which is not
        the failure mode certificates exist for.
        """
        if not np.isfinite(value):
            return float(value)
        bit = int(self.rng.integers(44, 63))
        raw = np.float64(value).view(np.uint64)
        return float((raw ^ np.uint64(1 << bit)).view(np.float64))

    # -- engine hooks ---------------------------------------------------
    def on_bind(self, policy, graph) -> None:
        """Called once per run after ``policy.bind``; may corrupt state."""
        if not (self.perturb_heuristic and self._armed()):
            return
        wrapped = False
        if getattr(policy, "heuristic", None) is not None:
            policy.heuristic = _PerturbedHeuristic(policy.heuristic, self.perturb_scale)
            wrapped = True
        for attr in ("h_s", "h_t"):
            if getattr(policy, attr, None) is not None:
                setattr(policy, attr, _PerturbedHeuristic(getattr(policy, attr), self.perturb_scale))
                wrapped = True
        if wrapped:
            self._record(-1, "perturb-heuristic")

    def on_step_start(self, step: int, dist: np.ndarray, frontier, policy) -> None:
        """Called at the top of each engine step (before extraction)."""
        if (
            self.stall_at is not None
            and step >= self.stall_at
            and self.clock is not None
            and self._armed()
        ):
            # One stall per step from stall_at on; max_fires bounds the
            # straggler's total injected latency.
            self.clock.advance(self.stall_seconds)
            self._record(step, "stall")
        if self.raise_at == step and self._armed():
            self._record(step, "raise")
            raise InjectedFault(
                f"injected {'transient' if self.transient else 'permanent'} "
                f"fault at step {step}",
                transient=self.transient,
            )
        if self.corrupt_dist_at == step and self._armed():
            finite = np.flatnonzero(np.isfinite(dist))
            if len(finite):
                k = min(self.corrupt_dist_count, len(finite))
                victims = self.rng.choice(finite, size=k, replace=False)
                dist[victims] = dist[victims] * self.corrupt_scale + 1.0
                self._record(step, "corrupt-dist")
        if self.flip_dist_at is not None and step >= self.flip_dist_at and self._armed():
            # Bit-flip corruption keeps trying from its step on: early
            # steps may have no strictly positive finite entries yet.
            finite = np.flatnonzero(np.isfinite(dist) & (dist > 0))
            if len(finite):
                k = min(self.flip_dist_count, len(finite))
                victims = self.rng.choice(finite, size=k, replace=False)
                for e in victims:
                    dist[e] = self._flip_bits(dist[e])
                self._record(step, "flip-dist")
        if self.corrupt_mu_at == step and self._armed():
            mu = getattr(policy, "mu", None)
            if mu is not None and np.isfinite(mu) and np.ndim(mu) == 0 and mu > 0:
                policy.mu = float(mu) * self.mu_factor
                self._record(step, "corrupt-mu")

    def on_step_end(self, step: int, dist: np.ndarray, frontier, policy) -> None:
        """Called after the step's frontier update (before the audit)."""
        if self.drop_frontier_at == step and self._armed():
            ids = frontier.ids()
            if len(ids):
                k = max(1, int(len(ids) * self.drop_fraction))
                victims = self.rng.choice(len(ids), size=k, replace=False)
                keep = np.delete(ids, victims)
                frontier.replace(keep, assume_sorted=True)
                self._record(step, "drop-frontier")

    # -- process-pool hooks ---------------------------------------------
    def take_worker_kill(self, task_index: int) -> bool:
        """Should the worker executing task ``task_index`` be SIGKILLed?

        Consulted by :mod:`repro.parallel.pool` before dispatching each
        task of a batch; a ``True`` return makes the worker process
        kill itself (``SIGKILL`` — no cleanup, no exception) partway
        through the task, modeling an OOM-killed or crashed worker.
        Fires at most once per ``max_fires``, like every other fault
        class.
        """
        if self.kill_worker_at == task_index and self._armed():
            self._record(task_index, "kill-worker")
            return True
        return False

    def take_worker_stall(self, task_index: int) -> float | None:
        """Seconds the worker executing task ``task_index`` should sleep, or None.

        The pool-level sibling of ``kill_worker_at``, but the worker
        stays *alive*: it sleeps ``stall_worker_seconds`` of real wall
        time halfway through its task — a wedged worker the executor
        cannot detect (no ``BrokenProcessPool``), which is the failure
        mode the batch deadline exists for.  Fires at most once per
        ``max_fires``.
        """
        if self.stall_worker_at == task_index and self._armed():
            self._record(task_index, "stall-worker")
            return self.stall_worker_seconds
        return None

    # -- storage hooks --------------------------------------------------
    def on_checkpoint_written(self, store) -> None:
        """Maybe flip one byte of a just-written checkpoint sidecar.

        Called by :class:`~repro.serve.ServePipeline` after each
        checkpoint save; corrupts the durable .npz bytes in place, the
        way a bad disk or torn write would.  The store's checksum (and
        failing that, np.load itself) must catch it on resume.
        """
        if not (self.flip_checkpoint and self._armed()):
            return
        try:
            with open(store.sidecar, "rb") as fh:
                blob = bytearray(fh.read())
        except OSError:
            return
        if not blob:
            return
        pos = int(self.rng.integers(len(blob)))
        blob[pos] ^= 0xFF
        with open(store.sidecar, "wb") as fh:
            fh.write(bytes(blob))
        self._record(-1, "flip-checkpoint")
