"""Span recording for the traced run, kept in the benchmark's own files.

Spans are recorded only around calls into the program's layers, never
inside ``src/``.  Where the program has a hook, the hook is used: a
:class:`~repro.kernels.Kernel` subclass for ``kernel=``, heuristics
wrapped around :func:`~repro.heuristics.make_heuristic` for
``heuristic=``, a :class:`~repro.parallel.pool.ProcessPool` subclass for
``pool=``, and a :class:`~repro.verify.CertificateChecker` subclass for
``checker=``.  ``gather_relax`` and ``run_policy`` have no hook, so the
traced run replaces the imported name (:func:`patch`) and restores it
afterwards.

Every span records its name, start, end, parent span and request id.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro.heuristics import Heuristic
from repro.kernels import Kernel, get_kernel
from repro.parallel.pool import ProcessPool
from repro.verify import CertificateChecker

_now = time.perf_counter_ns


class Recorder:
    """In-memory span log plus named counters.

    A span's parent is the innermost open span on the same thread, and
    it inherits that span's request id unless it names its own.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._tls = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str, request: int | None = None) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        if stack:
            parent, parent_request = stack[-1]
        else:
            parent, parent_request = 0, -1
        request = parent_request if request is None else request
        stack.append((sid, request))
        return (sid, parent, request, name, _now())

    def close(self, token: tuple) -> int:
        """End the span; returns its duration in nanoseconds."""
        end = _now()
        self._stack().pop()
        sid, parent, request, name, start = token
        self.rows.append((sid, parent, request, name, start, end))
        return end - start

    @contextmanager
    def span(self, name: str, request: int | None = None):
        token = self.open(name, request)
        try:
            yield
        finally:
            self.close(token)

    def count(self, name: str, value: float = 1) -> None:
        # Counts are only ever written from one thread at a time: the
        # client loop, the service's dispatcher, or the replay.
        self.counts[name] = self.counts.get(name, 0) + value

    def reset(self) -> None:
        """Drop every span and count recorded so far."""
        self.rows.clear()
        self.counts.clear()

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total ms and self ms.

        Self time is a span's duration minus the time its child spans
        cover; children run on their parent's thread, one after the
        other, so their durations add up without overlap.
        """
        child_ns: dict[int, int] = {}
        for sid, parent, _req, _name, start, end in self.rows:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, _req, name, start, end in self.rows:
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - child_ns.get(sid, 0)) / 1e6
        return out

    def write(self, path: str) -> None:
        """Write every span as columns of one ``.npz`` file."""
        names = sorted({row[3] for row in self.rows})
        code = {name: i for i, name in enumerate(names)}
        rows = self.rows
        np.savez_compressed(
            path,
            span_id=np.array([r[0] for r in rows], dtype=np.int64),
            parent_id=np.array([r[1] for r in rows], dtype=np.int64),
            request_id=np.array([r[2] for r in rows], dtype=np.int64),
            name_code=np.array([code[r[3]] for r in rows], dtype=np.int32),
            start_ns=np.array([r[4] for r in rows], dtype=np.int64),
            end_ns=np.array([r[5] for r in rows], dtype=np.int64),
            names=np.array(names),
        )


def count_steps(rec: Recorder, step_trace) -> None:
    """Fold one ``StepTrace`` into the frontier, policy and engine counts."""
    records = step_trace.records
    rec.count("frontier.extracted", sum(r.extracted for r in records))
    rec.count("frontier.peak", step_trace.peak_frontier())
    rec.count("policy.pruned", step_trace.total_pruned())
    rec.count("engine.improved", sum(r.improved for r in records))
    rec.count("engine.relaxed_edges", sum(r.relaxed_edges for r in records))


# ----------------------------------------------------------------------
# Hooks
# ----------------------------------------------------------------------
class TracedKernel(Kernel):
    """The default kernel, with a span and counters per ``scatter_min``."""

    def __init__(self, rec: Recorder) -> None:
        super().__init__(get_kernel(None).impl)
        self.rec = rec

    def scatter_min(self, dist, targets, values):
        token = self.rec.open("kernels.scatter_min")
        out = super().scatter_min(dist, targets, values)
        self.rec.close(token)
        self.rec.count("kernels.scatter_elements", len(targets))
        self.rec.count("kernels.bytes", targets.nbytes + values.nbytes + out.nbytes)
        return out


class TracedHeuristic(Heuristic):
    """Times every evaluation of a heuristic built by ``make_heuristic``.

    ``calls`` and ``evaluated`` read through to the wrapped heuristic,
    so the policies charge exactly the work they charge untraced.
    """

    def __init__(self, inner: Heuristic, rec: Recorder) -> None:
        self.inner = inner
        self.rec = rec

    @property
    def calls(self) -> int:
        return self.inner.calls

    @property
    def evaluated(self) -> int:
        return self.inner.evaluated

    def __call__(self, vertices):
        token = self.rec.open("heuristics.eval")
        out = self.inner(vertices)
        self.rec.close(token)
        return out


class TracedPool(ProcessPool):
    """A process pool that times ``open``, ``share`` and ``run_shards``.

    Shard tasks and results are only referenced during the timed part;
    their pickled sizes are measured afterwards (:meth:`pickled_bytes`)
    so the measurement adds no time to the batches.
    """

    def __init__(self, workers: int, rec: Recorder) -> None:
        super().__init__(workers)
        self.rec = rec
        self.shipped: list[tuple[list, list]] = []

    def open(self):
        with self.rec.span("pool.open"):
            return super().open()

    def share(self, graph):
        with self.rec.span("pool.share"):
            return super().share(graph)

    def run_shards(self, tasks, **kwargs):
        token = self.rec.open("pool.run_shards")
        results = super().run_shards(tasks, **kwargs)
        self.rec.close(token)
        self.shipped.append((tasks, results))
        return results

    def pickled_bytes(self) -> tuple[int, int]:
        """Total pickled (task, result) bytes over every shipped batch."""
        import pickle

        task_bytes = result_bytes = 0
        for tasks, results in self.shipped:
            task_bytes += sum(len(pickle.dumps(t)) for t in tasks)
            result_bytes += sum(len(pickle.dumps(r)) for r in results)
        return task_bytes, result_bytes


class TracedChecker(CertificateChecker):
    """The default certificate checker, with a span and counts per check."""

    def __init__(self, rec: Recorder) -> None:
        super().__init__()
        self.rec = rec

    def check(self, graph, cert, *, expected_distance=None):
        token = self.rec.open("verify.check")
        report = super().check(graph, cert, expected_distance=expected_distance)
        self.rec.close(token)
        self.rec.count("verify.calls")
        self.rec.count("verify.checks", report.checks)
        self.rec.count("verify.valid", bool(report.valid))
        return report


# ----------------------------------------------------------------------
# Wrapping names that have no hook
# ----------------------------------------------------------------------
@contextmanager
def patch(module, attr: str, make_wrapper):
    """Replace ``module.attr`` with ``make_wrapper(original)`` for a block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def traced_gather(rec: Recorder):
    """Wrapper factory for ``repro.core.engine.gather_relax``."""

    def make(original):
        def gather_relax(graph, eids, v, src_off, dist, *, scratch):
            token = rec.open("kernels.gather_relax")
            te, new_d, edges = original(graph, eids, v, src_off, dist, scratch=scratch)
            rec.close(token)
            rec.count("kernels.gather_edges", edges)
            # Inputs eids, v, src_off; one CSR (index, weight) read per
            # edge; outputs te and new_d.
            rec.count(
                "kernels.bytes",
                eids.nbytes + v.nbytes + src_off.nbytes
                + edges * (graph.indices.itemsize + graph.weights.itemsize)
                + te.nbytes + new_d.nbytes,
            )
            return te, new_d, edges

        return gather_relax

    return make


def traced_run_policy(rec: Recorder):
    """Wrapper factory for ``run_policy`` as ``ppsp``/``solve_batch`` import it.

    An engine run whose caller chose no kernel gets a fresh
    :class:`TracedKernel` through ``kernel=``, as an untraced run gets a
    fresh default kernel.
    """

    def make(original):
        def run_policy(graph, policy, **kwargs):
            if kwargs.get("kernel") is None:
                kwargs["kernel"] = TracedKernel(rec)
            token = rec.open("engine.run_policy")
            result = original(graph, policy, **kwargs)
            rec.close(token)
            rec.count("engine.steps", result.steps)
            rec.count("engine.relaxations", result.relaxations)
            return result

        return run_policy

    return make
