"""The serve layer: a fault-tolerant batch execution pipeline.

What :mod:`repro.robustness` does for one query, this package does for
a *batch job*: checkpoint/resume so a crash loses no answered query,
per-query deadlines with graceful ``exact=False`` degradation,
per-method circuit breakers with half-open recovery, explicit
load shedding under queue pressure, and (``verify=True``) an answer
verification stage that checks every result's certificate and repairs
refuted answers with an exact recompute before they are returned.  See
``docs/robustness.md`` for the full story (checkpoint file format,
breaker state machine, certificate semantics) and ``repro serve-batch``
for the CLI entry point.

>>> from repro.serve import serve_batch
>>> res = serve_batch(graph, pairs, method="multi",
...                   checkpoint_path="job.ckpt.json", checkpoint_every=32)
>>> res.counts()          # {'ok': 120}
>>> # kill -9 mid-run, then:
>>> res = serve_batch(graph, pairs, method="multi", resume=True,
...                   checkpoint_path="job.ckpt.json", checkpoint_every=32)

For a *stream* of queries rather than a pre-assembled batch, the
:class:`~repro.serve.service.QueryService` micro-batcher coalesces
individual submissions into right-sized batches over a persistent warm
worker pool and resolves each one as a future — see ``repro serve`` and
the service section of ``docs/robustness.md``.  It sheds a new
submission at the door once its oldest queued query has waited longer
than :data:`~repro.serve.service.SHED_AFTER_S`.

A stalled pool worker cannot hang a batch: ``shard_deadline`` times
out a batch run on the caller's ``pool``, the pool quarantines its
workers, and the pipeline re-answers the shard through its breaker and
resilient chain, which runs each rung once.
"""

from .admission import (
    FAILED,
    INEXACT,
    OK,
    OUTCOMES,
    REPAIRED,
    SHED,
    TIMEOUT,
    ServeQuery,
    admit,
)
from .breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard, CircuitBreaker
from .checkpoint import CheckpointCorrupt, CheckpointStore, batch_fingerprint
from .pipeline import SERVE_METHODS, PipelineResult, ServePipeline, serve_batch
from .service import (
    FLUSH_REASONS,
    SHED_AFTER_S,
    QueryService,
    ServiceClosed,
    ServiceFuture,
    ServiceResult,
)

__all__ = [
    "serve_batch",
    "ServePipeline",
    "PipelineResult",
    "SERVE_METHODS",
    "QueryService",
    "ServiceFuture",
    "ServiceResult",
    "ServiceClosed",
    "FLUSH_REASONS",
    "SHED_AFTER_S",
    "ServeQuery",
    "admit",
    "CheckpointStore",
    "CheckpointCorrupt",
    "batch_fingerprint",
    "CircuitBreaker",
    "BreakerBoard",
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "OK",
    "INEXACT",
    "SHED",
    "TIMEOUT",
    "FAILED",
    "REPAIRED",
    "OUTCOMES",
]
