"""Chaos: a pool worker stalls mid-shard (never killed); serving survives.

The sibling of ``test_pool_chaos.py``: instead of SIGKILLing a worker
(loud — ``BrokenProcessPool`` fires immediately), the injector wedges
one with a long in-shard sleep, which ``concurrent.futures`` cannot
detect at all.  Without a deadline that hangs the batch for the full
stall; with one it must not:

* **batch layer** — across every batch method and 1/2/4 workers, the
  batch deadline raises ``ShardTimeout`` well under the stall and
  quarantines the workers exactly once, and the next batch on the
  respawned pool is byte-identical to serial;
* **pipeline and service** — the timed-out shard is re-answered
  exactly through the breaker / resilient chain, verification
  included, with zero stuck futures and bounded wall time.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import dijkstra
from repro.core.batch import BATCH_METHODS, solve_batch
from repro.graphs import road_graph
from repro.graphs.connectivity import largest_component
from repro.obs import Observer
from repro.parallel.pool import ProcessPool, ShardTimeout
from repro.robustness import FaultInjector
from repro.serve import QueryService, ServePipeline
from tests.test_conformance import batch_key

pytestmark = pytest.mark.stall

#: the injected in-shard sleep; every run must finish well under it.
STALL_S = 8.0
SHARD_DEADLINE_S = 1.5


@pytest.fixture(scope="module")
def instance():
    graph = road_graph(8, 8, seed=7, name="stall-road")
    lcc = [int(v) for v in largest_component(graph)]
    pairs = [(lcc[i], lcc[len(lcc) - 1 - i]) for i in range(8)]
    return graph, pairs


@pytest.fixture(scope="module")
def truth(instance):
    graph, pairs = instance
    return {(s, t): float(dijkstra(graph, s)[t]) for s, t in pairs}


def _stall_injector(seed=1):
    return FaultInjector(
        seed=seed, stall_worker_at=0, stall_worker_seconds=STALL_S
    )


def _assert_timed_out_and_quarantined(obs):
    reg = obs.registry
    assert reg.get("repro_pool_shard_timeouts_total").value() >= 1
    assert (
        reg.get("repro_pool_suspect_workers_total").value(reason="deadline")
        >= 1
    )


@pytest.fixture(scope="module", params=(1, 2, 4), ids=lambda w: f"w{w}")
def pool_workers(request):
    return request.param


class TestStalledShardMatrix:
    @pytest.mark.parametrize("method", BATCH_METHODS)
    def test_deadline_beats_stall_then_respawned_pool_matches_serial(
        self, instance, method, pool_workers
    ):
        """Every batch method x worker count: the deadline times the
        stalled batch out in well under the stall, quarantines once, and
        the respawned pool answers the next batch byte for byte like
        serial."""
        graph, pairs = instance
        serial = solve_batch(graph, pairs, method=method)
        obs = Observer()
        with ProcessPool(pool_workers, observer=obs) as pool:
            start = time.perf_counter()
            with pytest.raises(ShardTimeout):
                solve_batch(
                    graph, pairs, method=method, backend="process", pool=pool,
                    fault_injector=_stall_injector(),
                    shard_deadline=SHARD_DEADLINE_S,
                )
            wall = time.perf_counter() - start
            assert pool.quarantines == 1
            res = solve_batch(
                graph, pairs, method=method, backend="process", pool=pool,
                shard_deadline=STALL_S,
            )
            assert pool.quarantines == 1
            assert pool.respawns == 1
        assert wall < STALL_S / 2, f"deadline did not bound the hang ({wall:.1f}s)"
        assert batch_key(res, pairs) == batch_key(serial, pairs)
        reg = obs.registry
        assert reg.get("repro_pool_shard_timeouts_total").value() == 1
        assert (
            reg.get("repro_pool_suspect_workers_total").value(reason="deadline")
            == 1
        )


class TestPipelineRecovery:
    def test_pipeline_recovers_through_resilient_chain(self, instance, truth):
        """The deadline fires, the breaker/per-query chain re-answers
        everything exactly."""
        graph, pairs = instance
        obs = Observer()
        pipe = ServePipeline(
            graph, method="multi", backend="process", workers=2,
            shard_deadline=SHARD_DEADLINE_S,
            fault_injector=_stall_injector(),
            observer=obs,
        )
        start = time.perf_counter()
        res = pipe.run(pairs)
        wall = time.perf_counter() - start
        assert wall < STALL_S - 1.0, f"recovery waited out the stall ({wall:.1f}s)"
        assert "failed" not in res.counts()
        for s, t in pairs:
            assert res.distance(s, t) == pytest.approx(truth[(s, t)], rel=1e-12)
        _assert_timed_out_and_quarantined(obs)

    def test_verified_pipeline_recovers_with_valid_certificates(
        self, instance, truth
    ):
        """The same stall under a verifying pipeline: the re-answered
        shard passes verification, nothing is repaired or failed."""
        graph, pairs = instance
        obs = Observer()
        pipe = ServePipeline(
            graph, method="multi", backend="process", workers=2, verify=True,
            shard_deadline=SHARD_DEADLINE_S,
            fault_injector=_stall_injector(),
            observer=obs,
        )
        start = time.perf_counter()
        res = pipe.run(pairs)
        wall = time.perf_counter() - start
        assert wall < STALL_S - 1.0, f"recovery waited out the stall ({wall:.1f}s)"
        assert res.counts() == {"ok": len(pairs)}
        for s, t in pairs:
            assert res.distance(s, t) == pytest.approx(truth[(s, t)], rel=1e-12)
        verification = res.details["verification"]
        assert verification["failed"] == 0
        assert verification["invalid"] == 0
        _assert_timed_out_and_quarantined(obs)


class TestQueryServiceRecovery:
    def test_service_times_out_and_recovers(self, instance, truth):
        """A worker stalls under the live service: the shard deadline
        fires (no hang), every future resolves, and the breaker /
        resilient chain answers everything exactly."""
        graph, pairs = instance
        obs = Observer()
        start = time.perf_counter()
        with QueryService(
            graph, method="multi", max_batch=len(pairs), max_wait_ms=20.0,
            backend="process", workers=2, observer=obs,
            shard_deadline=SHARD_DEADLINE_S,
            fault_injector=_stall_injector(),
        ) as svc:
            svc.start()
            futures = [svc.submit(s, t) for s, t in pairs]
        wall = time.perf_counter() - start
        assert wall < STALL_S - 1.0, f"recovery waited out the stall ({wall:.1f}s)"
        assert all(f.done() for f in futures), "stuck ServiceFuture"
        for f, (s, t) in zip(futures, pairs):
            res = f.result(timeout=0)
            assert res.outcome == "ok"
            assert res.distance == pytest.approx(truth[(s, t)], rel=1e-12)
        _assert_timed_out_and_quarantined(obs)
