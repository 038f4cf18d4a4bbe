"""Chaos: a pool worker stalls mid-shard (never killed); serving survives.

The sibling of ``test_pool_chaos.py``: instead of SIGKILLing a worker
(loud — ``BrokenProcessPool`` fires immediately), the injector wedges
one with a long in-shard sleep, which ``concurrent.futures`` cannot
detect at all.  Without supervision that hangs the batch for the full
stall; with PR 9's straggler defenses it must not:

* **hedged** — a backup copy of the stalled shard launches after the
  hedge delay and wins the race; answers stay *bit-identical* to
  serial, the batch completes in a small fraction of the stall, and
  the wedged primary is quarantined (killed + respawned), never waited
  on.
* **hedging disabled** — the per-shard deadline times the shard out
  (no hang), quarantines the workers, and the serve pipeline recovers
  every query through its breaker / resilient chain.

Both properties are asserted across every batch method and 1/2/4
workers, and end-to-end through :class:`QueryService` (the issue's
acceptance scenario: zero stuck futures, zero silent wrong answers,
bounded wall time).
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import dijkstra
from repro.core.batch import BATCH_METHODS, solve_batch
from repro.graphs import road_graph
from repro.graphs.connectivity import largest_component
from repro.obs import Observer
from repro.parallel.pool import ProcessPool
from repro.robustness import FaultInjector
from repro.serve import HedgePolicy, ServePipeline, ShardTimeout

pytestmark = pytest.mark.hedge

#: the injected in-shard sleep; every run must finish well under it.
STALL_S = 8.0
#: generous hedged-run wall bound — hedge fires at ~0.3 s, so finishing
#: in under half the stall proves nobody waited the stall out.
HEDGED_WALL_S = 4.0
SHARD_DEADLINE_S = 6.0
#: cold-start hedge delay, kept small so suite wall time stays low.
HEDGE = HedgePolicy(initial_delay_s=0.3)


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


@pytest.fixture(scope="module", params=(1, 2, 4), ids=lambda w: f"w{w}")
def pool_workers(request):
    return request.param


class TestStalledShardMatrix:
    @pytest.mark.parametrize("method", BATCH_METHODS)
    def test_hedge_outruns_stall_bit_identical(
        self, instance, method, pool_workers
    ):
        """Every batch method x worker count: the hedged batch beats the
        stall by a wide margin and matches serial bit for bit."""
        graph, pairs = instance
        serial = solve_batch(graph, pairs, method=method)
        obs = Observer()
        start = time.perf_counter()
        with ProcessPool(pool_workers, observer=obs) as pool:
            res = solve_batch(
                graph, pairs, method=method, backend="process", pool=pool,
                fault_injector=_stall_injector(),
                shard_deadline=SHARD_DEADLINE_S, hedge=HEDGE,
            )
            wall = time.perf_counter() - start
            quarantines = pool.quarantines
        assert wall < HEDGED_WALL_S, f"stall was waited out ({wall:.1f}s)"
        assert res.distances == serial.distances  # bitwise, not approx
        assert res.exact == serial.exact
        reg = obs.registry
        assert reg.get("repro_hedge_launched_total").value() >= 1
        assert reg.get("repro_hedge_races_total").value(winner="hedge") >= 1
        # the wedged primary was quarantined, not waited for
        assert quarantines >= 1


class TestDeadlineWithoutHedging:
    def test_shard_timeout_raised_not_hung(self, instance):
        graph, pairs = instance
        obs = Observer()
        start = time.perf_counter()
        with ProcessPool(2, observer=obs) as pool:
            with pytest.raises(ShardTimeout):
                solve_batch(
                    graph, pairs, method="multi", backend="process",
                    pool=pool, fault_injector=_stall_injector(),
                    shard_deadline=1.5,
                )
            wall = time.perf_counter() - start
            assert pool.quarantines == 1
        assert wall < STALL_S / 2, f"deadline did not bound the hang ({wall:.1f}s)"
        reg = obs.registry
        assert reg.get("repro_pool_shard_timeouts_total").value() == 1
        assert (
            reg.get("repro_pool_suspect_workers_total").value(reason="deadline")
            == 1
        )

    def test_pipeline_recovers_through_resilient_chain(self, instance, truth):
        """The acceptance scenario's second half: deadline fires, the
        breaker/per-query chain re-answers everything exactly."""
        graph, pairs = instance
        obs = Observer()
        pipe = ServePipeline(
            graph, method="multi", backend="process", workers=2,
            shard_deadline=1.5,
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
        reg = obs.registry
        assert reg.get("repro_pool_shard_timeouts_total").value() >= 1
        assert (
            reg.get("repro_pool_suspect_workers_total").value(reason="deadline")
            >= 1
        )


class TestVerifyingPipeline:
    def test_hedged_verified_run_matches_serial(self, instance, truth):
        """Stall under a verifying pipeline with hedging: bit-identical
        to the serial pipeline, every certificate valid."""
        graph, pairs = instance
        reference = ServePipeline(graph, method="multi", verify=True).run(pairs)
        obs = Observer()
        pipe = ServePipeline(
            graph, method="multi", backend="process", workers=2, verify=True,
            shard_deadline=SHARD_DEADLINE_S, hedge=HEDGE,
            fault_injector=_stall_injector(),
            observer=obs,
        )
        start = time.perf_counter()
        res = pipe.run(pairs)
        wall = time.perf_counter() - start
        assert wall < HEDGED_WALL_S
        assert "failed" not in res.counts()
        # hedge preserved the clean path: bitwise equal, not an ulp off
        assert res.distances == reference.distances
        assert {k: a.exact for k, a in res.answers.items()} == {
            k: a.exact for k, a in reference.answers.items()
        }
        verification = res.details["verification"]
        assert verification["failed"] == 0
        assert verification["invalid"] == 0
        assert obs.registry.get("repro_hedge_races_total").value(winner="hedge") >= 1


class TestQueryServiceAcceptance:
    def test_hedged_service_zero_stuck_futures(self, instance, truth):
        """The issue's headline acceptance: a worker stalls mid-shard
        under the live service — at least one hedge win, every future
        resolves, answers equal serial, wall bounded."""
        from repro.serve import QueryService

        graph, pairs = instance
        serial = solve_batch(graph, pairs, method="multi")
        obs = Observer()
        start = time.perf_counter()
        with QueryService(
            graph, method="multi", max_batch=len(pairs), max_wait_ms=20.0,
            backend="process", workers=2, observer=obs,
            shard_deadline=SHARD_DEADLINE_S, hedge=HEDGE,
            fault_injector=_stall_injector(),
        ) as svc:
            svc.start()
            futures = [svc.submit(s, t) for s, t in pairs]
        wall = time.perf_counter() - start
        assert wall < HEDGED_WALL_S, f"service waited out the stall ({wall:.1f}s)"
        assert all(f.done() for f in futures), "stuck ServiceFuture"
        for f, (s, t) in zip(futures, pairs):
            res = f.result(timeout=0)
            assert res.outcome == "ok"
            assert res.distance == serial.distances[(s, t)]  # bitwise
        assert obs.registry.get("repro_hedge_races_total").value(winner="hedge") >= 1

    def test_unhedged_service_times_out_and_recovers(self, instance, truth):
        """Hedging off: the same stall hits the shard deadline (no
        hang) and the service still answers everything exactly via the
        breaker/resilient chain, counting the quarantine."""
        from repro.serve import QueryService

        graph, pairs = instance
        obs = Observer()
        start = time.perf_counter()
        with QueryService(
            graph, method="multi", max_batch=len(pairs), max_wait_ms=20.0,
            backend="process", workers=2, observer=obs,
            shard_deadline=1.5,
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
        reg = obs.registry
        assert reg.get("repro_pool_shard_timeouts_total").value() >= 1
        assert (
            reg.get("repro_pool_suspect_workers_total").value(reason="deadline")
            >= 1
        )
