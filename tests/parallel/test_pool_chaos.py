"""Chaos: SIGKILL a pool worker mid-shard; serving must still be right.

A killed worker surfaces as :class:`~repro.parallel.pool.WorkerCrashError`
— a whole-shard failure with no partial answers — so the serve pipeline's
existing failure ladder (circuit breaker, per-query resilient chain)
absorbs it exactly like any other shard fault.  The bar is the one every
chaos suite in this repo holds: every query answered (no ``failed``
outcomes), every answer equal to the serial ground truth, and with
``verify=True`` every certificate checks out — a crash may cost wall
clock, never correctness.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.baselines import dijkstra
from repro.core.batch import solve_batch
from repro.parallel.pool import ProcessPool, WorkerCrashError
from repro.robustness import FaultInjector
from repro.serve import ServePipeline
from tests.test_conformance import random_geometric

pytestmark = pytest.mark.pool


@pytest.fixture(scope="module")
def instance():
    graph, pairs = random_geometric(2)  # undirected, has duplicate points
    return graph, pairs


def _ground_truth(graph, pairs):
    return {
        (s, t): float(dijkstra(graph, s)[t]) for s, t in pairs
    }


class TestWorkerKill:
    def test_solve_batch_surfaces_crash_then_retries_clean(self, instance):
        """At the batch layer a kill is loud: WorkerCrashError, nothing
        partial; the spent injector then lets a retry through, and the
        retry is bit-identical to serial."""
        graph, pairs = instance
        serial = solve_batch(graph, pairs, method="multi")
        injector = FaultInjector(seed=1, kill_worker_at=0)
        with ProcessPool(2) as pool:
            with pytest.raises(WorkerCrashError):
                solve_batch(
                    graph, pairs, method="multi", pool=pool, fault_injector=injector,
                )
            assert ("kill-worker" in [kind for _, kind in injector.fired])
            retry = solve_batch(
                graph, pairs, method="multi", pool=pool,
                fault_injector=injector,  # spent: fires at most once
            )
        assert retry.distances == serial.distances
        assert retry.exact == serial.exact

    @pytest.mark.parametrize("method", ["multi", "sssp-vc"])
    def test_pipeline_recovers_to_ground_truth(self, instance, method):
        """The issue's headline property: kill a worker mid-shard under a
        verifying pipeline — same answers as serial, nothing failed,
        nothing silently wrong."""
        graph, pairs = instance
        truth = _ground_truth(graph, pairs)
        reference = ServePipeline(graph, method=method).run(pairs)
        with ProcessPool(2) as pool:
            pipe = ServePipeline(
                graph, method=method, pool=pool, verify=True,
                fault_injector=FaultInjector(seed=3, kill_worker_at=0),
            )
            res = pipe.run(pairs)
        assert "failed" not in res.counts()
        # Queries on the crashed shard recover through the resilient
        # per-query chain — a different (but exact) method, so their
        # float summation order may differ from the batch reference by
        # an ulp.  Correctness is vs ground truth; bitwise identity is
        # the *clean-path* contract (see tests/test_conformance.py).
        for s, t in pairs:
            assert res.distance(s, t) == pytest.approx(truth[(s, t)], rel=1e-12)
            assert res.distance(s, t) == pytest.approx(
                reference.distance(s, t), rel=1e-12
            )
        verification = res.details["verification"]
        assert verification["failed"] == 0
        assert verification["invalid"] == 0
        assert verification["checked"] >= len(pairs)

    def test_checkpoint_resume_after_kill_matches_uninterrupted(
        self, instance, tmp_path
    ):
        """Crash the host process after the first durable write while the
        process backend is also losing a worker; the resumed job must
        still converge to the uninterrupted answers."""
        graph, pairs = instance

        class Killed(RuntimeError):
            pass

        def kill_after_first(manifest):
            if len(manifest["completed_shards"]) == 1:
                raise Killed("simulated host crash")

        reference = ServePipeline(
            graph, method="multi", checkpoint_every=2,
        ).run(pairs)
        path = tmp_path / "job.json"
        with ProcessPool(2) as pool:
            pipe = ServePipeline(
                graph, method="multi", pool=pool,
                checkpoint_path=path, checkpoint_every=2,
                checkpoint_hook=kill_after_first,
                fault_injector=FaultInjector(seed=5, kill_worker_at=1),
            )
            with pytest.raises(Killed):
                pipe.run(pairs)
        with ProcessPool(2) as pool:
            resumed = ServePipeline(
                graph, method="multi", pool=pool,
                checkpoint_path=path, checkpoint_every=2,
            ).run(pairs, resume=True)
        assert "failed" not in resumed.counts()
        assert set(resumed.distances) == set(reference.distances)
        for key, want in reference.distances.items():
            # The shard that lost its worker pre-crash was re-answered
            # by the resilient chain before being checkpointed; exact
            # answers, possibly an ulp off the batch reference.
            assert resumed.distances[key] == pytest.approx(want, rel=1e-12), key
        assert {k: a.exact for k, a in resumed.answers.items()} == {
            k: a.exact for k, a in reference.answers.items()
        }


#: Runs in a fresh interpreter: the fault needs a process whose
#: resource tracker is not running yet when the pool forks, which a
#: test process that already exported a segment can no longer show.
_IDLE_KILL_SCRIPT = textwrap.dedent(
    """
    import os, signal, time
    from multiprocessing import shared_memory

    from repro.core.batch import solve_batch
    from repro.parallel.pool import ProcessPool, WorkerCrashError
    from tests.test_conformance import random_geometric

    graph, pairs = random_geometric(2)
    serial = solve_batch(graph, pairs, method="multi", certify=True)
    pool = ProcessPool(2).open()  # the service's warm(): open, then share
    name = pool.share(graph)["shm_name"]
    solve_batch(graph, pairs, method="multi", pool=pool)

    victim = next(iter(pool._executor._processes.values()))
    os.kill(victim.pid, signal.SIGKILL)
    victim.join()
    # A worker-side tracker unlinks the segment within milliseconds of
    # its worker's death; give it ample time to show.
    time.sleep(1.0)
    shared_memory.SharedMemory(name=name).close()  # FileNotFoundError if gone

    while not pool._executor._broken:
        time.sleep(0.01)
    try:
        solve_batch(graph, pairs, method="multi", pool=pool)
    except WorkerCrashError:
        pass  # the break is found at dispatch; the executor is dropped
    else:
        raise AssertionError("a broken executor answered a batch")
    again = solve_batch(
        graph, pairs, method="multi", certify=True, pool=pool
    )
    assert pool.respawns == 1, pool.respawns
    assert again.distances == serial.distances
    assert again.meter.step_work == serial.meter.step_work
    assert {k: a.certificate.to_dict() for k, a in again.answers.items()} == {
        k: a.certificate.to_dict() for k, a in serial.answers.items()
    }
    pool.close()
    print("survived")
    """
)


class TestIdleWorkerKill:
    def test_shared_graph_survives_and_pool_respawns(self):
        """SIGKILL an idle worker of an opened-then-shared pool: the
        shared graph must outlive it, the next dispatch must report the
        crash, and the batch after that must be answered by respawned
        workers, bit-identical to serial."""
        root = Path(__file__).resolve().parents[2]
        paths = [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        proc = subprocess.run(
            [sys.executable, "-c", _IDLE_KILL_SCRIPT],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "survived"
        # One tracker, owned by the pool's process: nothing "leaked".
        assert "leaked shared_memory" not in proc.stderr


class TestParentSideFaults:
    def test_checkpoint_fault_keeps_the_batch_on_the_pool(self, tmp_path):
        """A checkpoint bit-flip acts in the parent after each durable
        write, never inside an engine run, so arming it must not push
        the pool's shards onto the per-query chain."""
        from repro.graphs import road_graph

        graph = road_graph(20, 20, seed=1)
        pairs = [(0, 399), (5, 200), (17, 300), (42, 111), (3, 250), (90, 10)]

        def run(injector, name):
            with ProcessPool(2) as pool:
                return ServePipeline(
                    graph, method="multi", pool=pool,
                    checkpoint_every=2, checkpoint_path=str(tmp_path / name),
                    fault_injector=injector,
                ).run(pairs)

        clean = run(None, "clean.json")
        armed = run(FaultInjector(flip_checkpoint=True, max_fires=0), "armed.json")
        assert armed.details["num_searches"] > 0
        assert armed.details["num_searches"] == clean.details["num_searches"]
        assert armed.breaker_states["multi"] == "closed"
        assert armed.distances == clean.distances
