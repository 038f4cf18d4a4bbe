"""Shared-memory graph export: integrity, isolation, and no leaks.

The leak tests enumerate ``/dev/shm`` before and after, so a segment
that outlives its pool — including on exception paths — fails loudly
here instead of accumulating on a serving host.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.graphs import Graph, ShmFingerprintError, road_graph
from repro.graphs.shm import attach_graph, export_graph


@pytest.fixture()
def grid():
    return road_graph(8, 8, seed=11, name="shm-road")


def _shm_segments() -> set[str]:
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - exotic host
        pytest.skip("no /dev/shm on this platform")
    return set(glob.glob("/dev/shm/psm_*"))


class TestRoundtrip:
    def test_attach_reproduces_graph_bitwise(self, grid):
        with grid.to_shm() as shared:
            view = Graph.from_shm(shared.descriptor)
            assert view.fingerprint() == grid.fingerprint()
            np.testing.assert_array_equal(view.indptr, grid.indptr)
            np.testing.assert_array_equal(view.indices, grid.indices)
            np.testing.assert_array_equal(view.weights, grid.weights)
            np.testing.assert_array_equal(view.coords, grid.coords)
            assert view.directed == grid.directed
            assert view.name == grid.name
            # Same answers through the attached view.
            from repro import ppsp

            assert ppsp(view, 0, 63).distance == ppsp(grid, 0, 63).distance

    def test_descriptor_is_plain_picklable_data(self, grid):
        import pickle

        with grid.to_shm() as shared:
            clone = pickle.loads(pickle.dumps(shared.descriptor))
            assert clone == shared.descriptor

    def test_fingerprint_mismatch_refuses_attach(self, grid):
        with grid.to_shm() as shared:
            bad = dict(shared.descriptor)
            bad["fingerprint"] = "0" * 32
            with pytest.raises(ShmFingerprintError):
                attach_graph(bad)
            # check=False opts out of the integrity gate.
            view = attach_graph(bad, check=False)
            assert view.num_vertices == grid.num_vertices

    def test_rejects_foreign_descriptor(self):
        with pytest.raises(ValueError, match="not a shared-graph"):
            attach_graph({"kind": "something-else"})


class TestIsolation:
    def test_attached_arrays_are_read_only(self, grid):
        with grid.to_shm() as shared:
            view = Graph.from_shm(shared.descriptor)
            with pytest.raises(ValueError):
                view.weights[0] = 1e9

    def test_export_copies_rather_than_aliases(self, grid):
        """Mutating the source graph after export must not reach the
        segment: the shared bytes are a snapshot."""
        with grid.to_shm() as shared:
            original_first = float(grid.weights[0])
            grid.weights[0] = original_first + 1.0
            try:
                view = Graph.from_shm(shared.descriptor, check=False)
                assert float(view.weights[0]) == original_first
            finally:
                grid.weights[0] = original_first


class TestLifetime:
    def test_unlink_is_idempotent_and_removes_segment(self, grid):
        before = _shm_segments()
        shared = grid.to_shm()
        assert _shm_segments() - before  # the segment exists
        shared.unlink()
        shared.unlink()
        assert _shm_segments() == before

    def test_export_failure_leaves_no_segment(self, grid, monkeypatch):
        before = _shm_segments()
        fingerprint = Graph.fingerprint

        def boom(self):
            raise RuntimeError("fingerprint exploded")

        monkeypatch.setattr(Graph, "fingerprint", boom)
        with pytest.raises(RuntimeError, match="exploded"):
            export_graph(grid)
        monkeypatch.setattr(Graph, "fingerprint", fingerprint)
        assert _shm_segments() == before


@pytest.mark.pool
class TestPoolLifetime:
    """Every segment a pool shared must be gone once the pool is."""

    def test_pool_close_unlinks_all_segments(self):
        from repro.core.batch import solve_batch
        from repro.parallel.pool import ProcessPool

        before = _shm_segments()
        g1 = road_graph(8, 8, seed=1, name="shm-a")
        g2 = road_graph(6, 6, seed=2, name="shm-b")
        with ProcessPool(2) as pool:
            solve_batch(g1, [(0, 63), (1, 62)], method="multi", pool=pool)
            solve_batch(g2, [(0, 35)], method="plain-bids", pool=pool)
            assert len(_shm_segments() - before) == 2  # one per fingerprint
        assert _shm_segments() == before

    def test_segments_unlinked_when_batch_raises(self):
        from repro.core.batch import solve_batch
        from repro.parallel.pool import ProcessPool, WorkerCrashError
        from repro.robustness import FaultInjector

        before = _shm_segments()
        g = road_graph(8, 8, seed=4, name="shm-crash")
        with pytest.raises(WorkerCrashError):
            with ProcessPool(2) as pool:
                solve_batch(
                    g, [(0, 63), (1, 62), (2, 61)], method="multi", pool=pool,
                    fault_injector=FaultInjector(seed=1, kill_worker_at=0),
                )
        assert _shm_segments() == before

    def test_segments_unlinked_when_executor_shutdown_raises(self):
        """A poisoned executor whose shutdown explodes must not leak.

        Regression test for the teardown ordering: ``close()`` has to
        unlink every shared segment even when the executor teardown
        itself raises (a worker died mid-batch and the pool is being
        torn down around the wreckage)."""
        from repro.parallel.pool import ProcessPool

        class _PoisonedExecutor:
            def shutdown(self, *a, **k):
                raise OSError("simulated poisoned executor teardown")

        before = _shm_segments()
        g = road_graph(8, 8, seed=13, name="shm-poison")
        pool = ProcessPool(2)
        handle_holder = []
        try:
            pool.share(g)
            handle_holder = list(pool._shared.values())
            assert _shm_segments() - before  # the segment exists
            pool._executor = _PoisonedExecutor()
            with pytest.raises(OSError, match="poisoned"):
                pool.close()
        finally:
            # Belt and braces: never leak the segment out of the test
            # even if the assertion below is what fails.
            for handle in handle_holder:
                handle.unlink()
        assert _shm_segments() == before
        assert all(handle.unlinked for handle in handle_holder)
        assert pool.closed
        pool.close()  # idempotent after the failed teardown
