"""QueryService unit tests: coalescing rules, lifecycle, outcomes.

These drive the micro-batcher **inline** with a :class:`SimClock`
(``submit``/``tick``/``drain``), so every flush decision is
deterministic; the threaded dispatcher and the process pool get their
own suites (``tests/test_conformance.py``, ``test_service_soak.py``).
"""

from __future__ import annotations

import math

import pytest

from repro import solve_batch
from repro.robustness import SimClock
from repro.serve import (
    FLUSH_REASONS,
    OUTCOMES,
    SHED,
    SHED_AFTER_S,
    QueryService,
    ServiceClosed,
)


def _service(graph, **kwargs):
    clock = kwargs.pop("clock", None) or SimClock()
    kwargs.setdefault("method", "multi")
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_ms", 100.0)
    return QueryService(graph, clock=clock, **kwargs), clock


class TestCoalescingEdges:
    def test_empty_flush_on_shutdown_executes_nothing(self, serve_graph):
        svc, _ = _service(serve_graph)
        svc.close()
        assert svc.stats()["batches"] == 0
        assert svc.stats()["executed"] == 0
        assert list(svc.batches) == []

    def test_close_is_idempotent_and_rejects_submissions(self, serve_graph, serve_pairs):
        svc, _ = _service(serve_graph)
        fut = svc.submit(*serve_pairs[0])
        svc.close()
        svc.close()
        assert fut.done()
        with pytest.raises(ServiceClosed):
            svc.submit(*serve_pairs[1])

    def test_single_query_waits_until_max_wait(self, serve_graph, serve_pairs):
        svc, clock = _service(serve_graph, max_wait_ms=50.0)
        fut = svc.submit(*serve_pairs[0])
        assert not fut.done()
        assert svc.tick() == 0          # under max-wait: still queued
        assert not fut.done()
        clock.advance(0.049)
        assert svc.tick() == 0
        clock.advance(0.002)            # now past 50ms
        assert svc.tick() == 1
        assert fut.done()
        assert svc.batches[-1].reason == "wait"
        assert svc.batches[-1].size == 1
        svc.close()

    def test_max_batch_exactly_hit_flushes_inline(self, serve_graph, serve_pairs):
        svc, _ = _service(serve_graph, max_batch=4)
        futs = [svc.submit(*p) for p in serve_pairs[:3]]
        assert not any(f.done() for f in futs)
        futs.append(svc.submit(*serve_pairs[3]))   # the 4th: exactly max_batch
        assert all(f.done() for f in futs)
        assert svc.batches[-1].reason == "size"
        assert svc.batches[-1].size == 4
        assert svc.queue_depth() == 0
        svc.close()

    def test_duplicates_dedupe_into_one_execution_and_fan_out(
        self, serve_graph, serve_pairs
    ):
        svc, _ = _service(serve_graph, max_batch=8)
        s, t = serve_pairs[0]
        dup_futs = [svc.submit(s, t) for _ in range(5)]
        other = svc.submit(*serve_pairs[1])
        assert svc.queue_depth() == 2   # 6 submissions, 2 distinct queries
        assert svc.drain() == 2
        assert all(f.done() for f in dup_futs)
        results = [f.result() for f in dup_futs]
        assert len({id(r) for r in results}) == 1   # one shared answer object
        assert results[0].key == (s, t)
        stats = svc.stats()
        assert stats["deduped"] == 4
        assert stats["submitted"] == 6
        assert stats["executed"] == 2
        assert other.result().key == serve_pairs[1]
        svc.close()

    def test_dedup_merges_priority_and_deadline(self, serve_graph, serve_pairs):
        svc, _ = _service(serve_graph, max_batch=8)
        s, t = serve_pairs[0]
        svc.submit(s, t, priority=1, deadline=90.0)
        svc.submit(s, t, priority=5, deadline=50.0)
        svc.submit(s, t, priority=3)
        entry = svc._pending[(s, t)]
        assert entry.query.priority == 5       # highest wins
        assert entry.query.deadline == 50.0    # earliest wins
        svc.close()

    def test_pressure_triggers_before_max_wait(self, serve_graph):
        svc, _ = _service(serve_graph, max_batch=2)
        # A burst: submit_many drains in max_batch chunks immediately,
        # never waiting for the clock.
        pairs = [(i, 63 - i) for i in range(9)]
        futs = svc.submit_many(pairs)
        assert sum(f.done() for f in futs) == 8
        assert [b.size for b in svc.batches] == [2] * 4
        assert {b.reason for b in svc.batches} == {"size"}
        svc.close()
        assert all(f.done() for f in futs)

    def test_invalid_query_raises_at_submit_not_in_future(self, serve_graph):
        svc, _ = _service(serve_graph)
        with pytest.raises(ValueError):
            svc.submit(0, serve_graph.num_vertices + 5)
        assert svc.queue_depth() == 0
        svc.close()


class TestOutcomesAndResults:
    def test_answers_match_serial_solve_batch_per_composition(
        self, serve_graph, serve_pairs
    ):
        svc, clock = _service(serve_graph, max_batch=3, certify=True,
                              collect_paths=True)
        futs = [svc.submit(*p) for p in serve_pairs]
        clock.advance(1.0)
        svc.tick()
        svc.close()
        assert all(f.done() for f in futs)
        reference = {}
        for record in svc.batches:
            ref = solve_batch(serve_graph, list(record.keys), method="multi",
                              certify=True)
            for key in record.keys:
                reference[key] = ref
        for fut in futs:
            res = fut.result()
            ref = reference[fut.key]
            assert res.distance == ref.distance(*fut.key)
            assert res.outcome in OUTCOMES
            if math.isfinite(res.distance):
                assert res.certificate is not None
                assert res.path is not None
                assert res.path[0] == fut.key[0]
                assert res.path[-1] == fut.key[1]

    def test_expired_deadline_resolves_as_timeout(self, serve_graph, serve_pairs):
        svc, clock = _service(serve_graph, max_batch=8)
        fut = svc.submit(*serve_pairs[0], deadline=clock() + 0.01)
        clock.advance(10.0)              # deadline long gone before any flush
        svc.tick()
        assert fut.done()
        res = fut.result()
        assert res.outcome == "timeout"
        assert math.isinf(res.distance)
        svc.close()

    def test_shed_resolves_with_explicit_outcome(self, serve_graph, serve_pairs):
        svc, _ = _service(serve_graph, max_batch=8, max_queue=2)
        futs = [
            svc.submit(s, t, priority=len(serve_pairs) - i)
            for i, (s, t) in enumerate(serve_pairs[:5])
        ]
        svc.drain()
        outcomes = [f.result().outcome for f in futs]
        assert outcomes.count("shed") == 3
        # Lowest-priority queries (submitted last) are the ones shed.
        assert [o == "shed" for o in outcomes] == [False, False, True, True, True]
        svc.close()

    def test_batch_record_metadata(self, serve_graph, serve_pairs):
        svc, clock = _service(serve_graph, max_batch=2)
        svc.submit(*serve_pairs[0])
        clock.advance(0.02)
        svc.submit(*serve_pairs[1])     # size trigger fires here
        record = svc.batches[-1]
        assert record.reason in FLUSH_REASONS
        assert record.size == 2
        assert record.keys == (serve_pairs[0], serve_pairs[1])
        assert record.waited_s == pytest.approx(0.02)
        svc.close()

    def test_flush_and_drain_reasons_recorded(self, serve_graph, serve_pairs):
        svc, _ = _service(serve_graph, max_batch=8)
        svc.submit(*serve_pairs[0])
        assert svc.flush() == 1
        svc.submit(*serve_pairs[1])
        svc.submit(*serve_pairs[2])
        assert svc.drain() == 2
        svc.submit(*serve_pairs[3])
        svc.close()                     # shutdown flush
        reasons = [b.reason for b in svc.batches]
        assert reasons == ["manual", "drain", "shutdown"]

    def test_service_metrics_families_emitted(self, serve_graph, serve_pairs):
        from repro.obs import Observer

        obs = Observer()
        svc, _ = _service(serve_graph, max_batch=2, observer=obs)
        svc.submit(*serve_pairs[0])
        svc.submit(*serve_pairs[0])     # dedup
        svc.submit(*serve_pairs[1])     # size flush
        svc.close()
        text = obs.export_text()
        assert 'repro_service_batches_total{reason="size"} 1' in text
        assert "repro_service_dedup_total 1" in text
        assert "repro_service_coalesce_size_count 1" in text
        assert "repro_service_queue_depth 0" in text


class TestDoorShedding:
    """One door rule: a new query is shed once the oldest queued one has
    waited longer than ``SHED_AFTER_S`` on the service clock."""

    def test_healthy_service_sheds_nothing(self, serve_graph, serve_pairs):
        svc, _ = _service(serve_graph)
        futs = [svc.submit(s, t) for s, t in serve_pairs[:4]]
        svc.close()
        assert all(f.result().outcome == "ok" for f in futs)
        assert svc.stats()["shed"] == 0

    def test_stuck_queue_sheds_new_queries_at_the_door(self, serve_graph,
                                                       serve_pairs):
        from repro.obs import Observer

        obs = Observer()
        svc, clock = _service(serve_graph, observer=obs)
        first = svc.submit(*serve_pairs[0])
        clock.advance(SHED_AFTER_S)  # at the threshold: still admitted
        second = svc.submit(*serve_pairs[1])
        assert not second.done()
        clock.advance(0.01)  # oldest sojourn now past 0.8 s
        shed = svc.submit(*serve_pairs[2])
        assert shed.done()  # refused synchronously
        res = shed.result()
        assert res.outcome == SHED
        assert res.batch_index == -1
        assert res.distance == float("inf")
        assert "repro_overload_shed_total 1" in obs.export_text()
        svc.close()
        assert first.result().outcome == "ok"
        assert second.result().outcome == "ok"
        assert svc.stats()["shed"] == 1

    def test_duplicate_of_a_queued_query_still_coalesces(self, serve_graph,
                                                         serve_pairs):
        svc, clock = _service(serve_graph)
        first = svc.submit(*serve_pairs[0])
        clock.advance(1.0)
        dup = svc.submit(*serve_pairs[0])
        assert not dup.done()
        svc.close()
        assert first.result().outcome == dup.result().outcome == "ok"
        assert svc.stats()["shed"] == 0
        assert svc.stats()["deduped"] == 1


class TestLifecycle:
    def test_context_manager_flushes_pending_on_exit(self, serve_graph, serve_pairs):
        with QueryService(serve_graph, max_batch=8, max_wait_ms=100.0,
                          clock=SimClock()) as svc:
            futs = [svc.submit(*p) for p in serve_pairs[:3]]
            assert not any(f.done() for f in futs)
        assert all(f.done() for f in futs)
        assert svc.batches[-1].reason == "shutdown"

    def test_future_result_timeout_while_queued(self, serve_graph, serve_pairs):
        svc, _ = _service(serve_graph, max_batch=8)
        fut = svc.submit(*serve_pairs[0])
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)
        svc.close()
        assert fut.result().outcome in OUTCOMES

    def test_serial_service_ping_is_trivially_healthy(self, serve_graph):
        svc, _ = _service(serve_graph)
        assert svc.ping()
        assert svc.pool is None
        svc.close()

    def test_serial_service_rejects_a_pool_before_forking(self, serve_graph):
        """A serial service would run nothing on the pool, and start()
        would still fork its workers: refuse the pair up front."""
        from repro.parallel.pool import ProcessPool

        pool = ProcessPool(2)
        for kwargs in ({"pool": pool}, {"workers": 2}, {"pool": pool, "workers": 2}):
            with pytest.raises(ValueError, match="backend='process'"):
                QueryService(serve_graph, backend="serial", **kwargs)
        assert pool._executor is None and not pool._shared
        pool.close()

    def test_breakers_persist_across_batches(self, serve_graph, serve_pairs):
        svc, _ = _service(serve_graph, max_batch=2)
        board = svc.pipeline.breakers
        svc.submit(*serve_pairs[0])
        svc.submit(*serve_pairs[1])
        assert svc.pipeline.breakers is board
        svc.close()

    def test_dispatcher_keeps_serving_after_a_failed_batch(
        self, serve_graph, serve_pairs, tmp_path
    ):
        """A batch that raises resolves its futures as ``failed``; the
        dispatcher thread lives on and answers the next batch."""
        writes = []

        def crash_once(manifest):
            writes.append(manifest)
            if len(writes) == 1:
                raise OSError("checkpoint disk went away")

        svc = QueryService(
            serve_graph, max_batch=2, max_wait_ms=60_000.0,
            checkpoint_path=tmp_path / "job.json", checkpoint_hook=crash_once,
        )
        svc.start()
        try:
            first = svc.submit_many(serve_pairs[:2])
            assert [f.result(timeout=5).outcome for f in first] == ["failed"] * 2
            later = svc.submit_many(serve_pairs[2:4])
            assert [f.result(timeout=5).outcome for f in later] == ["ok"] * 2
            assert svc.stats()["errors"] == 1
        finally:
            svc.close()
