"""ServePipeline behavior: outcomes, deadlines, breakers, chaos routing."""

import numpy as np
import pytest

from repro.baselines import dijkstra
from repro.core import QueryAnswer
from repro.graphs import road_graph
from repro.obs import Observer
from repro.robustness import Budget, FaultInjector, SimClock
from repro.serve import SERVE_METHODS, ServePipeline, ServeQuery, serve_batch
from repro.serve.breaker import CLOSED, OPEN

pytestmark = pytest.mark.serve


def oracle(graph, pairs):
    return {(s, t): float(dijkstra(graph, s)[t]) for s, t in pairs}


class TestOutcomes:
    @pytest.mark.parametrize("method", SERVE_METHODS)
    def test_every_method_matches_oracle(self, method, serve_graph, serve_pairs):
        res = serve_batch(serve_graph, serve_pairs, method=method)
        ref = oracle(serve_graph, serve_pairs)
        assert res.counts() == {"ok": len(serve_pairs)}
        for key, want in ref.items():
            assert res.distances[key] == pytest.approx(want), key
            assert res.answers[key].exact is True

    def test_distance_lookup(self, serve_graph, serve_pairs):
        """Either orientation of an undirected pair; a pair never
        submitted raises, as a ``solve_batch`` result does."""
        res = serve_batch(serve_graph, serve_pairs[:3])
        s, t = serve_pairs[0]
        assert res.distance(s, t) == res.distance(t, s) == res.answers[(s, t)].distance
        with pytest.raises(ValueError, match="never part of this batch"):
            res.distance(*serve_pairs[5])

    def test_shed_pair_returns_inf(self, serve_graph, serve_pairs):
        """A shed pair answers ``inf`` in either orientation (it is no
        executed distance) and leaves the executed ones exact."""
        res = ServePipeline(serve_graph, max_queue=2).run(serve_pairs[:3])
        shed = serve_pairs[2]
        assert res.answers[shed] == QueryAnswer(float("inf"), False, "shed")
        assert res.distance(*shed) == res.distance(*shed[::-1]) == float("inf")
        assert shed not in res.distances and res.exact

    def test_directed_lookup_follows_the_graph(self):
        """On a directed graph the result answers a pair as asked only;
        the reverse orientation raises, as a ``solve_batch`` result does."""
        from repro.experiments.ext_directed import directed_road

        g = directed_road(400, seed=5)
        res = ServePipeline(g, method="multi").run([(34, 323)])
        assert res.distance(34, 323) == pytest.approx(float(dijkstra(g, 34)[323]), rel=1e-9)
        with pytest.raises(ValueError, match="never part of this batch"):
            res.distance(323, 34)

    def test_work_metered_across_shards(self, serve_graph, serve_pairs):
        res = serve_batch(serve_graph, serve_pairs, checkpoint_every=2)
        assert res.meter.work > 0 and res.details["num_shards"] == 4
        assert res.details["num_searches"] > 0


class TestDeadlines:
    def test_expired_deadline_times_out_without_execution(self, serve_graph, serve_pairs):
        sim = SimClock(start=100.0)
        obs = Observer()
        qs = [ServeQuery(*serve_pairs[0], deadline=99.0),
              ServeQuery(*serve_pairs[1], deadline=101.0)]
        res = ServePipeline(serve_graph, clock=sim, observer=obs).run(qs)
        assert res.answers[serve_pairs[0]] == QueryAnswer(float("inf"), False, "timeout")
        assert res.answers[serve_pairs[1]].outcome == "ok"
        assert "repro_serve_deadline_misses_total 1" in obs.export_text()

    def test_stalled_run_degrades_to_inexact_not_missed(self, serve_graph, serve_pairs):
        # A straggler in fast-forward: every step injects 50ms of
        # simulated latency, so the 200ms deadline trips the wall budget
        # mid-search and the answer degrades to an upper bound.
        sim = SimClock()
        inj = FaultInjector(stall_at=0, stall_seconds=0.05, clock=sim, max_fires=1000)
        res = ServePipeline(
            serve_graph, method="multi", deadline_ms=200.0,
            clock=sim, fault_injector=inj,
        ).run(serve_pairs[:4])
        assert any(kind == "stall" for _, kind in inj.fired)
        assert {ans.outcome for ans in res.answers.values()} <= {"inexact", "timeout"}
        assert not res.exact
        # inexact answers are upper bounds on the true distance
        ref = oracle(serve_graph, serve_pairs[:4])
        for key, ans in res.answers.items():
            if ans.outcome == "inexact" and np.isfinite(ans.distance):
                assert ans.distance >= ref[key] - 1e-9

    def test_stall_is_deterministic(self, serve_graph, serve_pairs):
        def run():
            sim = SimClock()
            inj = FaultInjector(stall_at=0, stall_seconds=0.05, clock=sim, max_fires=1000)
            res = ServePipeline(
                serve_graph, method="multi", deadline_ms=200.0,
                clock=sim, fault_injector=inj,
            ).run(serve_pairs[:4])
            return res.answers, list(inj.fired)

        assert run() == run()

    def test_caller_queries_are_not_mutated(self, tmp_path):
        """The default deadline and a duplicate's merge go into copies:
        the same ``ServeQuery`` objects answer alike when run again later
        or resumed after a kill, and come back unchanged."""
        graph = road_graph(10, 10, seed=1)
        sim = SimClock()
        queries = [ServeQuery(0, 99), ServeQuery(5, 90), ServeQuery(0, 99, priority=3)]
        pipe = ServePipeline(graph, clock=sim, deadline_ms=1000.0)
        assert pipe.run(queries).counts() == {"ok": 2}
        sim.advance(5.0)
        assert pipe.run(queries).counts() == {"ok": 2}

        class Killed(Exception):
            pass

        def kill(manifest):
            raise Killed

        job = [ServeQuery(0, 99), ServeQuery(5, 90), ServeQuery(3, 80), ServeQuery(7, 70)]
        common = dict(clock=sim, deadline_ms=1000.0, checkpoint_every=2,
                      checkpoint_path=str(tmp_path / "job.ckpt.json"))
        with pytest.raises(Killed):
            ServePipeline(graph, checkpoint_hook=kill, **common).run(job)
        sim.advance(60.0)
        res = ServePipeline(graph, **common).run(job, resume=True)
        assert res.counts() == {"ok": 4}
        assert res.resumed_queries == 2
        assert [(q.priority, q.deadline) for q in queries + job] == [
            (0, None), (0, None), (3, None), (0, None), (0, None), (0, None), (0, None),
        ]

    def test_per_query_deadline_beats_default(self, serve_graph, serve_pairs):
        sim = SimClock(start=10.0)
        pipe = ServePipeline(serve_graph, deadline_ms=60_000.0, clock=sim)
        qs = pipe._normalize([ServeQuery(*serve_pairs[0], deadline=12.0), serve_pairs[1]])
        assert qs[0].deadline == 12.0
        assert qs[1].deadline == pytest.approx(70.0)


class TestStallFaultClass:
    def test_stall_trips_wall_budget_deterministically(self, serve_graph, serve_pairs):
        from repro import ppsp

        s, t = serve_pairs[0]
        sim = SimClock()
        ans = ppsp(
            serve_graph, s, t, method="bids",
            budget=Budget(wall_time=0.1, clock=sim),
            fault_injector=FaultInjector(
                stall_at=0, stall_seconds=0.06, clock=sim, max_fires=1000),
        )
        assert ans.exact is False  # two stalled steps exceed the budget
        assert sim.now() > 0.1

    def test_stall_inert_without_clock(self, serve_graph, serve_pairs):
        from repro import ppsp

        s, t = serve_pairs[0]
        inj = FaultInjector(stall_at=0, stall_seconds=0.05, max_fires=1000)
        ans = ppsp(serve_graph, s, t, method="bids", fault_injector=inj)
        assert ans.exact is True and inj.fired == []


class TestBreakerRouting:
    def test_failing_batch_trips_breaker_and_reroutes(self, serve_graph, serve_pairs):
        # The injector kills the first two engine runs permanently: the
        # batch rung trips open, then the chain's bidastar rung trips,
        # and bids answers everything exactly.
        sim = SimClock()
        obs = Observer()
        pipe = ServePipeline(
            serve_graph, method="multi", breaker_threshold=1,
            breaker_cooldown=30.0, clock=sim, observer=obs,
            fault_injector=FaultInjector(raise_at=0, transient=False, max_fires=2),
        )
        res = pipe.run(serve_pairs[:4])
        assert res.counts() == {"ok": 4}
        ref = oracle(serve_graph, serve_pairs[:4])
        for key, want in ref.items():
            assert res.distances[key] == pytest.approx(want)
        assert res.breaker_states["multi"] == OPEN
        assert res.breaker_states["bidastar"] == OPEN
        assert res.breaker_states["bids"] == CLOSED
        text = obs.export_text()
        assert 'repro_breaker_transitions_total{method="multi",to="open"} 1' in text
        assert 'repro_breaker_state{method="multi"} 2' in text

    def test_half_open_probe_recovers_batch_method(self, serve_graph, serve_pairs):
        sim = SimClock()
        obs = Observer()
        pipe = ServePipeline(
            serve_graph, method="multi", breaker_threshold=1,
            breaker_cooldown=5.0, clock=sim, observer=obs,
            fault_injector=FaultInjector(raise_at=0, transient=False, max_fires=1),
        )
        first = pipe.run(serve_pairs[:2])
        assert first.breaker_states["multi"] == OPEN
        sim.advance(5.0)  # cooldown elapses; the injector is spent
        second = pipe.run(serve_pairs[:2])
        assert second.breaker_states["multi"] == CLOSED
        assert second.counts() == {"ok": 2}
        text = obs.export_text()
        assert 'repro_breaker_transitions_total{method="multi",to="half-open"} 1' in text
        assert 'repro_breaker_transitions_total{method="multi",to="closed"} 1' in text
        assert 'repro_breaker_state{method="multi"} 0' in text

    def test_open_rung_skipped_in_chain(self, serve_graph, serve_pairs):
        from repro.robustness import resilient_ppsp
        from repro.serve import BreakerBoard

        board = BreakerBoard(failure_threshold=1, clock=SimClock())
        board.record_failure("bidastar")
        s, t = serve_pairs[0]
        ans = resilient_ppsp(serve_graph, s, t, breakers=board)
        assert ans.exact and ans.method == "bids"
        assert [(a.method, a.outcome) for a in ans.attempts][:2] == [
            ("bidastar", "open"), ("bids", "ok")]


class TestObserverIntegration:
    def test_serve_counters_and_spans(self, serve_graph, serve_pairs, tmp_path):
        obs = Observer()
        res = serve_batch(
            serve_graph, [(s, t, i) for i, (s, t) in enumerate(serve_pairs[:5])],
            method="multi", max_queue=4, checkpoint_every=2,
            checkpoint_path=tmp_path / "job.json", observer=obs,
        )
        assert res.counts() == {"ok": 4, "shed": 1}
        assert res.checkpoints_written == 2
        text = obs.export_text()
        assert 'repro_serve_queries_total{outcome="ok"} 4' in text
        assert 'repro_serve_queries_total{outcome="shed"} 1' in text
        assert 'repro_serve_checkpoints_total{event="write"} 2' in text
        assert sum(1 for sp in obs.spans if sp.method == "serve-shard") == 2

    def test_stats_workload_tells_the_breaker_story(self):
        from repro.obs.workload import stats_workload

        obs = stats_workload(num_pairs=3)
        text = obs.export_text()
        # the chaos segment must leave the full trip->probe->close trail
        assert 'repro_breaker_transitions_total{method="multi",to="open"} 1' in text
        assert 'repro_breaker_transitions_total{method="multi",to="half-open"} 1' in text
        assert 'repro_breaker_transitions_total{method="multi",to="closed"} 1' in text
        assert 'repro_serve_queries_total{outcome="shed"} 2' in text
