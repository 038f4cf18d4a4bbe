"""Cross-validation: the Brent-bound cost model vs the DAG simulator.

The engine charges steps through :class:`WorkDepthMeter`; the
:class:`ForkJoinSimulator` schedules explicit binary fork-join DAGs.
Replaying a meter's step profile as a chain of parallel-for DAGs must
give times the closed-form model brackets — if these ever diverge, one
of the two parallel models is lying.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel.cost_model import WorkDepthMeter
from tests.parallel.test_forkjoin import ForkJoinSimulator, parallel_for_task


def replay_time(step_work: list[float], processors: int) -> float:
    """Schedule each step as a parallel-for DAG; steps are barriers."""
    sim = ForkJoinSimulator(processors)
    return sum(sim.run(parallel_for_task(int(w), unit_cost=1.0)) for w in step_work)


class TestModelsAgree:
    @settings(deadline=None, max_examples=25,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(st.integers(1, 300), min_size=1, max_size=8),
        st.sampled_from([1, 2, 4, 8, 32]),
    )
    def test_simulated_time_brackets_dag_schedule(self, works, p):
        meter = WorkDepthMeter()
        for w in works:
            meter.record_step(w)
        model = meter.simulated_time(p, sync_cost=1.0)
        dag = replay_time([float(w) for w in works], p)
        # The DAG schedule has no explicit sync cost, so it lower-bounds
        # the model; Brent guarantees it is at least sum(w/p).
        assert dag <= model + 1e-9
        assert dag >= sum(w / p for w in works) - 1e-9

    def test_single_processor_exact(self):
        meter = WorkDepthMeter()
        for w in (10, 25, 3):
            meter.record_step(w)
        assert replay_time([10, 25, 3], 1) == pytest.approx(38.0)

    def test_many_processors_hit_span(self):
        # One big flat step: with enough processors the DAG runs in ~1
        # unit; the model adds its log-span sync term.
        dag = replay_time([1024.0], 4096)
        assert dag == pytest.approx(1.0)
        meter = WorkDepthMeter()
        meter.record_step(1024)
        assert meter.simulated_time(4096) >= dag

    def test_engine_meter_replayable(self, random_graph_factory=None):
        """A real engine run's profile replays without error and keeps
        the same speedup ordering between 1 and 16 processors."""
        from repro.core.engine import run_policy
        from repro.core.policies import SsspPolicy
        from repro.graphs import road_graph

        g = road_graph(12, 12, seed=1)
        meter = run_policy(g, SsspPolicy(0)).meter
        t1 = replay_time(meter.step_work, 1)
        t16 = replay_time(meter.step_work, 16)
        assert t16 < t1
        assert meter.simulated_time(16) < meter.simulated_time(1)
