"""A deterministic binary fork-join scheduler simulation, and its tests.

The paper's computational model (Sec. 2) is binary fork-join: a task may
fork two children and continues when both join.  The simulator below
runs such task DAGs under a greedy ``P``-processor schedule with a
virtual clock, which lets tests validate the cost model against first
principles (greedy schedules satisfy ``T_P <= W/P + D``, Brent/Graham).
``tests/parallel/test_model_consistency.py`` replays the engine's
work/depth numbers through it.
"""

import heapq
from dataclasses import dataclass

import pytest


@dataclass
class Task:
    """A node of a fork-join DAG.

    ``cost`` is the sequential work of the node's own computation; its
    ``children`` (zero or two — binary forking) start after that work and
    run in parallel.  Joins are free: a node is complete when its subtree
    is.
    """

    cost: float = 1.0
    children: tuple["Task", ...] = ()

    def work(self) -> float:
        total = 0.0
        stack = [self]
        while stack:
            t = stack.pop()
            total += t.cost
            stack.extend(t.children)
        return total

    def span(self) -> float:
        if not self.children:
            return self.cost
        return self.cost + max(c.span() for c in self.children)


def leaf(cost: float = 1.0) -> Task:
    return Task(cost=cost)


def fork(left: Task, right: Task, *, cost: float = 0.0) -> Task:
    """Binary fork: run ``left`` and ``right`` in parallel, then join."""
    return Task(cost=cost, children=(left, right))


def parallel_for_task(n: int, unit_cost: float = 1.0, *, fork_cost: float = 0.0) -> Task:
    """The balanced binary fork tree a parallel-for over ``n`` items builds."""
    if n <= 0:
        return leaf(0.0)
    if n == 1:
        return leaf(unit_cost)
    half = n // 2
    return fork(
        parallel_for_task(half, unit_cost, fork_cost=fork_cost),
        parallel_for_task(n - half, unit_cost, fork_cost=fork_cost),
        cost=fork_cost,
    )


class ForkJoinSimulator:
    """Greedy list scheduler for fork-join DAGs on ``P`` virtual processors."""

    def __init__(self, processors: int) -> None:
        if processors < 1:
            raise ValueError("need at least one processor")
        self.processors = processors

    def run(self, root: Task) -> float:
        """Makespan of a greedy schedule of ``root``'s DAG.

        A node becomes ready when its parent's own work finishes; each
        ready node is grabbed by the earliest-free processor.  Joins cost
        nothing, so the makespan is the latest node completion.  Greedy
        scheduling is what work-stealing runtimes (ParlayLib) approximate.
        """
        # Ready events ordered by time; processors as a heap of free times.
        events: list[tuple[float, int]] = [(0.0, 0)]
        node_of = {0: root}
        free_at = [0.0] * self.processors
        heapq.heapify(free_at)
        next_id = 1
        makespan = 0.0
        while events:
            ready_time, nid = heapq.heappop(events)
            task = node_of.pop(nid)
            proc_free = heapq.heappop(free_at)
            begin = max(ready_time, proc_free)
            end = begin + task.cost
            heapq.heappush(free_at, end)
            makespan = max(makespan, end)
            for child in task.children:
                node_of[next_id] = child
                heapq.heappush(events, (end, next_id))
                next_id += 1
        return makespan


class TestTaskAlgebra:
    def test_leaf_work_and_span(self):
        t = leaf(3.0)
        assert t.work() == 3.0
        assert t.span() == 3.0

    def test_fork_work_adds_span_maxes(self):
        t = fork(leaf(2.0), leaf(5.0), cost=1.0)
        assert t.work() == 8.0
        assert t.span() == 6.0

    def test_parallel_for_work(self):
        t = parallel_for_task(16, unit_cost=2.0)
        assert t.work() == 32.0
        assert t.span() == 2.0  # zero fork cost: span = one leaf

    def test_parallel_for_span_with_fork_cost(self):
        t = parallel_for_task(16, unit_cost=1.0, fork_cost=1.0)
        # Balanced binary tree of depth 4 over 16 leaves.
        assert t.span() == pytest.approx(5.0)

    def test_empty_parallel_for(self):
        assert parallel_for_task(0).work() == 0.0


class TestSimulator:
    def test_single_processor_runs_all_work(self):
        t = parallel_for_task(10, unit_cost=1.0)
        assert ForkJoinSimulator(1).run(t) == pytest.approx(t.work())

    def test_infinite_processors_run_span(self):
        t = fork(fork(leaf(1.0), leaf(4.0)), leaf(2.0), cost=1.0)
        assert ForkJoinSimulator(64).run(t) == pytest.approx(t.span())

    def test_brent_bound_holds(self):
        t = parallel_for_task(37, unit_cost=1.0, fork_cost=0.5)
        w, d = t.work(), t.span()
        for p in (1, 2, 3, 8):
            tp = ForkJoinSimulator(p).run(t)
            assert tp <= w / p + d + 1e-9
            assert tp >= max(w / p, d) - 1e-9

    def test_speedup_with_two_processors(self):
        t = fork(leaf(10.0), leaf(10.0))
        assert ForkJoinSimulator(2).run(t) == pytest.approx(10.0)
        assert ForkJoinSimulator(1).run(t) == pytest.approx(20.0)

    def test_invalid_processors(self):
        with pytest.raises(ValueError):
            ForkJoinSimulator(0)

    def test_unbalanced_dag(self):
        # A deep spine with one heavy leaf each level.
        t = leaf(1.0)
        for _ in range(5):
            t = fork(t, leaf(1.0), cost=0.0)
        assert ForkJoinSimulator(2).run(t) >= t.span()
