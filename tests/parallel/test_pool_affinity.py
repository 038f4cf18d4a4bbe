"""Each pool worker is bound to its own CPU when the host has enough.

Two freshly forked workers left to the scheduler can share one CPU for
a whole burst while another CPU idles; the pool's executor initializer
pins worker ``i`` to the ``i``-th CPU of the parent's affinity set when
``1 < workers <= CPUs``, and leaves affinity alone otherwise.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.parallel.pool import ProcessPool

pytestmark = [
    pytest.mark.pool,
    pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API"),
]

CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _affinities(pool: ProcessPool, *, pinned: bool, timeout: float = 10.0) -> dict:
    """Each live worker's CPU set, read from this process.

    A worker runs the initializer right after it starts, so wait (up
    to ``timeout``) until every worker reads single-CPU when ``pinned``.
    """
    pool.open()
    deadline = time.monotonic() + timeout
    while True:
        pids = list(pool._executor._processes)
        sets = {pid: frozenset(os.sched_getaffinity(pid)) for pid in pids}
        if not pinned or all(len(cpus) == 1 for cpus in sets.values()):
            return sets
        if time.monotonic() > deadline:
            return sets
        time.sleep(0.01)


@pytest.mark.skipif(len(CPUS) < 2, reason="needs at least 2 CPUs")
def test_two_workers_get_distinct_single_cpus_and_keep_them_after_respawn():
    with ProcessPool(2) as pool:
        first = _affinities(pool, pinned=True)
        assert len(first) == 2
        assert all(len(cpus) == 1 for cpus in first.values()), first
        assert len(set(first.values())) == 2, first
        assert set().union(*first.values()) <= set(CPUS)

        pool._quarantine("test")  # kill the worker set; next dispatch respawns
        second = _affinities(pool, pinned=True)
        assert not set(first) & set(second)
        assert all(len(cpus) == 1 for cpus in second.values()), second
        assert len(set(second.values())) == 2, second


def test_more_workers_than_cpus_keep_their_affinity():
    with ProcessPool(len(CPUS) + 1) as pool:
        sets = _affinities(pool, pinned=False)
        assert len(sets) == len(CPUS) + 1
        assert all(cpus == frozenset(CPUS) for cpus in sets.values()), sets
