"""Property suite for the scatter-min kernel.

The production kernel must be *bit-identical* to the ``np.minimum.at``
oracle kept here — same distance bytes, same (sorted-unique) changed-
target array — across heavy duplicates, inf/finite mixes, empty and
single-element batches.  float64 min is order-independent and the
engine feeds no NaNs and no signed zeros, so byte equality is the
specification, not an approximation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.scatter import Kernel, get_kernel

#: the production kernel's label (parametrized so ids name the impl).
PRODUCTION = (Kernel().impl,)


def _reference(dist, targets, values):
    """The oracle: the original engine's minimum.at then a separate unique."""
    np.minimum.at(dist, targets, values)
    return np.unique(targets)


class UfuncAtKernel(Kernel):
    """A :class:`Kernel` that scatters through the oracle.

    Passed through ``kernel=`` (the hook a caller-built kernel uses), it
    runs whole engine searches on the original ``write_min`` idiom.
    """

    def scatter_min(self, dist, targets, values):
        return _reference(dist, targets, values)


#: every kernel the contract tests cover, by label.
KERNELS = {"sort_reduceat": Kernel, "ufunc_at": UfuncAtKernel}


def _random_batch(rng, n, size, *, dup_ratio=1, inf_values=False):
    targets = rng.integers(0, max(n // max(dup_ratio, 1), 1), size=size).astype(np.int64)
    values = rng.uniform(0.0, 10.0, size=size)
    if inf_values:
        values[rng.random(size) < 0.3] = np.inf
    return targets, values


@pytest.mark.parametrize("impl", PRODUCTION)
@pytest.mark.parametrize("seed", range(20))
def test_matches_reference_bitwise(impl, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 300))
    dist0 = rng.uniform(0.0, 5.0, size=n)
    dist0[rng.random(n) < 0.4] = np.inf
    size = int(rng.integers(0, 4 * n))
    targets, values = _random_batch(
        rng, n, size, dup_ratio=int(rng.integers(1, 6)),
        inf_values=bool(seed % 2),
    )

    expect_dist = dist0.copy()
    expect_changed = _reference(expect_dist, targets, values)

    got_dist = dist0.copy()
    got_changed = Kernel(impl).scatter_min(got_dist, targets, values)

    assert got_dist.tobytes() == expect_dist.tobytes()
    assert np.array_equal(got_changed, expect_changed)
    assert got_changed.dtype == np.int64


@pytest.mark.parametrize("impl", KERNELS)
def test_empty_batch(impl):
    dist = np.array([1.0, np.inf, 3.0])
    before = dist.tobytes()
    changed = KERNELS[impl]().scatter_min(
        dist, np.empty(0, dtype=np.int64), np.empty(0)
    )
    assert len(changed) == 0
    assert changed.dtype == np.int64
    assert dist.tobytes() == before


@pytest.mark.parametrize("impl", KERNELS)
def test_single_element_batch(impl):
    dist = np.array([np.inf, 5.0, 2.0])
    changed = KERNELS[impl]().scatter_min(
        dist, np.array([1], dtype=np.int64), np.array([3.5])
    )
    assert list(changed) == [1]
    assert list(dist) == [np.inf, 3.5, 2.0]


@pytest.mark.parametrize("impl", PRODUCTION)
def test_heavy_duplicates_single_target(impl):
    """All writes collide on one slot: the worst case for minimum.at."""
    rng = np.random.default_rng(99)
    dist = np.full(4, np.inf)
    values = rng.uniform(0.0, 1.0, size=10_000)
    targets = np.full(10_000, 2, dtype=np.int64)
    changed = Kernel(impl).scatter_min(dist, targets, values)
    assert list(changed) == [2]
    assert dist[2] == values.min()
    assert np.isinf(dist[[0, 1, 3]]).all()


@pytest.mark.parametrize("impl", PRODUCTION)
def test_all_inf_values_still_report_targets(impl):
    """scatter_min returns the *touched* unique targets, improving or not

    — the engine filters to improving entries before calling, so the
    contract is unique(targets), matching the reference exactly."""
    dist = np.array([1.0, 2.0])
    expect_dist = dist.copy()
    expect = _reference(expect_dist, np.array([0, 0, 1]), np.full(3, np.inf))
    got_dist = dist.copy()
    got = Kernel(impl).scatter_min(
        got_dist, np.array([0, 0, 1], dtype=np.int64), np.full(3, np.inf)
    )
    assert np.array_equal(got, expect)
    assert got_dist.tobytes() == expect_dist.tobytes()


def test_take_stats_snapshots_and_resets():
    kern = Kernel()
    dist = np.full(10, np.inf)
    kern.scatter_min(dist, np.array([1, 1], dtype=np.int64), np.array([2.0, 1.0]))
    assert kern.take_stats() == {"sort_reduceat": {"calls": 1, "elements": 2}}
    # take_stats resets: a second call reports nothing.
    assert kern.take_stats() == {}


def test_get_kernel_contract():
    assert get_kernel(None).impl == "sort_reduceat"
    assert get_kernel(None) is not get_kernel(None)  # fresh counters per engine
    # The traced benchmark builds its subclass from the default's label.
    assert Kernel(get_kernel(None).impl).impl == "sort_reduceat"
    kern = UfuncAtKernel()
    assert get_kernel(kern) is kern
    for name in ("ufunc_at", "no-such-impl", "auto"):
        with pytest.raises(ValueError):
            Kernel(name)
    with pytest.raises(TypeError, match="Kernel instance"):
        get_kernel("sort_reduceat")
