"""Property suite for the scatter-min kernel family.

Every implementation must be *bit-identical* to the ``np.minimum.at``
reference — same distance bytes, same (sorted-unique) changed-target
array — across heavy duplicates, inf/finite mixes, empty and
single-element batches.  float64 min is order-independent and the
engine feeds no NaNs and no signed zeros, so byte equality is the
specification, not an approximation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.scatter import DEFAULT_KERNEL, KERNEL_IMPLS, Kernel, get_kernel

NON_REFERENCE = tuple(i for i in KERNEL_IMPLS if i != "ufunc_at")


def _reference(dist, targets, values):
    """The pre-kernel engine idiom: minimum.at then a separate unique."""
    np.minimum.at(dist, targets, values)
    return np.unique(targets)


def _random_batch(rng, n, size, *, dup_ratio=1, inf_values=False):
    targets = rng.integers(0, max(n // max(dup_ratio, 1), 1), size=size).astype(np.int64)
    values = rng.uniform(0.0, 10.0, size=size)
    if inf_values:
        values[rng.random(size) < 0.3] = np.inf
    return targets, values


@pytest.mark.parametrize("impl", NON_REFERENCE)
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


@pytest.mark.parametrize("impl", KERNEL_IMPLS)
def test_empty_batch(impl):
    dist = np.array([1.0, np.inf, 3.0])
    before = dist.tobytes()
    changed = Kernel(impl).scatter_min(
        dist, np.empty(0, dtype=np.int64), np.empty(0)
    )
    assert len(changed) == 0
    assert changed.dtype == np.int64
    assert dist.tobytes() == before


@pytest.mark.parametrize("impl", KERNEL_IMPLS)
def test_single_element_batch(impl):
    dist = np.array([np.inf, 5.0, 2.0])
    changed = Kernel(impl).scatter_min(
        dist, np.array([1], dtype=np.int64), np.array([3.5])
    )
    assert list(changed) == [1]
    assert list(dist) == [np.inf, 3.5, 2.0]


@pytest.mark.parametrize("impl", NON_REFERENCE)
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


@pytest.mark.parametrize("impl", NON_REFERENCE)
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
    kern = Kernel("sort_reduceat")
    dist = np.full(10, np.inf)
    kern.scatter_min(dist, np.array([1, 1], dtype=np.int64), np.array([2.0, 1.0]))
    assert kern.take_stats() == {"sort_reduceat": {"calls": 1, "elements": 2}}
    # take_stats resets: a second call reports nothing.
    assert kern.take_stats() == {}


def test_get_kernel_contract(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL", raising=False)
    assert DEFAULT_KERNEL == "sort_reduceat"
    assert get_kernel(None).impl == DEFAULT_KERNEL
    monkeypatch.setenv("REPRO_KERNEL", "ufunc_at")
    assert get_kernel(None).impl == "ufunc_at"
    # Explicit spec wins over the environment.
    assert get_kernel("sort_reduceat").impl == "sort_reduceat"
    kern = Kernel()
    assert kern.impl == DEFAULT_KERNEL
    assert get_kernel(kern) is kern
    with pytest.raises(ValueError):
        Kernel("no-such-impl")
    with pytest.raises(ValueError):
        Kernel("auto")
    assert set(KERNEL_IMPLS) == {"ufunc_at", "sort_reduceat"}
