"""Scatter-min kernels: the ``write_min`` inner loop of every relaxation.

A relaxation wave ends with a batched *scatter-min*: lower
``dist[targets]`` to ``values`` where several proposals may hit the same
target, then hand the set of touched targets back to the engine so it can
test which ones actually improved.  Two interchangeable implementations
answer that contract, bit-identically (float64 ``min`` is exact,
order-independent, and the library admits no NaN weights and no negative
distances, so there is no ``-0.0``/NaN tie to break):

``sort_reduceat``
    argsort the targets, take per-segment minima with
    ``np.minimum.reduceat``, and apply them with one vectorized
    ``np.minimum`` write.  One O(k log k) sort buys fully vectorized
    segment reduction — and the sorted unique target array the engine
    needs next comes out for free.  The production kernel: it is faster
    than ``ufunc_at`` at every wave size the benchmarks produce, from a
    hundred targets up.
``ufunc_at``
    ``np.minimum.at`` plus ``np.unique`` — the unbuffered ufunc loop of
    the original engine, kept as the reference the kernel tests compare
    against.

The returned array is the **sorted, deduplicated** target ids — exactly
``np.unique(targets)`` — which is the engine's changed-candidate set.

Kernels are small stateful objects (one per engine) carrying
invocation/element counters that the engine folds into :mod:`repro.obs`
metrics at run end.  Select one with the ``kernel=`` engine argument,
the ``REPRO_KERNEL`` environment variable, or the ``--kernel`` CLI flag;
see ``docs/perf.md``.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = ["DEFAULT_KERNEL", "KERNEL_IMPLS", "Kernel", "get_kernel"]

#: selectable implementation names.
KERNEL_IMPLS = ("ufunc_at", "sort_reduceat")
#: the implementation engines use unless told otherwise.
DEFAULT_KERNEL = "sort_reduceat"

_EMPTY_I8 = np.empty(0, dtype=np.int64)


def _scatter_ufunc_at(dist: np.ndarray, targets: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Reference scatter-min: unbuffered ``np.minimum.at``."""
    if len(targets) == 0:
        return _EMPTY_I8
    np.minimum.at(dist, targets, values)
    return np.unique(targets)


def _scatter_sort_reduceat(
    dist: np.ndarray, targets: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Segmented scatter-min: argsort + ``minimum.reduceat`` + one write."""
    k = len(targets)
    if k == 0:
        return _EMPTY_I8
    if k == 1:
        t = targets[:1].astype(np.int64, copy=True)
        np.minimum.at(dist, t, values)
        return t
    order = targets.argsort()
    st = targets[order]
    sv = values[order]
    # Segment starts: position 0 plus every index where the target changes.
    starts = np.empty(k, dtype=bool)
    starts[0] = True
    np.not_equal(st[1:], st[:-1], out=starts[1:])
    seg_starts = starts.nonzero()[0]
    mins = np.minimum.reduceat(sv, seg_starts)
    uniq = st[seg_starts]
    dist[uniq] = np.minimum(dist[uniq], mins)
    return uniq


_IMPL_FNS = {
    "ufunc_at": _scatter_ufunc_at,
    "sort_reduceat": _scatter_sort_reduceat,
}


class Kernel:
    """One configured scatter-min kernel with invocation counters.

    Engines create one kernel each (via :func:`get_kernel`), so the
    counters are engine-local — no cross-thread sharing even when a
    query service runs several engines concurrently.  ``take_stats``
    snapshots and resets the counters; the engine calls it at run end to
    fold them into observer metrics.
    """

    __slots__ = ("impl", "_fn", "_calls", "_elements")

    def __init__(self, impl: str = DEFAULT_KERNEL) -> None:
        if impl not in KERNEL_IMPLS:
            raise ValueError(
                f"unknown kernel impl {impl!r}; options: {KERNEL_IMPLS}"
            )
        self.impl = impl
        self._fn = _IMPL_FNS[impl]
        self._calls = 0
        self._elements = 0

    def scatter_min(
        self, dist: np.ndarray, targets: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Lower ``dist[targets]`` to ``values``; return sorted unique targets."""
        self._calls += 1
        self._elements += len(targets)
        return self._fn(dist, targets, values)

    def take_stats(self) -> dict[str, dict[str, int]]:
        """Snapshot and reset the counters.

        Returns ``{impl: {"calls": c, "elements": e}}``, or ``{}`` when
        the kernel ran no scatter since the last snapshot.
        """
        if not self._calls:
            return {}
        out = {self.impl: {"calls": self._calls, "elements": self._elements}}
        self._calls = 0
        self._elements = 0
        return out


def get_kernel(spec: "str | Kernel | None" = None) -> Kernel:
    """Resolve a kernel spec to a fresh :class:`Kernel` instance.

    ``None`` resolves through the ``REPRO_KERNEL`` environment variable,
    defaulting to :data:`DEFAULT_KERNEL`; a string names an
    implementation; an existing :class:`Kernel` passes through unchanged
    (sharing its counters with the caller).
    """
    if isinstance(spec, Kernel):
        return spec
    if spec is None:
        spec = os.environ.get("REPRO_KERNEL") or DEFAULT_KERNEL
    return Kernel(spec)
