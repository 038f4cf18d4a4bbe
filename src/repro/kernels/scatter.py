"""Scatter-min kernel: the ``write_min`` inner loop of every relaxation.

A relaxation wave ends with a batched *scatter-min*: lower
``dist[targets]`` to ``values`` where several proposals may hit the same
target, then hand the set of touched targets back to the engine so it can
test which ones actually improved.

The kernel (``sort_reduceat``) argsorts the targets, takes per-segment
minima with ``np.minimum.reduceat``, and applies them with one
vectorized ``np.minimum`` write.  One O(k log k) sort buys fully
vectorized segment reduction, and the sorted unique target array the
engine needs next comes out for free.  It is bit-identical to the
``np.minimum.at`` + ``np.unique`` idiom of the original engine, which
``tests/kernels/`` keeps as the oracle: float64 ``min`` is exact and
order-independent, and the library admits no NaN weights and no
negative distances, so there is no ``-0.0``/NaN tie to break.

The returned array is the **sorted, deduplicated** target ids — exactly
``np.unique(targets)`` — which is the engine's changed-candidate set.

Kernels are small stateful objects (one per engine) carrying
invocation/element counters that the engine folds into :mod:`repro.obs`
metrics at run end.  Engines accept a caller-built :class:`Kernel` (or
subclass) through ``kernel=``; see ``docs/perf.md``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Kernel", "get_kernel"]

_EMPTY_I8 = np.empty(0, dtype=np.int64)


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


class Kernel:
    """The scatter-min kernel with invocation counters.

    Engines create one kernel each (via :func:`get_kernel`), so the
    counters are engine-local — no cross-thread sharing even when a
    query service runs several engines concurrently.  ``take_stats``
    snapshots and resets the counters; the engine calls it at run end to
    fold them into observer metrics under the ``impl`` label.
    """

    __slots__ = ("impl", "_calls", "_elements")

    def __init__(self, impl: str = "sort_reduceat") -> None:
        if impl != "sort_reduceat":
            raise ValueError(f"unknown kernel impl {impl!r}; the kernel is 'sort_reduceat'")
        self.impl = impl
        self._calls = 0
        self._elements = 0

    def scatter_min(
        self, dist: np.ndarray, targets: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Lower ``dist[targets]`` to ``values``; return sorted unique targets."""
        self._calls += 1
        self._elements += len(targets)
        return _scatter_sort_reduceat(dist, targets, values)

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


def get_kernel(kernel: "Kernel | None" = None) -> Kernel:
    """A fresh :class:`Kernel` for ``None``; a given kernel passes through
    unchanged (sharing its counters with the caller)."""
    if kernel is None:
        return Kernel()
    if not isinstance(kernel, Kernel):
        raise TypeError(
            f"kernel= takes a Kernel instance or None, got {type(kernel).__name__}"
        )
    return kernel
