"""Frontier data structures with sparse-dense switching (paper App. B).

A frontier holds *elements*: composite ids ``e = source_index * n + v``
encoding vertex ``v`` searched from the ``i``-th source (the paper's
``v^(i)`` copies).  Two representations mirror the C++ implementation:

* **sparse** — a deduplicated id array (the parallel hash bag), cheap
  when the frontier is a small fraction of the graph;
* **dense** — a boolean membership array over all ``k*n`` element slots,
  cheaper per element once the frontier is a constant fraction of ``n``
  because flag writes beat hash-bag inserts and are cache friendly.

``mode="auto"`` switches per step on a size threshold, as the paper's
sparse-dense optimization does.

Dense mode maintains its cardinality incrementally (``_count``): the
engine asks for ``len(frontier)`` several times per step (loop guard,
switch hysteresis), and summing the whole membership array each time is
an O(k·n) tax the add path can pay once, in O(batch).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Frontier"]


class Frontier:
    """Set of composite element ids with batched add / replace.

    The engine performs ``F.Extract(θ)`` of Alg. 2 itself: it splits
    :meth:`ids` by priority and keeps the deferred part with
    :meth:`replace`, which lets one prune mask cover both halves.
    """

    #: auto mode goes dense above this fraction of capacity.
    DENSE_FRACTION = 0.05
    #: ... and back to sparse below this fraction (hysteresis).
    SPARSE_FRACTION = 0.02

    def __init__(self, capacity: int, mode: str = "auto", *, observer=None) -> None:
        if mode not in ("auto", "sparse", "dense"):
            raise ValueError(f"unknown frontier mode {mode!r}")
        self.capacity = int(capacity)
        self.mode = mode
        self._observer = observer
        self._sparse: np.ndarray = np.empty(0, dtype=np.int64)
        self._dense: np.ndarray | None = None
        #: dense-mode cardinality, updated incrementally by add/replace.
        self._count = 0
        self._use_dense = mode == "dense"
        if self._use_dense:
            self._dense = np.zeros(self.capacity, dtype=bool)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if self._use_dense:
            return self._count
        return len(self._sparse)

    @property
    def is_dense(self) -> bool:
        return self._use_dense

    def ids(self) -> np.ndarray:
        """Current element ids as a sorted array (a copy)."""
        if self._use_dense:
            return np.flatnonzero(self._dense)
        return self._sparse.copy()

    # ------------------------------------------------------------------
    def add(self, eids: np.ndarray) -> None:
        """Insert a batch of element ids (duplicates are collapsed)."""
        eids = np.asarray(eids, dtype=np.int64)
        if len(eids) == 0:
            return
        if self._use_dense:
            pre = self._dense[eids]
            if not pre.all():
                fresh = eids[~pre]
                self._dense[fresh] = True
                # The engine feeds sorted-unique batches; count them
                # directly, falling back to a dedup for arbitrary input.
                if len(fresh) == 1 or (np.diff(fresh) > 0).all():
                    self._count += len(fresh)
                else:
                    self._count += len(np.unique(fresh))
        else:
            merged = np.concatenate((self._sparse, eids))
            if len(merged) > 1:
                # _sparse is sorted and the engine's batches are sorted,
                # so the stable sort (timsort on int64) merges two runs in
                # linear time; the default quicksort would not.
                merged.sort(kind="stable")
                fresh = np.empty(len(merged), dtype=bool)
                fresh[0] = True
                np.not_equal(merged[1:], merged[:-1], out=fresh[1:])
                merged = merged[fresh]
            self._sparse = merged
        self._maybe_switch()

    def replace(self, eids: np.ndarray, *, assume_sorted: bool = False) -> None:
        """Reset contents to exactly ``eids`` (assumed deduplicated).

        ``assume_sorted=True`` skips the sort — valid whenever ``eids``
        is a subsequence of a previous ``ids()`` result, as in the
        engine's extract/defer split.
        """
        eids = np.asarray(eids, dtype=np.int64)
        if self._use_dense:
            self._dense[:] = False
            self._dense[eids] = True
            self._count = len(eids)
        else:
            self._sparse = eids if assume_sorted else np.sort(eids)
        self._maybe_switch()

    # ------------------------------------------------------------------
    def _maybe_switch(self) -> None:
        if self.mode != "auto":
            return
        size = len(self)
        if not self._use_dense and size > self.DENSE_FRACTION * self.capacity:
            dense = np.zeros(self.capacity, dtype=bool)
            dense[self._sparse] = True
            self._dense = dense
            self._sparse = np.empty(0, dtype=np.int64)
            self._use_dense = True
            self._count = size
            if self._observer is not None:
                self._observer.on_frontier_switch(True, size)
        elif self._use_dense and size < self.SPARSE_FRACTION * self.capacity:
            self._sparse = np.flatnonzero(self._dense)
            self._dense = None
            self._use_dense = False
            if self._observer is not None:
                self._observer.on_frontier_switch(False, size)
