"""Frontier structure tests: sparse/dense representations and switching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import Frontier


def ids(*xs):
    return np.array(xs, dtype=np.int64)


def extract(f, priorities_of, threshold):
    """The engine's ``F.Extract(θ)``: split ``ids()`` by priority and
    keep the deferred part with ``replace`` (a subsequence, so sorted)."""
    current = f.ids()
    take = priorities_of(current) <= threshold
    f.replace(current[~take], assume_sorted=True)
    return current[take]


class TestBasics:
    def test_starts_empty(self):
        f = Frontier(100)
        assert len(f) == 0
        assert list(f.ids()) == []

    def test_add_and_len(self):
        f = Frontier(100)
        f.add(ids(3, 7, 1))
        assert len(f) == 3
        assert list(f.ids()) == [1, 3, 7]

    def test_add_deduplicates(self):
        f = Frontier(100)
        f.add(ids(5, 5, 2))
        f.add(ids(2, 9))
        assert list(f.ids()) == [2, 5, 9]

    def test_add_empty_noop(self):
        f = Frontier(100)
        f.add(np.empty(0, dtype=np.int64))
        assert len(f) == 0

    def test_replace(self):
        f = Frontier(100)
        f.add(ids(1, 2, 3))
        f.replace(ids(8, 9))
        assert list(f.ids()) == [8, 9]

    def test_clear(self):
        f = Frontier(100)
        f.add(ids(1, 2))
        f.replace(np.empty(0, dtype=np.int64))
        assert len(f) == 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            Frontier(10, mode="weird")


class TestExtract:
    def test_extract_below_threshold(self):
        f = Frontier(100)
        f.add(ids(0, 1, 2, 3))
        prio = {0: 1.0, 1: 5.0, 2: 3.0, 3: 9.0}
        got = extract(f, lambda e: np.array([prio[int(x)] for x in e]), 4.0)
        assert sorted(got.tolist()) == [0, 2]
        assert sorted(f.ids().tolist()) == [1, 3]

    def test_extract_all(self):
        f = Frontier(100)
        f.add(ids(4, 5))
        got = extract(f, lambda e: np.zeros(len(e)), 1.0)
        assert len(got) == 2
        assert len(f) == 0

    def test_extract_empty(self):
        f = Frontier(100)
        got = extract(f, lambda e: np.zeros(len(e)), 1.0)
        assert len(got) == 0


class TestModes:
    def test_forced_dense(self):
        f = Frontier(50, mode="dense")
        assert f.is_dense
        f.add(ids(3, 1))
        assert list(f.ids()) == [1, 3]
        assert len(f) == 2

    def test_forced_sparse_never_switches(self):
        f = Frontier(10, mode="sparse")
        f.add(np.arange(10))
        assert not f.is_dense

    def test_auto_switches_to_dense_when_large(self):
        f = Frontier(100, mode="auto")
        f.add(np.arange(20))  # 20% > 5% threshold
        assert f.is_dense
        assert len(f) == 20

    def test_auto_switches_back_to_sparse(self):
        f = Frontier(1000, mode="auto")
        f.add(np.arange(100))
        assert f.is_dense
        f.replace(ids(1, 2))  # 0.2% < 2% threshold
        assert not f.is_dense
        assert list(f.ids()) == [1, 2]

    def test_dense_and_sparse_agree(self):
        """Same operation sequence gives identical contents in both modes."""
        rng = np.random.default_rng(0)
        fs = Frontier(500, mode="sparse")
        fd = Frontier(500, mode="dense")
        for _ in range(10):
            batch = rng.integers(0, 500, size=30)
            fs.add(batch)
            fd.add(batch)
            thr = rng.uniform(0, 500)
            es = extract(fs, lambda e: e.astype(float), thr)
            ed = extract(fd, lambda e: e.astype(float), thr)
            assert np.array_equal(np.sort(es), np.sort(ed))
        assert np.array_equal(fs.ids(), fd.ids())


class TestIncrementalCount:
    """len() must track true cardinality through every mutation path."""

    def test_dense_count_matches_flags_under_random_ops(self):
        rng = np.random.default_rng(7)
        f = Frontier(300, mode="dense")
        for _ in range(50):
            op = rng.integers(0, 3)
            if op == 0:
                # Unsorted batch with duplicates — the dedup fallback.
                f.add(rng.integers(0, 300, size=int(rng.integers(1, 40))))
            elif op == 1:
                # Sorted-unique batch — the fast counting path.
                f.add(np.unique(rng.integers(0, 300, size=10)))
            else:
                extract(f, lambda e: e.astype(float), float(rng.uniform(0, 300)))
            assert len(f) == len(f.ids())

    def test_dense_count_overlapping_adds(self):
        f = Frontier(50, mode="dense")
        f.add(ids(1, 2, 3))
        f.add(ids(2, 3, 4))  # two already present
        assert len(f) == 4
        f.add(ids(4, 4, 4))  # duplicate-only batch, nothing new
        assert len(f) == 4
        f.add(ids(9, 7, 7, 1))  # unsorted with dups, one genuinely new x2
        assert len(f) == 6

    def test_sparse_merge_matches_unique_concat(self):
        rng = np.random.default_rng(11)
        f = Frontier(10_000, mode="sparse")
        reference = np.empty(0, dtype=np.int64)
        for _ in range(30):
            batch = rng.integers(0, 10_000, size=int(rng.integers(1, 50)))
            f.add(batch)
            reference = np.unique(np.concatenate([reference, batch]))
            assert np.array_equal(f.ids(), reference)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.lists(st.integers(0, 199), max_size=60), min_size=1, max_size=8))
    def test_sparse_add_is_union(self, batches):
        """Unsorted, duplicated and overlapping batches: the sparse set
        after each add is exactly the running np.union1d."""
        f = Frontier(200, mode="sparse")
        expect = np.empty(0, dtype=np.int64)
        for batch in batches:
            arr = np.array(batch, dtype=np.int64)
            f.add(arr)
            expect = np.union1d(expect, arr)
            arr[:] = -1  # the frontier must not alias the caller's batch
            got = f.ids()
            assert got.dtype == np.int64
            assert np.array_equal(got, expect)

    def test_sparse_add_beyond_current_max(self):
        """Insertions past the end (searchsorted pos == len) must work."""
        f = Frontier(100, mode="sparse")
        f.add(ids(1, 2, 3))
        f.add(ids(50, 99))
        assert list(f.ids()) == [1, 2, 3, 50, 99]

    def test_count_survives_mode_switches(self):
        f = Frontier(100, mode="auto")
        f.add(np.arange(0, 20))  # forces dense
        assert f.is_dense and len(f) == 20
        f.add(np.arange(10, 30))  # half overlap
        assert len(f) == 30
        f.replace(ids(1))  # 1% < 2% hysteresis floor: back to sparse
        assert not f.is_dense and len(f) == 1
        f.add(np.arange(50))  # dense again
        assert f.is_dense
        assert len(f) == len(f.ids()) == 50
