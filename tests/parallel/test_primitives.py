"""Edge-gather primitive tests."""

import numpy as np

from repro.parallel.primitives import expand_ranges


class TestExpandRanges:
    def test_basic(self):
        got = expand_ranges(np.array([10, 20]), np.array([3, 2]))
        assert list(got) == [10, 11, 12, 20, 21]

    def test_zero_counts_skipped(self):
        got = expand_ranges(np.array([5, 9, 100]), np.array([2, 0, 1]))
        assert list(got) == [5, 6, 100]

    def test_all_zero(self):
        assert len(expand_ranges(np.array([1, 2]), np.array([0, 0]))) == 0

    def test_empty(self):
        assert len(expand_ranges(np.array([], dtype=int), np.array([], dtype=int))) == 0

    def test_overlapping_ranges_allowed(self):
        got = expand_ranges(np.array([0, 1]), np.array([3, 2]))
        assert list(got) == [0, 1, 2, 1, 2]

    def test_matches_naive_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = rng.integers(1, 30)
            starts = rng.integers(0, 1000, size=k)
            counts = rng.integers(0, 8, size=k)
            want = np.concatenate(
                [np.arange(s, s + c) for s, c in zip(starts, counts)]
            ) if counts.sum() else np.empty(0, dtype=np.int64)
            got = expand_ranges(starts, counts)
            assert np.array_equal(got, want)

    def test_single_big_range(self):
        got = expand_ranges(np.array([7]), np.array([1000]))
        assert got[0] == 7 and got[-1] == 1006 and len(got) == 1000
