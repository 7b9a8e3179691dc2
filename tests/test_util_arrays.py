"""Tests for the vectorised multi-range helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.arrays import arc_keys, concat_ranges, group_ids, key_width, segment_sums


class TestConcatRanges:
    def test_basic(self):
        out = concat_ranges(np.array([5, 10]), np.array([3, 2]))
        np.testing.assert_array_equal(out, [5, 6, 7, 10, 11])

    def test_empty(self):
        assert concat_ranges(np.array([], dtype=np.int64), np.array([], dtype=np.int64)).size == 0

    def test_zero_length_ranges_skipped(self):
        out = concat_ranges(np.array([3, 7, 9]), np.array([2, 0, 1]))
        np.testing.assert_array_equal(out, [3, 4, 9])

    def test_single_range(self):
        np.testing.assert_array_equal(concat_ranges(np.array([0]), np.array([4])), [0, 1, 2, 3])

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(0, 20)), min_size=0, max_size=30
        )
    )
    @settings(max_examples=50)
    def test_matches_naive(self, ranges):
        starts = np.array([r[0] for r in ranges], dtype=np.int64)
        lens = np.array([r[1] for r in ranges], dtype=np.int64)
        expected = (
            np.concatenate([np.arange(s, s + l) for s, l in ranges])
            if ranges and lens.sum()
            else np.empty(0, dtype=np.int64)
        )
        np.testing.assert_array_equal(concat_ranges(starts, lens), expected)


class TestGroupIds:
    def test_basic(self):
        np.testing.assert_array_equal(group_ids(np.array([2, 0, 3])), [0, 0, 2, 2, 2])

    def test_empty(self):
        assert group_ids(np.array([], dtype=np.int64)).size == 0

    def test_all_zero(self):
        assert group_ids(np.array([0, 0, 0])).size == 0


class TestSegmentSums:
    def test_basic(self):
        out = segment_sums(np.array([1, 2, 3, 4, 5]), np.array([2, 3]))
        np.testing.assert_array_equal(out, [3, 12])

    def test_zero_length_segment(self):
        out = segment_sums(np.array([1, 2, 3]), np.array([1, 0, 2]))
        np.testing.assert_array_equal(out, [1, 0, 5])

    def test_mismatched_length_raises(self):
        with pytest.raises(ValueError):
            segment_sums(np.array([1, 2]), np.array([3]))

    def test_empty(self):
        np.testing.assert_array_equal(
            segment_sums(np.array([], dtype=np.int64), np.array([0, 0])), [0, 0]
        )

    @given(st.lists(st.integers(0, 6), min_size=0, max_size=20), st.integers(0, 100))
    @settings(max_examples=50)
    def test_total_preserved(self, lens, seed):
        lens = np.array(lens, dtype=np.int64)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 10, size=int(lens.sum()))
        assert segment_sums(values, lens).sum() == values.sum()


class TestArcKeys:
    def test_keys_sorted_row_major(self):
        indptr = np.array([0, 2, 2, 3], dtype=np.int64)
        indices = np.array([1, 4, 0], dtype=np.uint16)
        width = key_width(indices)
        assert width == 5
        np.testing.assert_array_equal(arc_keys(indptr, indices, width), [1, 4, 10])

    def test_width_spans_all_structures(self):
        assert key_width(np.array([3]), np.array([], dtype=np.int64), np.array([9])) == 10
        assert key_width(np.array([], dtype=np.int64)) == 1

    def test_overflow_raises(self):
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([0, 0], dtype=np.int64)
        with pytest.raises(ValueError, match="2 rows x width"):
            arc_keys(indptr, indices, 1 << 62)
