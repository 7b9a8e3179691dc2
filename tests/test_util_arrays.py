"""Tests for the vectorised multi-range helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import tiles_for_phase1
from repro.dist.plan import wedge_chunks
from repro.graph.csr import OrientedGraph
from repro.util.arrays import (
    arc_keys, concat_ranges, group_ids, key_width, pair_runs, segment_sums,
)


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


@st.composite
def csr_rows(draw):
    """A CSR with empty and one-element rows among the rest: each row a
    sorted set of distinct column IDs."""
    rows = draw(st.lists(
        st.lists(st.integers(0, 30), max_size=9, unique=True).map(sorted),
        max_size=12,
    ))
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    return indptr, indices


def _naive_pairs(indptr, arcs):
    """The literal nested loop: each arc with every earlier arc of its row."""
    pairs = []
    for a in arcs:
        row = int(np.searchsorted(indptr, a, side="right")) - 1
        pairs.extend((int(a), e) for e in range(int(indptr[row]), int(a)))
    return pairs


def _runs(indptr, arcs, chunk):
    blocks = list(pair_runs(indptr, arcs, chunk))
    sizes = [later.size for later, _ in blocks]
    assert all(s == chunk for s in sizes[:-1]) and all(0 < s <= chunk for s in sizes)
    return [
        (int(a), int(e))
        for later, earlier in blocks
        for a, e in zip(later, earlier)
    ]


class TestPairRuns:
    def test_runs_in_row_order(self):
        indptr = np.array([0, 3, 3, 4], dtype=np.int64)
        blocks = list(pair_runs(indptr, np.arange(4), chunk=2))
        later = np.concatenate([b[0] for b in blocks])
        earlier = np.concatenate([b[1] for b in blocks])
        np.testing.assert_array_equal(later, [1, 2, 2])
        np.testing.assert_array_equal(earlier, [0, 0, 1])
        assert [b[0].size for b in blocks] == [2, 1]

    def test_no_pairs(self):
        indptr = np.array([0, 1, 1, 2], dtype=np.int64)
        assert list(pair_runs(indptr, np.arange(2))) == []
        assert list(pair_runs(indptr, np.array([], dtype=np.int64))) == []

    def test_chunk_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk"):
            next(pair_runs(np.array([0, 2]), np.arange(2), chunk=0))

    @given(csr_rows(), st.integers(1, 7), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_nested_loop_on_arc_subsets(self, csr, chunk, data):
        indptr, indices = csr
        arcs = data.draw(st.lists(st.integers(0, max(indices.size - 1, 0)),
                                  max_size=20) if indices.size else st.just([]))
        arcs = np.array(arcs, dtype=np.int64)
        assert _runs(indptr, arcs, chunk) == _naive_pairs(indptr, arcs)

    @given(csr_rows(), st.integers(1, 7), st.integers(1, 4), st.integers(1, 4),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_nested_loop_on_tile_slices(
        self, csr, chunk, partitions, threshold, data
    ):
        indptr, indices = csr
        tiles = tiles_for_phase1(OrientedGraph(indptr, indices), partitions,
                                 degree_threshold=threshold)
        picked = data.draw(st.lists(st.sampled_from(tiles), max_size=6)
                           if tiles else st.just([]))
        arcs = np.array(
            [indptr[t.vertex] + i for t in picked for i in range(t.start, t.stop)],
            dtype=np.int64,
        )
        pairs = _runs(indptr, arcs, chunk)
        assert pairs == _naive_pairs(indptr, arcs)
        assert len(pairs) == sum(t.work for t in picked)

    @given(csr_rows(), st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_wedge_chunks_match_naive_wedges(self, csr, chunk):
        indptr, indices = csr
        apex_ids = np.arange(100, 100 + indptr.size - 1, dtype=np.int64)
        expected = [
            (int(apex_ids[k]), int(row[i]), int(row[j]))
            for k in range(indptr.size - 1)
            for row in [indices[indptr[k]:indptr[k + 1]]]
            for i in range(row.size)
            for j in range(i)
        ]
        got = [
            (int(a), int(b), int(c))
            for block in wedge_chunks(indptr, indices, apex_ids, chunk_pairs=chunk)
            for a, b, c in zip(*block)
        ]
        assert got == expected
