"""Tests for the H2H triangular bit array."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitarray import TriangularBitArray, triangular_index


class TestIndexing:
    def test_paper_formula(self):
        # bit index h1*(h1-1)/2 + h2 (Section 4.2)
        assert triangular_index(1, 0) == 0
        assert triangular_index(2, 0) == 1
        assert triangular_index(2, 1) == 2
        assert triangular_index(3, 0) == 3

    def test_indices_are_dense(self):
        """Pairs in (h1-major, h2-minor) order map to consecutive bits."""
        n = 20
        idx = [triangular_index(h1, h2) for h1 in range(1, n) for h2 in range(h1)]
        assert idx == list(range(n * (n - 1) // 2))


class TestSetAndTest:
    def test_set_then_test(self):
        ba = TriangularBitArray(10)
        ba.set(7, 3)
        assert ba.is_set(7, 3)
        assert ba.is_set(3, 7)  # order-insensitive scalar API
        assert not ba.is_set(7, 4)

    def test_diagonal_is_false(self):
        ba = TriangularBitArray(5)
        assert not ba.is_set(2, 2)

    def test_vectorised_set(self):
        ba = TriangularBitArray(100)
        h1 = np.array([10, 50, 99])
        h2 = np.array([3, 20, 0])
        ba.set_pairs(h1, h2)
        assert ba.test_pairs(h1, h2).all()
        assert ba.count_set() == 3

    def test_test_keys_matches_test_pairs(self):
        ba = TriangularBitArray(30)
        ba.set_pairs(np.array([29, 17, 5]), np.array([28, 0, 4]))
        h1, h2 = np.tril_indices(30, k=-1)
        np.testing.assert_array_equal(
            ba.test_keys(triangular_index(h1, h2)), ba.test_pairs(h1, h2)
        )
        assert int(np.count_nonzero(ba.test_keys(triangular_index(h1, h2)))) == 3

    def test_idempotent_set(self):
        ba = TriangularBitArray(8)
        ba.set(5, 2)
        ba.set(5, 2)
        assert ba.count_set() == 1

    def test_duplicate_pairs_in_one_call(self):
        ba = TriangularBitArray(8)
        ba.set_pairs(np.array([5, 5]), np.array([2, 2]))
        assert ba.count_set() == 1

    def test_rejects_bad_order(self):
        ba = TriangularBitArray(8)
        with pytest.raises(ValueError):
            ba.set_pairs(np.array([2]), np.array([5]))

    def test_rejects_out_of_range(self):
        ba = TriangularBitArray(8)
        with pytest.raises(IndexError):
            ba.set_pairs(np.array([9]), np.array([0]))

    @given(
        st.lists(
            st.tuples(st.integers(1, 63), st.integers(0, 62)).filter(lambda p: p[0] > p[1]),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_python_set(self, pairs):
        ba = TriangularBitArray(64)
        reference = set()
        for h1, h2 in pairs:
            ba.set(h1, h2)
            reference.add((h1, h2))
        assert ba.count_set() == len(reference)
        for h1 in range(1, 64):
            for h2 in range(h1):
                assert ba.is_set(h1, h2) == ((h1, h2) in reference)


class TestAnalytics:
    def test_sizes(self):
        ba = TriangularBitArray(1 << 16)
        # the paper's constant: 64K hubs -> 2^16*(2^16-1)/2 bits ~ 256 MB
        assert ba.num_bits == (1 << 16) * ((1 << 16) - 1) // 2
        assert ba.nbytes == (ba.num_bits + 7) // 8
        assert 255_000_000 < ba.nbytes < 269_000_000

    def test_density(self):
        ba = TriangularBitArray(4)  # 6 bits
        ba.set(1, 0)
        ba.set(3, 2)
        assert ba.density() == pytest.approx(2 / 6)

    def test_density_empty(self):
        assert TriangularBitArray(0).density() == 0.0
        assert TriangularBitArray(1).density() == 0.0

    def test_zero_cachelines_all_zero(self):
        ba = TriangularBitArray(256)
        assert ba.zero_cacheline_fraction() == 1.0

    def test_zero_cachelines_after_set(self):
        ba = TriangularBitArray(256)
        ba.set(1, 0)  # bit 0 -> first cacheline
        frac = ba.zero_cacheline_fraction()
        nlines = (ba.data.size + 63) // 64
        assert frac == pytest.approx((nlines - 1) / nlines)

    def test_bit_index_to_cacheline(self):
        ba = TriangularBitArray(256)
        idx = np.array([0, 511, 512, 1024])
        np.testing.assert_array_equal(ba.bit_index_to_cacheline(idx), [0, 0, 1, 2])
