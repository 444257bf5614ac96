"""Tests for repro.ambit.bitvector."""

import numpy as np
import pytest

from repro.ambit.bitvector import BulkBitVector


class TestSizing:
    def test_rows_and_storage(self):
        vector = BulkBitVector(num_bits=100, row_size_bytes=8)
        assert vector.num_bytes == 13
        assert vector.num_rows == 2
        assert vector.storage_bytes == 16

    def test_exact_row_multiple(self):
        vector = BulkBitVector(num_bits=64, row_size_bytes=8)
        assert vector.num_rows == 1
        assert vector.storage_bytes == 8

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            BulkBitVector(0)
        with pytest.raises(ValueError):
            BulkBitVector(8, row_size_bytes=0)


class TestBitAccess:
    def test_count_ones(self):
        vector = BulkBitVector(20)
        # Bits 0, 5, 13 and 19, LSB-first within each byte.
        vector.data[:3] = [0b0010_0001, 0b0010_0000, 0b0000_1000]
        assert vector.count_ones() == 4
        assert np.flatnonzero(vector.to_bits()).tolist() == [0, 5, 13, 19]

    def test_count_ones_ignores_padding(self):
        vector = BulkBitVector(10)
        vector.fill_value(1)
        assert vector.count_ones() == 10


class TestLoading:
    def test_fill_value(self):
        ones = BulkBitVector(77).fill_value(1)
        assert ones.count_ones() == 77
        zeros = BulkBitVector(77).fill_value(0)
        assert zeros.count_ones() == 0
        with pytest.raises(ValueError):
            BulkBitVector(8).fill_value(2)

    def test_fill_random_density(self):
        vector = BulkBitVector(100_000).fill_random(seed=3, density=0.25)
        density = vector.count_ones() / vector.num_bits
        assert 0.22 < density < 0.28

    def test_fill_random_reproducible(self):
        a = BulkBitVector(1000).fill_random(seed=11)
        b = BulkBitVector(1000).fill_random(seed=11)
        assert np.array_equal(a.data, b.data)

    def test_fill_random_density_bounds(self):
        with pytest.raises(ValueError):
            BulkBitVector(8).fill_random(density=1.5)

    def test_to_bits_unpacks_the_logical_bits(self):
        vector = BulkBitVector(1000).fill_random(seed=0)
        bits = vector.to_bits()
        assert bits.size == 1000
        assert np.array_equal(np.packbits(bits, bitorder="little"), vector.data[: vector.num_bytes])

    def test_row_bytes_roundtrip(self):
        vector = BulkBitVector(8 * 64, row_size_bytes=16)
        chunk = np.arange(16, dtype=np.uint8)
        vector.set_row_bytes(2, chunk)
        assert np.array_equal(vector.row_bytes(2), chunk)
        with pytest.raises(IndexError):
            vector.row_bytes(10)
        with pytest.raises(ValueError):
            vector.set_row_bytes(0, np.zeros(3, dtype=np.uint8))


class TestReferenceOps:
    def test_expected_ops_match_numpy(self):
        a = BulkBitVector(256).fill_random(seed=1)
        b = BulkBitVector(256).fill_random(seed=2)
        assert np.array_equal(a.expected_and(b), a.data[:32] & b.data[:32])
        assert np.array_equal(a.expected_or(b), a.data[:32] | b.data[:32])
        assert np.array_equal(a.expected_xor(b), a.data[:32] ^ b.data[:32])
        assert np.array_equal(a.expected_not(), np.bitwise_not(a.data[:32]))

    def test_length_mismatch_rejected(self):
        a = BulkBitVector(256)
        b = BulkBitVector(128)
        with pytest.raises(ValueError):
            a.expected_and(b)

    def test_copy_like_preserves_shape_only(self):
        a = BulkBitVector(100, row_size_bytes=32).fill_value(1)
        twin = a.copy_like()
        assert twin.num_bits == 100
        assert twin.row_size_bytes == 32
        assert twin.count_ones() == 0


class TestAdoptedStorage:
    def test_data_is_adopted_without_copying(self):
        backing = np.arange(128, dtype=np.uint8)
        vector = BulkBitVector(1024, row_size_bytes=64, data=backing)
        assert vector.data is backing
        assert vector.storage_bytes == 128
        backing[0] = 0xFF
        assert vector.to_bits()[7] == 1

    def test_wrong_size_or_dtype_rejected(self):
        with pytest.raises(ValueError):
            BulkBitVector(1024, row_size_bytes=64, data=np.zeros(64, dtype=np.uint8))
        with pytest.raises(ValueError):
            BulkBitVector(1024, row_size_bytes=64, data=np.zeros(128, dtype=np.uint16))
