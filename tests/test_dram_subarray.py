"""Tests for repro.dram.subarray."""

import numpy as np
import pytest

from repro.dram.subarray import Subarray


@pytest.fixture
def subarray() -> Subarray:
    return Subarray(rows=16, row_size_bytes=32)


class TestStorage:
    def test_unwritten_rows_read_as_zero(self, subarray):
        assert np.all(subarray.read_row(3) == 0)

    def test_write_then_read_roundtrip(self, subarray):
        data = np.arange(32, dtype=np.uint8)
        subarray.write_row(5, data)
        assert np.array_equal(subarray.read_row(5), data)

    def test_read_returns_copy(self, subarray):
        data = np.arange(32, dtype=np.uint8)
        subarray.write_row(5, data)
        view = subarray.read_row(5)
        view[:] = 0
        assert np.array_equal(subarray.read_row(5), data)

    def test_write_wrong_size_rejected(self, subarray):
        with pytest.raises(ValueError):
            subarray.write_row(0, np.zeros(16, dtype=np.uint8))

    def test_row_out_of_range(self, subarray):
        with pytest.raises(IndexError):
            subarray.read_row(16)
        with pytest.raises(IndexError):
            subarray.write_row(-1, np.zeros(32, dtype=np.uint8))

    def test_allocated_rows_counts_only_written(self, subarray):
        assert subarray.allocated_rows == 0
        subarray.write_row(1, np.zeros(32, dtype=np.uint8))
        subarray.write_row(9, np.zeros(32, dtype=np.uint8))
        assert subarray.allocated_rows == 2


class TestSenseAmplifiers:
    def test_activate_latches_row(self, subarray):
        data = np.full(32, 7, dtype=np.uint8)
        subarray.write_row(4, data)
        latched = subarray.activate(4)
        assert np.array_equal(latched, data)

    def test_precharge_clears_open_row(self, subarray):
        subarray.activate(4)
        subarray.precharge()
        with pytest.raises(RuntimeError):
            subarray.activate_onto_open_buffer(5)

    def test_aap_second_activation_copies_buffer(self, subarray):
        source = np.arange(32, dtype=np.uint8)
        subarray.write_row(0, source)
        subarray.activate(0)
        subarray.activate_onto_open_buffer(7)
        assert np.array_equal(subarray.read_row(7), source)

    def test_second_activation_without_buffer_rejected(self, subarray):
        with pytest.raises(RuntimeError):
            subarray.activate_onto_open_buffer(3)

    def test_triple_activate_computes_majority(self, subarray):
        a = np.array([0b1100] * 32, dtype=np.uint8)
        b = np.array([0b1010] * 32, dtype=np.uint8)
        c = np.array([0b0000] * 32, dtype=np.uint8)
        subarray.write_row(0, a)
        subarray.write_row(1, b)
        subarray.write_row(2, c)
        result = subarray.triple_activate(0, 1, 2)
        assert np.all(result == 0b1000)  # majority(a, b, 0) == a & b

    def test_triple_activate_overwrites_all_three_rows(self, subarray):
        a = np.full(32, 0xF0, dtype=np.uint8)
        b = np.full(32, 0x0F, dtype=np.uint8)
        c = np.full(32, 0xFF, dtype=np.uint8)
        subarray.write_row(0, a)
        subarray.write_row(1, b)
        subarray.write_row(2, c)
        result = subarray.triple_activate(0, 1, 2)
        for row in range(3):
            assert np.array_equal(subarray.read_row(row), result)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            Subarray(rows=0, row_size_bytes=64)
        with pytest.raises(ValueError):
            Subarray(rows=8, row_size_bytes=0)
