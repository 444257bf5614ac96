"""Tests for repro.dram.bank."""

import numpy as np
import pytest

from repro.dram.bank import Bank


@pytest.fixture
def bank() -> Bank:
    return Bank(subarrays=2, rows_per_subarray=8, row_size_bytes=64)


class TestAddressing:
    def test_rows_total(self, bank):
        assert bank.rows == 16

    def test_locate_maps_to_subarray_and_local_row(self, bank):
        subarray, local = bank.locate(9)
        assert subarray is bank.subarrays[1]
        assert local == 1

    def test_locate_out_of_range(self, bank):
        with pytest.raises(IndexError):
            bank.locate(16)

    def test_same_subarray(self, bank):
        assert bank.same_subarray(0, 7)
        assert not bank.same_subarray(7, 8)


class TestPimPrimitives:
    def test_aap_copies_row(self, bank):
        source = np.random.default_rng(0).integers(0, 256, 64).astype(np.uint8)
        bank.write_row(2, source)
        bank.aap(2, 5)
        assert np.array_equal(bank.read_row(5), source)

    def test_aap_across_subarrays_rejected(self, bank):
        with pytest.raises(ValueError):
            bank.aap(2, 10)

    def test_tra_computes_majority_and_restores(self, bank):
        a = np.full(64, 0b1100, dtype=np.uint8)
        b = np.full(64, 0b1010, dtype=np.uint8)
        ones = np.full(64, 0xFF, dtype=np.uint8)
        bank.write_row(0, a)
        bank.write_row(1, b)
        bank.write_row(2, ones)
        result = bank.triple_row_activate(0, 1, 2)
        assert np.all(result == (0b1100 | 0b1010))  # majority with 1 == OR
        assert np.array_equal(bank.read_row(0), result)

    def test_tra_across_subarrays_rejected(self, bank):
        with pytest.raises(ValueError):
            bank.triple_row_activate(0, 1, 9)

    def test_tra_counts_one_activation(self, bank):
        bank.write_row(0, np.zeros(64, dtype=np.uint8))
        bank.write_row(1, np.zeros(64, dtype=np.uint8))
        bank.write_row(2, np.zeros(64, dtype=np.uint8))
        before = bank.activations
        bank.triple_row_activate(0, 1, 2)
        assert bank.activations == before + 1

    def test_counters(self, bank):
        bank.aap(0, 1)
        bank.triple_row_activate(0, 1, 2)
        assert bank.activations == 3
        assert bank.precharges == 2
