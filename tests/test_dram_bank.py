"""Tests for repro.dram.bank."""

import tracemalloc

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


class TestRowCopies:
    """A primitive moves rows inside the bank; the host model should not
    copy them more than its result needs.  Measured with ``tracemalloc``
    on 8 KiB rows (the paper's DDR3 row), from a bank whose rows are all
    written: ~2 rows live at a TRA's peak (its majority and the caller's
    copy) and none at an AAP's; ~9.1 and ~2.02 when every read copied its
    row, the majority built five temporaries and the destination of an
    AAP took a copy of a copy of the source."""

    ROW = 8192

    @pytest.fixture
    def written(self):
        bank = Bank(subarrays=1, rows_per_subarray=8, row_size_bytes=self.ROW)
        rng = np.random.default_rng(3)
        for row in range(8):
            bank.write_row(row, rng.integers(0, 256, self.ROW).astype(np.uint8))
        return bank

    def _peak_rows(self, primitive):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = primitive()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        return (peak - base) / self.ROW

    def test_a_tra_holds_at_most_four_rows(self, written):
        a, b, c = (written.read_row(row) for row in (0, 1, 2))
        rows = self._peak_rows(lambda: written.triple_row_activate(0, 1, 2))
        assert rows <= 4, rows
        majority = (a & b) | (a & c) | (b & c)
        for row in (0, 1, 2):
            np.testing.assert_array_equal(written.read_row(row), majority)

    def test_an_aap_holds_at_most_one_row(self, written):
        source = written.read_row(3)
        rows = self._peak_rows(lambda: written.aap(3, 4))
        assert rows <= 1, rows
        np.testing.assert_array_equal(written.read_row(4), source)

    def test_a_tra_result_is_the_callers_own(self, written):
        result = written.triple_row_activate(0, 1, 2)
        result[:] = 0  # a private copy: the rows keep the majority
        assert written.read_row(0).any()
