"""Tests for repro.ambit.allocator."""

import pytest

from repro.ambit.allocator import RowAllocator
from repro.ambit.rowgroups import AmbitSubarrayLayout


def _capacity(allocator: RowAllocator) -> int:
    """Data rows the allocator can hand out: every (bank, subarray) slot's
    D-group."""
    return allocator.banks_total * allocator.subarrays_per_bank * allocator.layout.data_rows


class TestAllocation:
    def test_chunks_round_robin_across_banks(self, small_device):
        allocator = RowAllocator(small_device)
        allocation = allocator.allocate(4)
        banks = [p.bank_key for p in allocation.placements]
        assert banks[0] != banks[1]
        assert banks[0] == banks[2]
        assert len({p.bank_key for p in allocation.placements}) == 2

    def test_allocations_are_subarray_aligned(self, small_device):
        allocator = RowAllocator(small_device)
        a = allocator.allocate(6)
        b = allocator.allocate(6)
        assert a.aligned_with(b)
        assert not a.aligned_with(allocator.allocate(4))

    def test_placements_stay_in_data_rows(self, small_device):
        allocator = RowAllocator(small_device)
        layout = allocator.layout
        allocation = allocator.allocate(8)
        for placement in allocation.placements:
            assert 0 <= placement.local_row < layout.data_rows

    def test_bank_row_combines_subarray_and_local_row(self, small_device):
        allocator = RowAllocator(small_device)
        allocation = allocator.allocate(small_device.geometry.banks_total * 2)
        rows_per_subarray = small_device.geometry.rows_per_subarray
        for placement in allocation.placements:
            assert placement.bank_row == placement.subarray * rows_per_subarray + placement.local_row

    def test_capacity_and_exhaustion(self, small_device):
        allocator = RowAllocator(small_device)
        capacity = _capacity(allocator)
        assert capacity == (
            small_device.geometry.banks_total
            * small_device.geometry.subarrays_per_bank
            * allocator.layout.data_rows
        )
        allocator.allocate(capacity)
        with pytest.raises(MemoryError):
            allocator.allocate(1)

    def test_free_returns_most_recent_rows(self, small_device):
        allocator = RowAllocator(small_device)
        first = allocator.allocate(2)
        used_before = allocator.allocated_rows()
        allocator.free(first)
        assert allocator.allocated_rows() < used_before

    def test_failed_allocation_rolls_back_partial_placements(self, small_device):
        """Regression: a MemoryError mid-allocation must not leak the rows
        placed before the failure."""
        allocator = RowAllocator(small_device)
        capacity = _capacity(allocator)
        everything = allocator.allocate(capacity)
        allocator.free(everything)
        assert allocator.allocated_rows() == 0
        with pytest.raises(MemoryError):
            allocator.allocate(capacity + 1)
        assert allocator.allocated_rows() == 0
        # The full capacity is still allocatable afterwards.
        allocator.allocate(capacity)

    def test_invalid_requests_rejected(self, small_device):
        allocator = RowAllocator(small_device)
        with pytest.raises(ValueError):
            allocator.allocate(0)

    def test_layout_mismatch_rejected(self, small_device):
        with pytest.raises(ValueError):
            RowAllocator(small_device, AmbitSubarrayLayout(small_device.geometry.rows_per_subarray * 2))
