"""Row allocation for Ambit operands.

Ambit's triple-row activation only combines rows that share a subarray, so
operands of one bulk operation must be *subarray-aligned*: the i-th row
chunk of vector A, the i-th chunk of vector B, and the i-th chunk of the
result must all live in the same subarray (in different data rows).

:class:`RowAllocator` guarantees this by placing row chunks in a fixed
round-robin order over (bank, subarray) slots: chunk ``i`` of *every*
vector goes to bank ``i mod B`` and subarray ``(i // B) mod S``.  Vectors
allocated from the same allocator are therefore always aligned, and chunks
are spread over all banks so multi-bank parallelism is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.ambit.rowgroups import AmbitSubarrayLayout
from repro.dram.device import DramDevice

BankKey = Tuple[int, int, int]  # (channel, rank, bank)


@dataclass(frozen=True)
class RowPlacement:
    """Placement of one row-sized chunk of a vector.

    Attributes:
        bank_key: (channel, rank, bank) of the bank holding the chunk.
        subarray: Subarray index within the bank.
        local_row: Row index local to the subarray.
        rows_per_subarray: Geometry constant needed to form the bank row.
    """

    bank_key: BankKey
    subarray: int
    local_row: int
    rows_per_subarray: int

    @property
    def bank_row(self) -> int:
        """Bank-level row index (what ``Bank.aap`` / ``Bank.read_row`` expect)."""
        return self.subarray * self.rows_per_subarray + self.local_row


@dataclass
class RowAllocation:
    """The set of row placements backing one :class:`BulkBitVector`."""

    placements: List[RowPlacement] = field(default_factory=list)

    @property
    def num_rows(self) -> int:
        """Number of row chunks in the allocation."""
        return len(self.placements)

    def aligned_with(self, other: "RowAllocation") -> bool:
        """True when chunk ``i`` of both allocations shares (bank, subarray)."""
        if self.num_rows != other.num_rows:
            return False
        return all(
            a.bank_key == b.bank_key and a.subarray == b.subarray
            for a, b in zip(self.placements, other.placements)
        )


class RowAllocator:
    """Allocates subarray-aligned data rows for bulk bit vectors.

    Args:
        device: The DRAM device to allocate in.
        layout: The Ambit row-group layout (defaults to one derived from the
            device's rows-per-subarray).
    """

    def __init__(self, device: DramDevice, layout: AmbitSubarrayLayout = None) -> None:
        self.device = device
        geometry = device.geometry
        self.layout = layout or AmbitSubarrayLayout(geometry.rows_per_subarray)
        if self.layout.rows_per_subarray != geometry.rows_per_subarray:
            raise ValueError("layout rows_per_subarray does not match the device geometry")
        self._bank_keys: List[BankKey] = [key for key, _ in device.iter_banks()]
        # Next free data row for each (bank_key, subarray) slot.
        self._next_free: Dict[Tuple[BankKey, int], int] = {}
        # Rows below the bump pointer that were freed and can be reused.
        self._free_rows: Dict[Tuple[BankKey, int], List[int]] = {}

    @property
    def banks_total(self) -> int:
        """Number of banks available for placement."""
        return len(self._bank_keys)

    @property
    def subarrays_per_bank(self) -> int:
        """Subarrays per bank in the underlying device."""
        return self.device.geometry.subarrays_per_bank

    def _slot_for_chunk(self, chunk_index: int, bank_offset: int = 0) -> Tuple[BankKey, int]:
        shifted = chunk_index + bank_offset
        bank_key = self._bank_keys[shifted % self.banks_total]
        subarray = (shifted // self.banks_total) % self.subarrays_per_bank
        return bank_key, subarray

    def allocated_rows(self) -> int:
        """Rows already handed out (freed rows excluded)."""
        return sum(self._next_free.values()) - sum(
            len(rows) for rows in self._free_rows.values()
        )

    def allocate(self, num_rows: int, bank_offset: int = 0) -> RowAllocation:
        """Allocate ``num_rows`` subarray-aligned data rows.

        Args:
            num_rows: Row chunks to place.
            bank_offset: Rotate the round-robin placement so chunk 0 starts
                at bank ``bank_offset mod B``.  Vectors allocated with the
                same offset remain mutually subarray-aligned; the batch
                service layer rotates the offset per request so concurrent
                requests land on disjoint banks and genuinely overlap.

        Raises:
            MemoryError: When any required slot has no free data rows left.
        """
        if num_rows <= 0:
            raise ValueError("num_rows must be positive")
        placements: List[RowPlacement] = []
        rows_per_subarray = self.device.geometry.rows_per_subarray
        for chunk in range(num_rows):
            slot = self._slot_for_chunk(chunk, bank_offset)
            reusable = self._free_rows.get(slot)
            if reusable:
                next_row = reusable.pop()
            else:
                next_row = self._next_free.get(slot, 0)
                if next_row >= self.layout.data_rows:
                    # Roll back the chunks placed so far: a failed request
                    # must not leak rows.
                    self.free(RowAllocation(placements=placements))
                    raise MemoryError(
                        f"no free data rows left in bank {slot[0]} subarray {slot[1]}"
                    )
                self._next_free[slot] = next_row + 1
            placements.append(
                RowPlacement(
                    bank_key=slot[0],
                    subarray=slot[1],
                    local_row=next_row,
                    rows_per_subarray=rows_per_subarray,
                )
            )
        return RowAllocation(placements=placements)

    def free(self, allocation: RowAllocation) -> None:
        """Return an allocation's rows to the free pool.

        Freed rows go onto a per-slot free list and are handed out again by
        later :meth:`allocate` calls before the bump pointer advances, so
        long-running request streams (e.g. the batch service layer's
        intermediate vectors) no longer leak rows.
        """
        for placement in allocation.placements:
            slot = (placement.bank_key, placement.subarray)
            current = self._next_free.get(slot, 0)
            if current == placement.local_row + 1:
                current -= 1
                # Pop any previously freed rows now sitting at the top.
                reusable = self._free_rows.get(slot)
                while reusable and current - 1 in reusable:
                    reusable.remove(current - 1)
                    current -= 1
                self._next_free[slot] = current
            else:
                self._free_rows.setdefault(slot, []).append(placement.local_row)
