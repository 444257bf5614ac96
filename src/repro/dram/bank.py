"""Functional storage and row-level primitives of one DRAM bank.

A bank groups multiple subarrays behind a single global row decoder.  The
PIM engines drive it through whole-row reads and writes and the two in-DRAM
primitives, AAP (RowClone, Ambit) and TRA (Ambit), each of which opens and
closes its rows itself; nothing leaves a row open between commands.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.dram.subarray import Subarray


class Bank:
    """One DRAM bank: several subarrays plus row-command counters.

    Args:
        subarrays: Number of subarrays in the bank.
        rows_per_subarray: Rows per subarray.
        row_size_bytes: Bytes per row.
        index: Bank index within its rank (for diagnostics).
    """

    def __init__(
        self,
        subarrays: int,
        rows_per_subarray: int,
        row_size_bytes: int,
        index: int = 0,
    ) -> None:
        if subarrays <= 0:
            raise ValueError("subarrays must be positive")
        self.index = index
        self.rows_per_subarray = rows_per_subarray
        self.row_size_bytes = row_size_bytes
        self.subarrays: List[Subarray] = [
            Subarray(rows_per_subarray, row_size_bytes, index=i) for i in range(subarrays)
        ]
        # Row commands issued, including those the Ambit engine's
        # analytical path counts without touching the rows.
        self.activations = 0
        self.precharges = 0

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Total rows in the bank."""
        return len(self.subarrays) * self.rows_per_subarray

    def locate(self, row: int) -> Tuple[Subarray, int]:
        """Map a bank-level row index to (subarray, local row index)."""
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")
        subarray_index, local_row = divmod(row, self.rows_per_subarray)
        return self.subarrays[subarray_index], local_row

    def same_subarray(self, row_a: int, row_b: int) -> bool:
        """True when the two bank-level rows live in the same subarray."""
        return row_a // self.rows_per_subarray == row_b // self.rows_per_subarray

    # ------------------------------------------------------------------
    # Whole-row access (used by the PIM engines and tests)
    # ------------------------------------------------------------------
    def read_row(self, row: int) -> np.ndarray:
        """Return a copy of the full contents of ``row`` (no state change)."""
        subarray, local_row = self.locate(row)
        return subarray.read_row(local_row)

    def write_row(self, row: int, data: np.ndarray) -> None:
        """Directly overwrite the full contents of ``row`` (no state change)."""
        subarray, local_row = self.locate(row)
        subarray.write_row(local_row, data)

    # ------------------------------------------------------------------
    # PIM primitives
    # ------------------------------------------------------------------
    def aap(self, source_row: int, dest_row: int) -> None:
        """ACTIVATE ``source_row``, ACTIVATE ``dest_row``, PRECHARGE.

        Both rows must be in the same subarray (the sense amplifiers are
        local); the destination ends up with the source's contents.
        """
        if not self.same_subarray(source_row, dest_row):
            raise ValueError(
                "AAP requires source and destination rows in the same subarray"
            )
        subarray, local_source = self.locate(source_row)
        _, local_dest = self.locate(dest_row)
        subarray.activate(local_source)
        subarray.activate_onto_open_buffer(local_dest)
        subarray.precharge()
        self.activations += 2
        self.precharges += 1

    def triple_row_activate(self, row_a: int, row_b: int, row_c: int) -> np.ndarray:
        """Simultaneously activate three same-subarray rows (Ambit TRA).

        Returns the bitwise majority that the charge sharing produces; all
        three rows are overwritten with it.
        """
        if not (self.same_subarray(row_a, row_b) and self.same_subarray(row_a, row_c)):
            raise ValueError("TRA requires all three rows in the same subarray")
        subarray, local_a = self.locate(row_a)
        _, local_b = self.locate(row_b)
        _, local_c = self.locate(row_c)
        result = subarray.triple_activate(local_a, local_b, local_c)
        subarray.precharge()
        self.activations += 1
        self.precharges += 1
        return result
