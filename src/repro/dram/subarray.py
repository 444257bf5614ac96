"""Functional model of one DRAM subarray.

A subarray is a stripe of rows that shares a set of local sense amplifiers.
This is the unit within which RowClone's Fast-Parallel Mode and Ambit's
triple-row activation can operate, because both rely on rows being connected
to the *same* sense amplifiers.

Row contents are stored as NumPy ``uint8`` arrays and allocated lazily:
untouched rows cost no host memory, which keeps multi-gigabyte simulated
devices cheap to instantiate.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class Subarray:
    """Functional storage and sense-amplifier behaviour for one subarray.

    Args:
        rows: Number of rows in this subarray.
        row_size_bytes: Bytes per row.
        index: Position of this subarray within its bank (for diagnostics).
    """

    def __init__(self, rows: int, row_size_bytes: int, index: int = 0) -> None:
        if rows <= 0 or row_size_bytes <= 0:
            raise ValueError("rows and row_size_bytes must be positive")
        self.rows = rows
        self.row_size_bytes = row_size_bytes
        self.index = index
        self._storage: Dict[int, np.ndarray] = {}
        # Contents of the sense amplifiers (the "row buffer") after the most
        # recent activation, or None when the subarray is precharged.
        self._row_buffer: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Storage access
    # ------------------------------------------------------------------
    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise IndexError(f"row {row} out of range [0, {self.rows})")

    def read_row(self, row: int) -> np.ndarray:
        """Return a copy of the contents of ``row`` (zeros if never written)."""
        self._check_row(row)
        data = self._storage.get(row)
        if data is None:
            return np.zeros(self.row_size_bytes, dtype=np.uint8)
        return data.copy()

    def write_row(self, row: int, data: np.ndarray) -> None:
        """Overwrite ``row`` with ``data`` (must be exactly one row long)."""
        self._check_row(row)
        array = np.asarray(data, dtype=np.uint8)
        if array.shape != (self.row_size_bytes,):
            raise ValueError(
                f"row data must have shape ({self.row_size_bytes},), got {array.shape}"
            )
        self._storage[row] = array.copy()

    @property
    def allocated_rows(self) -> int:
        """Number of rows that have actually been written (backing storage)."""
        return len(self._storage)

    # ------------------------------------------------------------------
    # Sense-amplifier behaviour
    # ------------------------------------------------------------------
    def activate(self, row: int) -> np.ndarray:
        """Latch ``row`` into the sense amplifiers and return its contents."""
        self._check_row(row)
        self._row_buffer = self.read_row(row)
        return self._row_buffer.copy()

    def activate_onto_open_buffer(self, row: int) -> None:
        """Second activation of an AAP: copy the latched data into ``row``.

        DRAM semantics: when a second row is activated while the sense
        amplifiers still hold strong values, the amplifiers overpower the
        newly connected cells, so the destination row takes on the buffer's
        contents.
        """
        self._check_row(row)
        if self._row_buffer is None:
            raise RuntimeError("AAP second activation with no latched row buffer")
        self.write_row(row, self._row_buffer)

    def triple_activate(self, row_a: int, row_b: int, row_c: int) -> np.ndarray:
        """Simultaneously activate three rows; charge sharing computes majority.

        Returns the resulting bitwise majority, which is also restored into
        all three activated rows (this is why Ambit operates on designated
        copy rows rather than the original data).
        """
        for row in (row_a, row_b, row_c):
            self._check_row(row)
        a = self.read_row(row_a)
        b = self.read_row(row_b)
        c = self.read_row(row_c)
        # Bitwise majority of three values: (a & b) | (a & c) | (b & c).
        majority = (a & b) | (a & c) | (b & c)
        for row in (row_a, row_b, row_c):
            self.write_row(row, majority)
        self._row_buffer = majority.copy()
        return majority.copy()

    def precharge(self) -> None:
        """Close the subarray (invalidate the sense-amplifier contents)."""
        self._row_buffer = None
