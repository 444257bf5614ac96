"""Bit-vector container placed in DRAM rows.

:class:`BulkBitVector` is the operand type of the Ambit engine.  It couples

* a logical value (a packed NumPy ``uint8`` array), which is what functional
  verification and the database layer work with, and
* a placement (:class:`repro.ambit.allocator.RowAllocation`), which records
  which DRAM rows hold the vector and therefore determines the command
  sequences, latency, and energy of operating on it.

The logical value always exists; committing it into the functional DRAM
banks is only needed when the row-level functional execution path is used.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ambit.allocator import RowAllocation


def mask_padding_bytes(data: np.ndarray, num_bits: int) -> np.ndarray:
    """Zero the padding bits of a packed byte array holding ``num_bits`` bits.

    Clears the high bits of the final partial byte and any whole bytes past
    it, in place, and returns the array.  Complementing operations (NOT,
    NAND, NOR, XNOR) set padding bits; every consumer of packed results must
    see them masked so that both execution paths agree bit for bit.
    """
    full_bytes = num_bits // 8
    remaining = num_bits - full_bytes * 8
    if not remaining and full_bytes >= data.size:
        return data  # the bits fill the array exactly: no padding to mask
    if remaining:
        if full_bytes < data.size:
            data[full_bytes] &= (1 << remaining) - 1
        data[full_bytes + 1 :] = 0
    else:
        data[full_bytes:] = 0
    return data


class BulkBitVector:
    """A bit vector of ``num_bits`` bits stored row-aligned in DRAM.

    Args:
        num_bits: Logical length of the vector.
        row_size_bytes: Row size of the device the vector is placed in.
        allocation: Row placement (may be None for host-only vectors).
        data: Existing backing bytes to adopt *without copying* — a
            ``uint8`` array of exactly :attr:`storage_bytes` entries whose
            padding bits past ``num_bits`` are zero.  The vector aliases
            the array; pass a read-only view when the owner must not be
            written through it (lowered index planes do).  Fresh zeroed
            storage is allocated when omitted.
    """

    def __init__(
        self,
        num_bits: int,
        row_size_bytes: int = 8192,
        allocation: Optional[RowAllocation] = None,
        data: Optional[np.ndarray] = None,
    ) -> None:
        if num_bits <= 0:
            raise ValueError("num_bits must be positive")
        if row_size_bytes <= 0:
            raise ValueError("row_size_bytes must be positive")
        self.num_bits = num_bits
        self.row_size_bytes = row_size_bytes
        self.allocation = allocation
        # Sizes are fixed at construction (the hot paths read them per
        # primitive), so they are plain attributes, not properties.
        #: Bytes needed to hold the logical bits (unpadded).
        self.num_bytes = (num_bits + 7) // 8
        #: DRAM rows needed to hold the vector.
        self.num_rows = (self.num_bytes + row_size_bytes - 1) // row_size_bytes
        #: Bytes of backing storage (padded up to whole rows).
        self.storage_bytes = self.num_rows * row_size_bytes
        if data is None:
            data = np.zeros(self.storage_bytes, dtype=np.uint8)
        elif data.dtype != np.uint8 or data.shape != (self.storage_bytes,):
            raise ValueError(
                f"backing data must be {self.storage_bytes} uint8 bytes, "
                f"got {data.dtype} of shape {data.shape}"
            )
        self._data = data

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """The packed byte array backing the vector (padded to whole rows)."""
        return self._data

    def row_bytes(self, row_index: int) -> np.ndarray:
        """Return the bytes of the ``row_index``-th row-sized chunk."""
        if not 0 <= row_index < self.num_rows:
            raise IndexError(f"row chunk {row_index} out of range [0, {self.num_rows})")
        start = row_index * self.row_size_bytes
        return self._data[start : start + self.row_size_bytes]

    def set_row_bytes(self, row_index: int, values: np.ndarray) -> None:
        """Overwrite the ``row_index``-th row-sized chunk."""
        chunk = self.row_bytes(row_index)
        values = np.asarray(values, dtype=np.uint8)
        if values.shape != chunk.shape:
            raise ValueError(f"expected {chunk.shape} bytes, got {values.shape}")
        start = row_index * self.row_size_bytes
        self._data[start : start + self.row_size_bytes] = values

    def get_bit(self, index: int) -> int:
        """Return bit ``index`` (LSB-first within each byte)."""
        self._check_bit(index)
        return (int(self._data[index >> 3]) >> (index & 7)) & 1

    def set_bit(self, index: int, value: int) -> None:
        """Set bit ``index`` to 0 or 1."""
        self._check_bit(index)
        if value not in (0, 1):
            raise ValueError("bit value must be 0 or 1")
        byte = int(self._data[index >> 3])
        mask = 1 << (index & 7)
        self._data[index >> 3] = (byte | mask) if value else (byte & ~mask)

    def _check_bit(self, index: int) -> None:
        if not 0 <= index < self.num_bits:
            raise IndexError(f"bit {index} out of range [0, {self.num_bits})")

    def count_ones(self) -> int:
        """Population count over the logical bits (padding excluded)."""
        full_bytes = self.num_bits // 8
        count = int(np.unpackbits(self._data[:full_bytes]).sum()) if full_bytes else 0
        remaining = self.num_bits - full_bytes * 8
        if remaining:
            last = int(self._data[full_bytes])
            count += bin(last & ((1 << remaining) - 1)).count("1")
        return count

    # ------------------------------------------------------------------
    # Loading values
    # ------------------------------------------------------------------
    def fill_random(self, seed: Optional[int] = None, density: float = 0.5) -> "BulkBitVector":
        """Fill the vector with random bits (ones with probability ``density``)."""
        if not 0.0 <= density <= 1.0:
            raise ValueError("density must be in [0, 1]")
        rng = np.random.default_rng(seed)
        bits = rng.random(self.storage_bytes * 8) < density
        self._data[:] = np.packbits(bits.astype(np.uint8), bitorder="little")
        self._mask_padding()
        return self

    def fill_value(self, value: int) -> "BulkBitVector":
        """Set every logical bit to 0 or 1."""
        if value not in (0, 1):
            raise ValueError("value must be 0 or 1")
        self._data[:] = 0xFF if value else 0x00
        self._mask_padding()
        return self

    def load_bits(self, bits: np.ndarray) -> "BulkBitVector":
        """Load from a boolean/0-1 array of exactly ``num_bits`` entries."""
        bits = np.asarray(bits).astype(np.uint8).ravel()
        if bits.size != self.num_bits:
            raise ValueError(f"expected {self.num_bits} bits, got {bits.size}")
        packed = np.packbits(bits, bitorder="little")
        self._data[:] = 0
        self._data[: packed.size] = packed
        return self

    def to_bits(self) -> np.ndarray:
        """Return the logical bits as a ``uint8`` 0/1 array of length ``num_bits``."""
        return np.unpackbits(self._data, bitorder="little")[: self.num_bits]

    def _mask_padding(self) -> None:
        """Zero out the padding bits/bytes past ``num_bits``."""
        mask_padding_bytes(self._data, self.num_bits)

    # ------------------------------------------------------------------
    # Reference (host-side) logic, used to verify the Ambit engine
    # ------------------------------------------------------------------
    def _binary_reference(self, other: "BulkBitVector", op) -> np.ndarray:
        if other.num_bits != self.num_bits:
            raise ValueError("operand lengths differ")
        return op(self._data[: self.num_bytes], other._data[: other.num_bytes])

    def expected_and(self, other: "BulkBitVector") -> np.ndarray:
        """Reference result bytes of ``self AND other``."""
        return self._binary_reference(other, np.bitwise_and)

    def expected_or(self, other: "BulkBitVector") -> np.ndarray:
        """Reference result bytes of ``self OR other``."""
        return self._binary_reference(other, np.bitwise_or)

    def expected_xor(self, other: "BulkBitVector") -> np.ndarray:
        """Reference result bytes of ``self XOR other``."""
        return self._binary_reference(other, np.bitwise_xor)

    def expected_not(self) -> np.ndarray:
        """Reference result bytes of ``NOT self`` (padding bits masked)."""
        result = np.bitwise_not(self._data[: self.num_bytes])
        return mask_padding_bytes(result, self.num_bits)

    def copy_like(self) -> "BulkBitVector":
        """Return a new, zeroed vector with the same length and row size."""
        return BulkBitVector(self.num_bits, self.row_size_bytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placed = "placed" if self.allocation is not None else "unplaced"
        return f"BulkBitVector({self.num_bits} bits, {self.num_rows} rows, {placed})"
