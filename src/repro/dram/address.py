"""Address mapping between linear physical addresses and DRAM coordinates.

The mapping policy determines how much bank- and channel-level parallelism a
streaming access pattern can exploit, which in turn sets the baseline
(processor-centric) bandwidth that PIM is compared against.

Two standard policies are provided:

* ``row_interleaved`` (RoBaRaCoCh-like): consecutive cache lines walk
  through the channels, then the columns of one row, so a stream keeps every
  channel busy and enjoys high row-buffer locality.
* ``bank_interleaved`` (RoCoRaBaCh-like): consecutive cache lines also walk
  across banks, which maximizes bank-level parallelism for random access at
  the cost of row locality for small strides.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.geometry import DramGeometry

CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class DramCoordinate:
    """Fully decoded location of one cache line in the memory system."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int  # in units of cache lines within the row


class AddressMapper:
    """Maps linear physical addresses to :class:`DramCoordinate` and back.

    Args:
        geometry: The DRAM organization to map into.
        policy: ``"row_interleaved"`` or ``"bank_interleaved"``.
    """

    POLICIES = ("row_interleaved", "bank_interleaved")

    def __init__(self, geometry: DramGeometry, policy: str = "row_interleaved") -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {self.POLICIES}")
        self.geometry = geometry
        self.policy = policy
        self._lines_per_row = geometry.row_size_bytes // CACHE_LINE_BYTES

    @property
    def capacity_bytes(self) -> int:
        """Total mappable capacity."""
        return self.geometry.total_capacity_bytes

    def decode(self, address: int) -> DramCoordinate:
        """Decode a byte address into a :class:`DramCoordinate`.

        The address is first truncated to cache-line granularity.
        """
        if address < 0 or address >= self.capacity_bytes:
            raise ValueError(
                f"address {address:#x} outside device capacity {self.capacity_bytes:#x}"
            )
        g = self.geometry
        line = address // CACHE_LINE_BYTES
        if self.policy == "row_interleaved":
            # line = ((((row * banks + bank) * ranks + rank) * columns + column)
            #          * channels + channel)
            channel = line % g.channels
            line //= g.channels
            column = line % self._lines_per_row
            line //= self._lines_per_row
            rank = line % g.ranks_per_channel
            line //= g.ranks_per_channel
            bank = line % g.banks_per_rank
            line //= g.banks_per_rank
            row = line
        else:  # bank_interleaved
            channel = line % g.channels
            line //= g.channels
            bank = line % g.banks_per_rank
            line //= g.banks_per_rank
            rank = line % g.ranks_per_channel
            line //= g.ranks_per_channel
            column = line % self._lines_per_row
            line //= self._lines_per_row
            row = line
        if row >= g.rows_per_bank:
            raise ValueError(f"address {address:#x} decodes past the last row")
        return DramCoordinate(channel=channel, rank=rank, bank=bank, row=row, column=column)

    def encode(self, coordinate: DramCoordinate) -> int:
        """Encode a :class:`DramCoordinate` back into a byte address."""
        g = self.geometry
        self._validate(coordinate)
        if self.policy == "row_interleaved":
            line = coordinate.row
            line = line * g.banks_per_rank + coordinate.bank
            line = line * g.ranks_per_channel + coordinate.rank
            line = line * self._lines_per_row + coordinate.column
            line = line * g.channels + coordinate.channel
        else:
            line = coordinate.row
            line = line * self._lines_per_row + coordinate.column
            line = line * g.ranks_per_channel + coordinate.rank
            line = line * g.banks_per_rank + coordinate.bank
            line = line * g.channels + coordinate.channel
        return line * CACHE_LINE_BYTES

    def _validate(self, coordinate: DramCoordinate) -> None:
        g = self.geometry
        checks = (
            (coordinate.channel, g.channels, "channel"),
            (coordinate.rank, g.ranks_per_channel, "rank"),
            (coordinate.bank, g.banks_per_rank, "bank"),
            (coordinate.row, g.rows_per_bank, "row"),
            (coordinate.column, self._lines_per_row, "column"),
        )
        for value, bound, name in checks:
            if not 0 <= value < bound:
                raise ValueError(f"{name} {value} out of range [0, {bound})")
