"""Physical organization of a DRAM device.

The geometry determines the two quantities the paper's in-DRAM computing
arguments revolve around:

* the *row size* (the amount of data a single activation operates on), and
* the *number of banks* (the amount of row-level parallelism available to
  RowClone and Ambit).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DramGeometry:
    """Describes the physical organization of one DRAM system.

    Attributes:
        channels: Independent memory channels (each with its own bus).
        ranks_per_channel: Ranks sharing a channel bus.
        banks_per_rank: Independently operable banks per rank.
        subarrays_per_bank: Subarrays (local sense-amplifier stripes) per
            bank.  RowClone's Fast-Parallel Mode and Ambit's triple-row
            activation only work between rows of the same subarray.
        rows_per_subarray: DRAM rows per subarray.
        row_size_bytes: Bytes per row (per bank), i.e. the unit of a bulk
            in-DRAM operation.
        channel_width_bits: Data bus width of one channel.
    """

    channels: int = 2
    ranks_per_channel: int = 1
    banks_per_rank: int = 8
    subarrays_per_bank: int = 64
    rows_per_subarray: int = 512
    row_size_bytes: int = 8192
    channel_width_bits: int = 64

    def __post_init__(self) -> None:
        for name in (
            "channels",
            "ranks_per_channel",
            "banks_per_rank",
            "subarrays_per_bank",
            "rows_per_subarray",
            "row_size_bytes",
            "channel_width_bits",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.row_size_bytes % 64 != 0:
            raise ValueError("row_size_bytes must be a multiple of the 64 B cache line")

    # ------------------------------------------------------------------
    # Derived sizes
    # ------------------------------------------------------------------
    @property
    def rows_per_bank(self) -> int:
        """Total rows in one bank (across all of its subarrays)."""
        return self.subarrays_per_bank * self.rows_per_subarray

    @property
    def banks_total(self) -> int:
        """Total independently operable banks in the system."""
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    @property
    def bank_capacity_bytes(self) -> int:
        """Capacity of one bank in bytes."""
        return self.rows_per_bank * self.row_size_bytes

    @property
    def total_capacity_bytes(self) -> int:
        """Capacity of the whole memory system in bytes."""
        return self.banks_total * self.bank_capacity_bytes

    def describe(self) -> str:
        """Human-readable one-line summary of the organization."""
        gib = self.total_capacity_bytes / (1 << 30)
        return (
            f"{gib:.1f} GiB: {self.channels} ch x {self.ranks_per_channel} rank x "
            f"{self.banks_per_rank} banks, {self.subarrays_per_bank} subarrays/bank, "
            f"{self.rows_per_subarray} rows/subarray, {self.row_size_bytes} B rows"
        )

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def ddr3_dimm(cls) -> "DramGeometry":
        """A dual-channel DDR3-style configuration (8 GiB)."""
        return cls(
            channels=2,
            ranks_per_channel=1,
            banks_per_rank=8,
            subarrays_per_bank=64,
            rows_per_subarray=512,
            row_size_bytes=8192,
            channel_width_bits=64,
        )

    @classmethod
    def hmc_vault_bank(cls) -> "DramGeometry":
        """Geometry of the banks inside a single HMC vault.

        HMC banks use much smaller rows than DDRx devices (the HMC 2.0
        specification uses 256 B pages; we model 1 KiB to fold in the
        per-vault bank grouping), which is why Ambit-in-HMC gains come from
        bank count rather than row width.
        """
        return cls(
            channels=1,
            ranks_per_channel=1,
            banks_per_rank=16,
            subarrays_per_bank=16,
            rows_per_subarray=1024,
            row_size_bytes=1024,
            channel_width_bits=32,
        )
