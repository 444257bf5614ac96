"""The composed DRAM device: geometry + timing + energy + banks.

:class:`DramDevice` is the object the rest of the stack builds on.  The
RowClone and Ambit engines reach into its banks to perform row-level
operations; the host baselines use its peak channel bandwidth.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from repro.dram.bank import Bank
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters


class DramDevice:
    """A complete DRAM memory system: its banks and its channel bandwidth.

    Args:
        geometry: Physical organization (defaults to a dual-channel DDR3 DIMM).
        timing: Speed-bin timings (defaults to DDR3-1600).
        energy: Energy parameters (defaults to DDR3-1600 x8 devices).
    """

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        timing: Optional[DramTimingParameters] = None,
        energy: Optional[DramEnergyParameters] = None,
    ) -> None:
        self.geometry = g = geometry or DramGeometry.ddr3_dimm()
        self.timing = timing or DramTimingParameters.ddr3_1600()
        self.energy_params = energy or DramEnergyParameters.ddr3_1600()
        # Channel, then rank, then bank: the allocator and the executor
        # take their placement order from this dict's order.
        self.banks: Dict[Tuple[int, int, int], Bank] = {
            (channel, rank, bank): Bank(
                subarrays=g.subarrays_per_bank,
                rows_per_subarray=g.rows_per_subarray,
                row_size_bytes=g.row_size_bytes,
                index=bank,
            )
            for channel in range(g.channels)
            for rank in range(g.ranks_per_channel)
            for bank in range(g.banks_per_rank)
        }

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def ddr3(cls) -> "DramDevice":
        """Dual-channel DDR3-1600 system (the Ambit/RowClone configuration)."""
        return cls(
            DramGeometry.ddr3_dimm(),
            DramTimingParameters.ddr3_1600(),
            DramEnergyParameters.ddr3_1600(),
        )

    @classmethod
    def hmc_vault(cls) -> "DramDevice":
        """The DRAM of a single HMC-like vault (used by the stacked model)."""
        return cls(
            DramGeometry.hmc_vault_bank(),
            DramTimingParameters.hmc_internal(),
            DramEnergyParameters.hmc_internal(),
        )

    # ------------------------------------------------------------------
    # Capacity and banks
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Total device capacity."""
        return self.geometry.total_capacity_bytes

    def bank_at(self, channel: int, rank: int, bank: int) -> Bank:
        """Return a bank object by its coordinates."""
        return self.banks[(channel, rank, bank)]

    def iter_banks(self) -> Iterator[Tuple[Tuple[int, int, int], Bank]]:
        """Iterate over ((channel, rank, bank), Bank) pairs."""
        return iter(self.banks.items())

    def peak_bandwidth_bytes_per_s(self) -> float:
        """Aggregate peak channel bandwidth of the system."""
        per_channel = self.timing.channel_bandwidth_bytes_per_s(
            self.geometry.channel_width_bits
        )
        return per_channel * self.geometry.channels
