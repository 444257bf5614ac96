"""The composed DRAM device: geometry + timing + energy + controller.

:class:`DramDevice` is the object the rest of the stack builds on.  The
RowClone and Ambit engines reach into its banks to perform row-level
operations; the host baselines use its peak channel bandwidth; the
functional read path moves real data through the channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dram.address import CACHE_LINE_BYTES, DramCoordinate
from repro.dram.bank import Bank
from repro.dram.controller import MemoryController, Request, RequestKind
from repro.dram.energy import DramEnergyParameters, EnergyBreakdown
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters


@dataclass
class DeviceAccessResult:
    """Outcome of a functional bulk read or write on the device."""

    latency_ns: float
    energy: EnergyBreakdown
    data: Optional[np.ndarray] = None


class DramDevice:
    """A complete DRAM memory system with functional and analytical access.

    Args:
        geometry: Physical organization (defaults to a dual-channel DDR3 DIMM).
        timing: Speed-bin timings (defaults to DDR3-1600).
        energy: Energy parameters (defaults to DDR3-1600 x8 devices).
        mapping_policy: Address mapping policy.
    """

    def __init__(
        self,
        geometry: Optional[DramGeometry] = None,
        timing: Optional[DramTimingParameters] = None,
        energy: Optional[DramEnergyParameters] = None,
        mapping_policy: str = "row_interleaved",
    ) -> None:
        self.geometry = geometry or DramGeometry.ddr3_dimm()
        self.timing = timing or DramTimingParameters.ddr3_1600()
        self.energy_params = energy or DramEnergyParameters.ddr3_1600()
        self.controller = MemoryController(
            self.geometry, self.timing, self.energy_params, mapping_policy
        )

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
    # Capacity / addressing helpers
    # ------------------------------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        """Total device capacity."""
        return self.geometry.total_capacity_bytes

    def decode(self, address: int) -> DramCoordinate:
        """Decode a byte address into (channel, rank, bank, row, column)."""
        return self.controller.mapper.decode(address)

    def bank_at(self, channel: int, rank: int, bank: int) -> Bank:
        """Return a bank object by its coordinates."""
        return self.controller.banks[(channel, rank, bank)]

    def iter_banks(self):
        """Iterate over ((channel, rank, bank), Bank) pairs."""
        return iter(self.controller.banks.items())

    # ------------------------------------------------------------------
    # Functional bulk access through the channel
    # ------------------------------------------------------------------
    def read_bytes(self, address: int, length: int) -> DeviceAccessResult:
        """Read ``length`` bytes starting at ``address`` through the channel."""
        if address % CACHE_LINE_BYTES != 0:
            raise ValueError("bulk reads must be cache-line aligned")
        if length < 0:
            raise ValueError("length must be non-negative")
        start_time = self.controller.now_ns
        start_energy = self.controller.stats.energy.total_j
        padded_length = ((length + CACHE_LINE_BYTES - 1) // CACHE_LINE_BYTES) * CACHE_LINE_BYTES
        requests = []
        for offset in range(0, padded_length, CACHE_LINE_BYTES):
            request = Request(kind=RequestKind.READ, address=address + offset)
            self.controller.submit(request)
            requests.append(request)
        self.controller.drain()
        data = np.concatenate([r.result for r in requests]) if requests else np.zeros(0, dtype=np.uint8)
        elapsed = self.controller.now_ns - start_time
        spent = self.controller.stats.energy.total_j - start_energy
        return DeviceAccessResult(
            latency_ns=elapsed,
            energy=EnergyBreakdown(io_j=spent),
            data=data[:length],
        )

    # ------------------------------------------------------------------
    # Analytical accounting (delegates to the controller)
    # ------------------------------------------------------------------
    def peak_bandwidth_bytes_per_s(self) -> float:
        """Aggregate peak channel bandwidth."""
        return self.controller.peak_bandwidth_bytes_per_s()
