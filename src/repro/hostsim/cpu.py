"""Analytical model of a conventional multi-core host CPU.

For the bulk operations the paper studies (bulk bitwise logic, bulk copy,
bulk initialization, streaming scans), a modern CPU is memory-bandwidth
bound: the SIMD units can consume data far faster than the memory channel
can deliver it.  The model therefore computes, for each operation, both the
compute-bound time (SIMD throughput) and the bandwidth-bound time (channel
traffic divided by effective bandwidth) and takes the maximum — a standard
roofline treatment.

The crucial modelling choice, taken directly from the Ambit evaluation, is
the *traffic factor*: a bulk ``C = A op B`` on a write-allocate cache
hierarchy moves four bytes on the channel for every result byte (read A,
read B, read-for-ownership of C, write-back C), and a bulk ``B = not A``
moves three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.metrics import OperationMetrics
from repro.dram.device import DramDevice
from repro.hostsim.energy import HostEnergyModel

#: Channel traffic (bytes moved per byte of result) for each bulk operation
#: class on a write-allocate, write-back cache hierarchy.
TRAFFIC_FACTORS: Dict[str, float] = {
    "not": 3.0,      # read A, RFO C, write back C
    "and": 4.0,      # read A, read B, RFO C, write back C
    "or": 4.0,
    "nand": 4.0,
    "nor": 4.0,
    "xor": 4.0,
    "xnor": 4.0,
    "copy": 3.0,     # read src, RFO dst, write back dst
    "fill": 2.0,     # RFO dst, write back dst
}

#: SIMD micro-ops needed per 32 B of result for each operation (AVX2 lanes).
SIMD_OPS_PER_CHUNK: Dict[str, int] = {
    "not": 2,        # load + xor-with-ones / store folded into load/store ops
    "and": 3,
    "or": 3,
    "nand": 4,
    "nor": 4,
    "xor": 3,
    "xnor": 4,
    "copy": 2,
    "fill": 1,
}


@dataclass(frozen=True)
class CpuParameters:
    """Host CPU configuration.

    Attributes:
        name: Label for reports.
        cores: Physical core count.
        frequency_ghz: Core clock.
        simd_width_bytes: Vector register width (32 for AVX2).
        ipc_simd: Sustained SIMD micro-ops per cycle per core.
        streaming_efficiency: Fraction of peak DRAM bandwidth a mixed
            read/RFO/write-back stream sustains (bus turnarounds, refresh,
            imperfect prefetch).  Measured values for bulk bitwise loops on
            desktop parts are 0.6–0.75 of peak.
    """

    name: str = "skylake-4core"
    cores: int = 4
    frequency_ghz: float = 3.5
    simd_width_bytes: int = 32
    ipc_simd: float = 2.0
    streaming_efficiency: float = 0.70

    @classmethod
    def skylake(cls) -> "CpuParameters":
        """The 4-core Skylake configuration used as the Ambit baseline."""
        return cls()


class HostCpu:
    """Analytical host-CPU execution model bound to a DRAM device.

    Args:
        parameters: CPU configuration.
        dram: The memory system the CPU is attached to (defaults to the
            dual-channel DDR3-1600 device).
        energy_model: Host-side energy parameters.
    """

    def __init__(
        self,
        parameters: Optional[CpuParameters] = None,
        dram: Optional[DramDevice] = None,
        energy_model: Optional[HostEnergyModel] = None,
    ) -> None:
        self.parameters = parameters or CpuParameters.skylake()
        self.dram = dram or DramDevice.ddr3()
        self.energy_model = energy_model or HostEnergyModel.desktop()

    # ------------------------------------------------------------------
    # Bandwidth / compute ceilings
    # ------------------------------------------------------------------
    def effective_bandwidth_bytes_per_s(self) -> float:
        """Sustained streaming bandwidth of the memory system."""
        return (
            self.dram.peak_bandwidth_bytes_per_s()
            * self.parameters.streaming_efficiency
        )

    def simd_throughput_bytes_per_s(self, op: str) -> float:
        """Peak rate at which the cores can produce result bytes for ``op``."""
        ops_per_chunk = SIMD_OPS_PER_CHUNK[op]
        p = self.parameters
        chunks_per_s = (
            p.cores * p.frequency_ghz * 1e9 * p.ipc_simd / ops_per_chunk
        )
        return chunks_per_s * p.simd_width_bytes

    # ------------------------------------------------------------------
    # Bulk operations
    # ------------------------------------------------------------------
    def bulk_bitwise(self, op: str, num_bytes: int) -> OperationMetrics:
        """Execute a bulk bitwise operation producing ``num_bytes`` of result.

        Args:
            op: One of ``not, and, or, nand, nor, xor, xnor``.
            num_bytes: Size of the result vector in bytes.
        """
        if op not in TRAFFIC_FACTORS:
            raise ValueError(f"unknown bulk operation {op!r}")
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        traffic = TRAFFIC_FACTORS[op] * num_bytes
        bandwidth_time_s = traffic / self.effective_bandwidth_bytes_per_s()
        compute_time_s = num_bytes / self.simd_throughput_bytes_per_s(op)
        latency_s = max(bandwidth_time_s, compute_time_s)

        simd_ops = (num_bytes // self.parameters.simd_width_bytes + 1) * SIMD_OPS_PER_CHUNK[op]
        energy = (
            self.energy_model.data_movement_energy_j(int(traffic))
            + self.energy_model.compute_energy_j(simd_ops=simd_ops)
            + self.energy_model.static_power_w * latency_s
        )
        return OperationMetrics(
            name=f"cpu_{op}",
            latency_ns=latency_s * 1e9,
            energy_j=energy,
            bytes_moved_on_channel=int(traffic),
            bytes_produced=num_bytes,
            notes=self.parameters.name,
        )

    def bulk_copy(self, num_bytes: int) -> OperationMetrics:
        """memcpy of ``num_bytes`` through the cache hierarchy."""
        return self._bulk_move("copy", num_bytes)

    def bulk_fill(self, num_bytes: int) -> OperationMetrics:
        """memset of ``num_bytes`` through the cache hierarchy."""
        return self._bulk_move("fill", num_bytes)

    def _bulk_move(self, op: str, num_bytes: int) -> OperationMetrics:
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        traffic = TRAFFIC_FACTORS[op] * num_bytes
        bandwidth_time_s = traffic / self.effective_bandwidth_bytes_per_s()
        compute_time_s = num_bytes / self.simd_throughput_bytes_per_s(op)
        latency_s = max(bandwidth_time_s, compute_time_s)
        simd_ops = (num_bytes // self.parameters.simd_width_bytes + 1) * SIMD_OPS_PER_CHUNK[op]
        energy = (
            self.energy_model.data_movement_energy_j(int(traffic))
            + self.energy_model.compute_energy_j(simd_ops=simd_ops)
            + self.energy_model.static_power_w * latency_s
        )
        return OperationMetrics(
            name=f"cpu_{op}",
            latency_ns=latency_s * 1e9,
            energy_j=energy,
            bytes_moved_on_channel=int(traffic),
            bytes_produced=num_bytes,
            notes=self.parameters.name,
        )
