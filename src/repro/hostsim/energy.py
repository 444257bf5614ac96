"""Energy parameters of the host system (cores, hierarchy, interconnect).

These per-byte and per-operation energies calibrate the processor-centric
cost of computing on data that lives in DRAM: each byte that an application
touches is charged for the levels of the hierarchy it traverses, plus the
core energy of the instructions that operate on it.  This is the accounting
behind the paper's "62.7% of system energy is data movement" observation and
behind the baseline side of every PIM comparison.

Default values are first-order figures for a ~14 nm mobile/desktop-class SoC
drawn from published architecture-survey numbers (register/ALU operations
cost on the order of a pJ, SRAM accesses tens of pJ per line, off-chip DRAM
accesses on the order of ten pJ per bit).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HostEnergyModel:
    """Per-event energies for host-side execution.

    Attributes:
        core_op_energy_j: Energy of one simple ALU micro-op (scalar).
        simd_op_energy_j: Energy of one 256-bit SIMD micro-op.
        l1_access_energy_j: Energy per 64 B L1 access.
        l2_access_energy_j: Energy per 64 B L2 access.
        llc_access_energy_j: Energy per 64 B LLC access.
        interconnect_energy_per_byte_j: On-chip interconnect (core<->LLC<->MC)
            energy per byte moved.
        dram_energy_per_byte_j: Off-chip DRAM energy per byte moved on the
            channel (activation share + burst + I/O), kept here so host-only
            models do not need a full DRAM device.
        static_power_w: Combined static/leakage power of the host chip, used
            by workload models that integrate power over execution time.
    """

    core_op_energy_j: float = 1.5e-12
    simd_op_energy_j: float = 9.0e-12
    l1_access_energy_j: float = 5.0e-12
    l2_access_energy_j: float = 2.0e-11
    llc_access_energy_j: float = 6.0e-11
    interconnect_energy_per_byte_j: float = 3.0e-12
    dram_energy_per_byte_j: float = 1.6e-10
    static_power_w: float = 1.5

    def hierarchy_energy_per_byte_j(self, *, reaches_memory: bool = True) -> float:
        """Average energy to move one byte from DRAM to the core registers.

        The byte is charged one L1, one L2, and one LLC line-access share,
        the on-chip interconnect, and (when ``reaches_memory``) the off-chip
        DRAM cost.  Cache accesses are per 64 B line, so the per-byte share
        divides by the line size.
        """
        per_byte = (
            self.l1_access_energy_j / 64.0
            + self.l2_access_energy_j / 64.0
            + self.llc_access_energy_j / 64.0
            + self.interconnect_energy_per_byte_j
        )
        if reaches_memory:
            per_byte += self.dram_energy_per_byte_j
        return per_byte

    def data_movement_energy_j(self, bytes_from_memory: int, bytes_on_chip_only: int = 0) -> float:
        """Total data-movement energy for a phase of execution.

        Args:
            bytes_from_memory: Bytes that had to come from (or go to) DRAM.
            bytes_on_chip_only: Bytes served entirely by the on-chip caches.
        """
        if bytes_from_memory < 0 or bytes_on_chip_only < 0:
            raise ValueError("byte counts must be non-negative")
        return bytes_from_memory * self.hierarchy_energy_per_byte_j(
            reaches_memory=True
        ) + bytes_on_chip_only * self.hierarchy_energy_per_byte_j(reaches_memory=False)

    def compute_energy_j(self, scalar_ops: int = 0, simd_ops: int = 0) -> float:
        """Core energy for a number of scalar and SIMD micro-ops."""
        if scalar_ops < 0 or simd_ops < 0:
            raise ValueError("operation counts must be non-negative")
        return scalar_ops * self.core_op_energy_j + simd_ops * self.simd_op_energy_j

    @classmethod
    def desktop(cls) -> "HostEnergyModel":
        """Skylake-class desktop parameters (the Ambit baseline system)."""
        return cls()
