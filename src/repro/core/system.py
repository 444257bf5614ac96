"""The :class:`PIMSystem` facade.

``PIMSystem`` is the object most examples and downstream users interact
with.  It owns a host CPU model, a DRAM device, and the two in-DRAM engines
(RowClone and Ambit), executes bulk operations on either the host or the
PIM substrate, and keeps a log of :class:`OperationRecord` entries so users
can inspect what each operation cost and how the PIM execution compared to
the host baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.metrics import OperationMetrics
from repro.analysis.tables import ResultTable
from repro.dram.device import DramDevice
from repro.hostsim.cpu import CpuParameters, HostCpu
from repro.hostsim.energy import HostEnergyModel
from repro.rowclone.engine import CopyMode, RowCloneEngine


@dataclass
class OperationRecord:
    """One executed operation plus its host-baseline comparison.

    Attributes:
        pim: Metrics of the PIM execution.
        host_baseline: Metrics of the same operation on the host CPU.
    """

    pim: OperationMetrics
    host_baseline: OperationMetrics

    @property
    def speedup(self) -> float:
        """Latency improvement of PIM over the host baseline."""
        return self.pim.speedup_over(self.host_baseline)

    @property
    def energy_reduction(self) -> float:
        """Energy improvement factor of PIM over the host baseline."""
        return self.pim.energy_reduction_over(self.host_baseline)


class PIMSystem:
    """A complete PIM-capable memory system with a host attached.

    Args:
        device: DRAM device shared by the host and the PIM engines.
        cpu: Host CPU model (used for baselines and non-offloaded work).
        ambit_config: Ambit execution parameters.
        functional: Execute Ambit operations row by row on the simulated
            banks (exact but slow) instead of the analytical fast path.
    """

    def __init__(
        self,
        device: Optional[DramDevice] = None,
        cpu: Optional[HostCpu] = None,
        ambit_config: Optional[AmbitConfig] = None,
        functional: bool = False,
    ) -> None:
        self.device = device or DramDevice.ddr3()
        self.cpu = cpu or HostCpu(CpuParameters.skylake(), self.device, HostEnergyModel.desktop())
        self.ambit = AmbitEngine(self.device, ambit_config)
        self.rowclone = RowCloneEngine(self.device)
        self.functional = functional
        self.history: List[OperationRecord] = []

    @classmethod
    def default(cls) -> "PIMSystem":
        """Dual-channel DDR3-1600 system with a Skylake-class host."""
        return cls()

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc_bitvector(self, num_bits: int) -> BulkBitVector:
        """Allocate a bit vector placed in the PIM-capable device."""
        return self.ambit.alloc_vector(num_bits)

    # ------------------------------------------------------------------
    # Bulk bitwise operations
    # ------------------------------------------------------------------
    def _bulk_bitwise(self, op: str, a: BulkBitVector, b: BulkBitVector) -> BulkBitVector:
        result, pim_metrics = self.ambit.execute(op, a, b, functional=self.functional)
        host_metrics = self.cpu.bulk_bitwise(op, a.num_bytes)
        self.history.append(OperationRecord(pim=pim_metrics, host_baseline=host_metrics))
        return result

    def bulk_and(self, a: BulkBitVector, b: BulkBitVector) -> BulkBitVector:
        """``result = a AND b`` executed in DRAM."""
        return self._bulk_bitwise("and", a, b)

    def bulk_or(self, a: BulkBitVector, b: BulkBitVector) -> BulkBitVector:
        """``result = a OR b`` executed in DRAM."""
        return self._bulk_bitwise("or", a, b)

    def bulk_xor(self, a: BulkBitVector, b: BulkBitVector) -> BulkBitVector:
        """``result = a XOR b`` executed in DRAM."""
        return self._bulk_bitwise("xor", a, b)

    # ------------------------------------------------------------------
    # Bulk data movement
    # ------------------------------------------------------------------
    def copy(self, num_bytes: int, mode: CopyMode = CopyMode.FPM) -> OperationMetrics:
        """Bulk copy of ``num_bytes`` with RowClone; records the comparison."""
        pim = self.rowclone.bulk_copy(num_bytes, mode)
        host = self.cpu.bulk_copy(num_bytes)
        self.history.append(OperationRecord(pim=pim, host_baseline=host))
        return pim

    def fill(self, num_bytes: int) -> OperationMetrics:
        """Bulk zero-initialization with RowClone; records the comparison."""
        pim = self.rowclone.bulk_fill(num_bytes)
        host = self.cpu.bulk_fill(num_bytes)
        self.history.append(OperationRecord(pim=pim, host_baseline=host))
        return pim

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def last_operation(self) -> OperationRecord:
        """The most recent operation record."""
        if not self.history:
            raise RuntimeError("no operations have been executed yet")
        return self.history[-1]

    def last_operation_report(self) -> str:
        """Human-readable report of the most recent operation."""
        record = self.last_operation()
        return (
            f"{record.pim.name}: {record.pim.latency_ns:.0f} ns, "
            f"{record.pim.energy_j * 1e9:.1f} nJ "
            f"({record.speedup:.1f}x faster, {record.energy_reduction:.1f}x less energy "
            f"than {record.host_baseline.name})"
        )

    def history_table(self) -> ResultTable:
        """Table of every executed operation and its baseline comparison."""
        table = ResultTable(
            title="PIM operation history",
            columns=["operation", "pim_ns", "host_ns", "speedup", "energy_reduction"],
        )
        for record in self.history:
            table.add_row(
                record.pim.name,
                record.pim.latency_ns,
                record.host_baseline.latency_ns,
                record.speedup,
                record.energy_reduction,
            )
        return table
