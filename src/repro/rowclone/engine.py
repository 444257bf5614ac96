"""The RowClone engine: latency and energy of bulk in-DRAM copies.

:meth:`RowCloneEngine.bulk_copy` and :meth:`RowCloneEngine.bulk_fill`
account the latency and energy of copying/initializing arbitrarily large
regions row by row without materializing the rows.  The E8 benchmark,
:class:`~repro.core.system.PIMSystem` and the serving stack's
``CopyRequest`` price copies with them.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.analysis.metrics import OperationMetrics
from repro.dram.device import DramDevice


class CopyMode(enum.Enum):
    """Which RowClone mechanism performs a copy."""

    FPM = "fpm"                  # same-subarray, one AAP
    INTER_SUBARRAY = "lisa"      # same bank, different subarray (LISA chain)
    PSM = "psm"                  # different bank, internal bus, line by line


#: Latency multiplier of a LISA-style inter-subarray copy relative to one AAP.
#: LISA hops the row buffer across adjacent subarrays; a handful of hops
#: covers typical distances.
INTER_SUBARRAY_AAP_FACTOR = 4.0


class RowCloneEngine:
    """In-DRAM bulk copy/initialization engine bound to a DRAM device.

    Args:
        device: The DRAM device to operate on.
        banks_parallel: How many banks the memory controller overlaps when a
            bulk operation spans multiple banks.  Command-bus bandwidth is
            ample for AAP sequences, so all banks can proceed concurrently.
    """

    def __init__(self, device: Optional[DramDevice] = None, banks_parallel: Optional[int] = None) -> None:
        self.device = device or DramDevice.ddr3()
        self.banks_parallel = banks_parallel or self.device.geometry.banks_total

    # ------------------------------------------------------------------
    # Bulk analytical operations
    # ------------------------------------------------------------------
    def _rows_for(self, num_bytes: int) -> int:
        row_size = self.device.geometry.row_size_bytes
        return max(1, (num_bytes + row_size - 1) // row_size)

    def bulk_copy(self, num_bytes: int, mode: CopyMode = CopyMode.FPM) -> OperationMetrics:
        """Latency/energy of copying ``num_bytes`` with the given mode.

        Rows are spread across banks, and AAPs to different banks overlap,
        so the latency is the per-bank serial time of its share of rows.
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        rows = self._rows_for(num_bytes)
        timing = self.device.timing
        energy = self.device.energy_params
        rows_per_bank = -(-rows // self.banks_parallel)  # ceil division
        if mode is CopyMode.FPM:
            per_row_ns = timing.aap_ns
            per_row_j = energy.aap_energy_j
        elif mode is CopyMode.INTER_SUBARRAY:
            per_row_ns = timing.aap_ns * INTER_SUBARRAY_AAP_FACTOR
            per_row_j = energy.aap_energy_j * INTER_SUBARRAY_AAP_FACTOR
        else:  # PSM
            lines = self.device.geometry.row_size_bytes // 64
            per_row_ns = 2 * timing.t_rc_ns + lines * 2 * timing.burst_time_ns
            per_row_j = 2 * energy.activation_energy_j + lines * (
                energy.read_burst_energy_j + energy.write_burst_energy_j
            )
        return OperationMetrics(
            name=f"rowclone_bulk_copy_{mode.value}",
            latency_ns=rows_per_bank * per_row_ns,
            energy_j=rows * per_row_j,
            bytes_moved_on_channel=0,
            bytes_produced=num_bytes,
            notes=f"{rows} rows across {min(self.banks_parallel, rows)} banks",
        )

    def bulk_fill(self, num_bytes: int) -> OperationMetrics:
        """Latency/energy of zero-initializing ``num_bytes`` with FPM clones."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        rows = self._rows_for(num_bytes)
        timing = self.device.timing
        energy = self.device.energy_params
        rows_per_bank = -(-rows // self.banks_parallel)
        return OperationMetrics(
            name="rowclone_bulk_fill",
            latency_ns=rows_per_bank * timing.aap_ns,
            energy_j=rows * energy.aap_energy_j,
            bytes_moved_on_channel=0,
            bytes_produced=num_bytes,
            notes=f"{rows} rows across {min(self.banks_parallel, rows)} banks",
        )
