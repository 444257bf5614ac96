"""One vault of a 3D-stacked memory device.

A vault is a vertical slice of the stack: a column of DRAM banks (one or
two per layer), the TSV bus that connects them to the logic layer, and the
vault controller.  Near-memory compute placed in the logic layer is
attached per vault, so each PIM core sees only its vault's partition of
memory at full TSV bandwidth — the organizing principle of Tesseract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.dram.energy import DramEnergyParameters


@dataclass(frozen=True)
class VaultParameters:
    """Per-vault configuration.

    Attributes:
        capacity_bytes: DRAM capacity of the vault.
        tsv_bandwidth_bytes_per_s: Peak bandwidth of the vault's TSV bus.
        tsv_energy_pj_per_bit: Energy to move one bit across the TSVs and
            the vault controller (roughly an order of magnitude below
            off-chip DDR I/O).
        access_latency_ns: Average latency of a vault-local access from the
            logic layer (bank access + TSV crossing).
        banks: Number of banks in the vault (for bank-level parallelism).
    """

    capacity_bytes: int = 512 * 1024 * 1024
    tsv_bandwidth_bytes_per_s: float = 16e9
    tsv_energy_pj_per_bit: float = 4.0
    access_latency_ns: float = 45.0
    banks: int = 16

    @classmethod
    def hmc2(cls) -> "VaultParameters":
        """HMC 2.0-style vault: 16 GB/s TSV bus, 16 banks."""
        return cls()

    @property
    def tsv_energy_per_byte_j(self) -> float:
        """TSV + vault-controller energy per byte."""
        return self.tsv_energy_pj_per_bit * 8 * 1e-12


class Vault:
    """One vault: parameters, an optional functional DRAM model, statistics.

    Args:
        index: Vault index within its stack.
        parameters: Vault configuration.
        with_functional_dram: Instantiate a functional DRAM device for the
            vault (only needed by tests/examples that move real bytes).
    """

    def __init__(
        self,
        index: int,
        parameters: Optional[VaultParameters] = None,
        with_functional_dram: bool = False,
    ) -> None:
        self.index = index
        self.parameters = parameters or VaultParameters.hmc2()
        self.dram: Optional[DramDevice] = None
        if with_functional_dram:
            self.dram = DramDevice(
                DramGeometry.hmc_vault_bank(),
                DramTimingParameters.hmc_internal(),
                DramEnergyParameters.hmc_internal(),
            )

    def transfer_energy_j(self, num_bytes: int) -> float:
        """Energy to move ``num_bytes`` across the TSVs (plus array access).

        Includes the DRAM array access energy of the stacked layers, which
        is comparable per bit to a planar device, plus the TSV crossing.
        Uses a flat per-byte figure calibrated from the stacked-DRAM
        energy literature (~10 pJ/b array + ~4 pJ/b TSV ≈ 1.8 pJ/B total is
        too low; we use 6 pJ/bit array + TSV).
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        array_pj_per_bit = 6.0
        total_pj_per_bit = array_pj_per_bit + self.parameters.tsv_energy_pj_per_bit
        return num_bytes * 8 * total_pj_per_bit * 1e-12
