"""The full 3D-stacked memory device and multi-stack systems.

:class:`HmcStack` models one Hybrid-Memory-Cube-class device: a set of
vaults, the logic layer budget, and the external links to the host.
:class:`StackedMemorySystem` composes several stacks into the memory system
of a Tesseract-style machine (one stack per memory partition, connected in
a mesh).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.stacked.logic_layer import LogicLayerBudget
from repro.stacked.network import InterconnectParameters, StackNetwork
from repro.stacked.vault import Vault, VaultParameters


@dataclass(frozen=True)
class HmcParameters:
    """Configuration of one HMC-like stack.

    Defaults follow the HMC 2.0 specification as used in the paper's
    studies: 8 GiB, 32 vaults, 16 GB/s of TSV bandwidth per vault
    (512 GB/s aggregate internal), and four external SerDes links totalling
    320 GB/s.

    Attributes:
        name: Label for reports.
        num_vaults: Vaults per stack.
        vault: Per-vault parameters.
        external_bandwidth_bytes_per_s: Aggregate link bandwidth to the host.
        external_link_energy_pj_per_bit: SerDes energy per bit to the host.
        logic_layer: Area/power budget for PIM logic.
    """

    name: str = "HMC-2.0"
    num_vaults: int = 32
    vault: VaultParameters = field(default_factory=VaultParameters)
    external_bandwidth_bytes_per_s: float = 320e9
    external_link_energy_pj_per_bit: float = 8.0
    logic_layer: LogicLayerBudget = field(default_factory=LogicLayerBudget)

    @classmethod
    def hmc2(cls) -> "HmcParameters":
        """HMC 2.0 with 32 vaults and 320 GB/s of external bandwidth."""
        return cls()

    @property
    def internal_bandwidth_bytes_per_s(self) -> float:
        """Aggregate TSV bandwidth of all vaults."""
        return self.num_vaults * self.vault.tsv_bandwidth_bytes_per_s

    @property
    def capacity_bytes(self) -> int:
        """Total DRAM capacity of the stack."""
        return self.num_vaults * self.vault.capacity_bytes

    @property
    def total_banks(self) -> int:
        """Total DRAM banks across all vaults."""
        return self.num_vaults * self.vault.banks


class HmcStack:
    """One stacked-memory device with its vaults.

    Args:
        parameters: Stack configuration.
        with_functional_dram: Give each vault a functional DRAM model
            (only needed when real bytes must move).
    """

    def __init__(
        self,
        parameters: Optional[HmcParameters] = None,
        with_functional_dram: bool = False,
    ) -> None:
        self.parameters = parameters or HmcParameters.hmc2()
        self.vaults: List[Vault] = [
            Vault(i, self.parameters.vault, with_functional_dram)
            for i in range(self.parameters.num_vaults)
        ]


class StackedMemorySystem:
    """Several stacks plus the network between them (a Tesseract machine).

    Args:
        num_stacks: Number of memory cubes.
        stack_parameters: Per-stack configuration.
        interconnect: Cube-to-cube/vault-to-vault interconnect parameters.
    """

    def __init__(
        self,
        num_stacks: int = 16,
        stack_parameters: Optional[HmcParameters] = None,
        interconnect: Optional[InterconnectParameters] = None,
    ) -> None:
        if num_stacks <= 0:
            raise ValueError("num_stacks must be positive")
        self.stacks: List[HmcStack] = [
            HmcStack(stack_parameters) for _ in range(num_stacks)
        ]
        self.network = StackNetwork(
            interconnect or InterconnectParameters.hmc2_mesh(), num_cubes=num_stacks
        )

    @property
    def num_stacks(self) -> int:
        """Number of cubes in the system."""
        return len(self.stacks)

    @property
    def num_vaults(self) -> int:
        """Total vaults across all cubes."""
        return sum(len(stack.vaults) for stack in self.stacks)

    @property
    def capacity_bytes(self) -> int:
        """Total capacity across all cubes."""
        return sum(stack.parameters.capacity_bytes for stack in self.stacks)
