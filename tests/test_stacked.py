"""Tests for repro.stacked (vault, logic layer, network, hmc)."""

import pytest

from repro.stacked.hmc import HmcParameters, HmcStack, StackedMemorySystem
from repro.stacked.logic_layer import ComputeSiteKind, LogicLayerBudget, PimComputeSite
from repro.stacked.network import InterconnectParameters, StackNetwork
from repro.stacked.vault import Vault, VaultParameters


class TestVault:
    def test_transfer_energy(self):
        vault = Vault(0)
        assert vault.transfer_energy_j(1000) > 0
        with pytest.raises(ValueError):
            vault.transfer_energy_j(-1)

    def test_transfer_energy_is_linear_in_bytes(self):
        vault = Vault(0)
        assert vault.transfer_energy_j(0) == 0
        assert vault.transfer_energy_j(4096) == pytest.approx(4 * vault.transfer_energy_j(1024))

    def test_functional_dram_is_optional(self):
        assert Vault(0).dram is None
        assert Vault(0, with_functional_dram=True).dram is not None

    def test_tsv_energy_per_byte(self):
        params = VaultParameters(tsv_energy_pj_per_bit=4.0)
        assert params.tsv_energy_per_byte_j == pytest.approx(32e-12)


class TestLogicLayer:
    def test_budget_per_vault(self):
        budget = LogicLayerBudget(total_area_mm2=50.0, num_vaults=32)
        assert budget.area_per_vault_mm2 == pytest.approx(1.5625)

    def test_area_fractions_match_paper(self):
        budget = LogicLayerBudget()
        core = PimComputeSite.in_order_core()
        accel = PimComputeSite.fixed_function_accelerator()
        assert budget.area_fraction(core.area_mm2) == pytest.approx(0.094, abs=0.005)
        assert budget.area_fraction(accel.area_mm2) == pytest.approx(0.354, abs=0.01)
        assert core.fits(budget)
        assert accel.fits(budget)

    def test_negative_area_rejected(self):
        with pytest.raises(ValueError):
            LogicLayerBudget().area_fraction(-1.0)

    def test_compute_time_and_energy(self):
        core = PimComputeSite.in_order_core()
        assert core.compute_time_ns(2_000_000_000) == pytest.approx(1e9)
        assert core.compute_energy_j(1000) == pytest.approx(1000 * core.energy_per_op_j)
        with pytest.raises(ValueError):
            core.compute_time_ns(-1)

    def test_accelerator_is_more_efficient_per_op(self):
        core = PimComputeSite.in_order_core()
        accel = PimComputeSite.fixed_function_accelerator()
        assert accel.energy_per_op_j < core.energy_per_op_j
        assert accel.kind is ComputeSiteKind.FIXED_FUNCTION_ACCELERATOR


class TestStackNetwork:
    def test_intra_vs_inter_cube_accounting(self):
        network = StackNetwork(num_cubes=4)
        network.add_messages(100, 16, crosses_cube=False)
        network.add_messages(100, 16, crosses_cube=True)
        assert network.intra_cube_bytes == 100 * 32
        assert network.inter_cube_bytes == 100 * 32
        assert network.inter_cube_time_ns() > network.intra_cube_time_ns()

    def test_reset(self):
        network = StackNetwork()
        network.add_messages(10, 64, crosses_cube=True)
        network.reset()
        assert network.total_time_ns() == 0.0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            StackNetwork(num_cubes=0)
        with pytest.raises(ValueError):
            StackNetwork(average_inter_cube_hops=0.5)
        network = StackNetwork()
        with pytest.raises(ValueError):
            network.add_messages(-1, 8, crosses_cube=False)

    def test_aggregate_link_bandwidth(self):
        params = InterconnectParameters(inter_cube_link_bandwidth_bytes_per_s=40e9, links_per_cube=4)
        assert params.inter_cube_bandwidth_bytes_per_s == pytest.approx(160e9)


class TestHmcStack:
    def test_internal_bandwidth(self):
        params = HmcParameters.hmc2()
        assert params.internal_bandwidth_bytes_per_s == pytest.approx(512e9)
        assert len(HmcStack(params).vaults) == params.num_vaults


    def test_internal_bandwidth_exceeds_the_external_links(self):
        """The PIM opportunity: the vaults' TSVs together outrun the links
        to the host (HMC 2.0: 512 GB/s against 320 GB/s)."""
        params = HmcParameters.hmc2()
        ratio = params.internal_bandwidth_bytes_per_s / params.external_bandwidth_bytes_per_s
        assert ratio == pytest.approx(1.6)

class TestStackedMemorySystem:
    def test_vault_counts(self):
        system = StackedMemorySystem(num_stacks=4)
        assert system.num_stacks == 4
        assert system.num_vaults == 4 * 32

    def test_invalid_stack_count(self):
        with pytest.raises(ValueError):
            StackedMemorySystem(num_stacks=0)
