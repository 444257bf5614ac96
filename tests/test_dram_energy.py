"""Tests for repro.dram.energy."""

import pytest

from repro.dram.energy import DramEnergyParameters


class TestDramEnergyParameters:
    def test_activation_energy_is_positive_nanojoules(self):
        energy = DramEnergyParameters.ddr3_1600()
        assert 1e-9 < energy.activation_energy_j < 1e-7

    def test_read_and_write_burst_energy_positive(self):
        energy = DramEnergyParameters.ddr3_1600()
        assert energy.read_burst_energy_j > 0
        assert energy.write_burst_energy_j > 0

    def test_io_energy_per_byte_matches_per_bit(self):
        energy = DramEnergyParameters(io_pj_per_bit=5.0)
        assert energy.io_energy_per_byte_j == pytest.approx(40e-12)

    def test_aap_energy_is_two_activations(self):
        energy = DramEnergyParameters.ddr3_1600()
        assert energy.aap_energy_j == pytest.approx(2 * energy.activation_energy_j)

    def test_tra_energy_exceeds_aap_energy(self):
        energy = DramEnergyParameters.ddr3_1600()
        assert energy.tra_energy_j > energy.aap_energy_j

    def test_channel_transfer_energy_scales_with_size(self):
        energy = DramEnergyParameters.ddr3_1600()
        small = energy.channel_transfer_energy_j(64)
        large = energy.channel_transfer_energy_j(6400)
        assert large > small * 50

    def test_channel_transfer_write_differs_from_read(self):
        energy = DramEnergyParameters.ddr3_1600()
        read = energy.channel_transfer_energy_j(4096, is_write=False)
        write = energy.channel_transfer_energy_j(4096, is_write=True)
        assert read != write

    def test_channel_transfer_rejects_negative(self):
        with pytest.raises(ValueError):
            DramEnergyParameters.ddr3_1600().channel_transfer_energy_j(-1)

    def test_in_dram_op_cheaper_per_byte_than_channel_movement(self):
        """The core energy argument of the paper: an AAP touches a whole row
        without any channel I/O, so per byte it must be far cheaper than
        moving the same data to the CPU."""
        energy = DramEnergyParameters.ddr3_1600()
        aap_per_byte = energy.aap_energy_j / energy.row_size_bytes
        channel_per_byte = (
            energy.channel_transfer_energy_j(energy.row_size_bytes)
            / energy.row_size_bytes
        )
        assert channel_per_byte > 10 * aap_per_byte

    def test_presets_differ(self):
        assert (
            DramEnergyParameters.hmc_internal().io_pj_per_bit
            < DramEnergyParameters.ddr3_1600().io_pj_per_bit
        )
