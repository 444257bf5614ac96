"""Tests for repro.dram.geometry."""

import pytest

from repro.dram.geometry import DramGeometry


class TestDramGeometryDerived:
    def test_rows_per_bank(self):
        geometry = DramGeometry(subarrays_per_bank=4, rows_per_subarray=128)
        assert geometry.rows_per_bank == 512

    def test_banks_total(self):
        geometry = DramGeometry(channels=2, ranks_per_channel=2, banks_per_rank=8)
        assert geometry.banks_total == 32

    def test_bank_capacity(self):
        geometry = DramGeometry(
            subarrays_per_bank=2, rows_per_subarray=4, row_size_bytes=1024
        )
        assert geometry.bank_capacity_bytes == 2 * 4 * 1024

    def test_total_capacity_is_product_of_banks_and_bank_capacity(self):
        geometry = DramGeometry.ddr3_dimm()
        assert (
            geometry.total_capacity_bytes
            == geometry.banks_total * geometry.bank_capacity_bytes
        )

    def test_describe_mentions_channels_and_rows(self):
        text = DramGeometry.ddr3_dimm().describe()
        assert "2 ch" in text
        assert "8192 B rows" in text


class TestDramGeometryValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "channels",
            "ranks_per_channel",
            "banks_per_rank",
            "subarrays_per_bank",
            "rows_per_subarray",
            "row_size_bytes",
            "channel_width_bits",
        ],
    )
    def test_rejects_non_positive_fields(self, field):
        with pytest.raises(ValueError):
            DramGeometry(**{field: 0})

    def test_rejects_row_size_not_multiple_of_cache_line(self):
        with pytest.raises(ValueError):
            DramGeometry(row_size_bytes=100)

    def test_frozen(self):
        geometry = DramGeometry()
        with pytest.raises(Exception):
            geometry.channels = 4  # type: ignore[misc]


class TestDramGeometryPresets:
    def test_ddr3_preset_is_4gib(self):
        assert DramGeometry.ddr3_dimm().total_capacity_bytes == 4 << 30

    def test_hmc_vault_rows_are_smaller_than_ddr_rows(self):
        assert (
            DramGeometry.hmc_vault_bank().row_size_bytes
            < DramGeometry.ddr3_dimm().row_size_bytes
        )
