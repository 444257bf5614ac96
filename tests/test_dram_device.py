"""Tests for repro.dram.device."""

import pytest

from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry


class TestPresetsAndHelpers:
    def test_ddr3_capacity(self):
        assert DramDevice.ddr3().capacity_bytes == 4 << 30

    def test_bank_at_and_iter_banks(self, small_device):
        banks = dict(small_device.iter_banks())
        assert len(banks) == small_device.geometry.banks_total
        key = next(iter(banks))
        assert small_device.bank_at(*key) is banks[key]

    def test_hmc_vault_preset_row_size(self):
        assert DramDevice.hmc_vault().geometry.row_size_bytes == 1024


class TestWhatTheDevicePromises:
    """The bank order the allocator and executor place by, the bandwidth the
    host baselines are priced against, and the capacity, for both presets."""

    @pytest.mark.parametrize(
        "preset, keys, peak_bytes_per_s, capacity",
        [
            (
                DramDevice.ddr3,
                [(channel, 0, bank) for channel in range(2) for bank in range(8)],
                25.6e9,
                4 << 30,
            ),
            (
                DramDevice.hmc_vault,
                [(0, 0, bank) for bank in range(16)],
                10.0e9,
                256 << 20,
            ),
        ],
        ids=["ddr3", "hmc_vault"],
    )
    def test_bank_order_bandwidth_and_capacity(
        self, preset, keys, peak_bytes_per_s, capacity
    ):
        device = preset()
        assert [key for key, _ in device.iter_banks()] == keys
        assert [bank.index for _, bank in device.iter_banks()] == [k[2] for k in keys]
        assert device.peak_bandwidth_bytes_per_s() == peak_bytes_per_s
        assert device.capacity_bytes == capacity

    def test_channel_then_rank_then_bank(self):
        geometry = DramGeometry(
            channels=2,
            ranks_per_channel=2,
            banks_per_rank=2,
            subarrays_per_bank=1,
            rows_per_subarray=4,
            row_size_bytes=64,
        )
        keys = [key for key, _ in DramDevice(geometry).iter_banks()]
        assert keys == sorted(keys) and len(keys) == 8
