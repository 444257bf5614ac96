"""Tests for repro.dram.device."""

import numpy as np
import pytest

from repro.dram.controller import Request, RequestKind
from repro.dram.device import DramDevice


def _write_lines(device: DramDevice, address: int, data: np.ndarray) -> None:
    """Write whole cache lines through the controller's request path."""
    for offset in range(0, data.size, 64):
        device.controller.submit(
            Request(RequestKind.WRITE, address=address + offset, data=data[offset : offset + 64])
        )
    device.controller.drain()


class TestFunctionalBulkAccess:
    def test_write_read_roundtrip(self, small_device):
        data = np.arange(256, dtype=np.uint8)
        _write_lines(small_device, 0, data)
        result = small_device.read_bytes(0, 256)
        assert np.array_equal(result.data, data)

    def test_unaligned_access_rejected(self, small_device):
        with pytest.raises(ValueError):
            small_device.read_bytes(10, 64)

    def test_partial_line_read_truncated(self, small_device):
        _write_lines(small_device, 0, np.full(64, 3, dtype=np.uint8))
        result = small_device.read_bytes(0, 10)
        assert result.data.size == 10 and np.all(result.data == 3)

    @pytest.mark.parametrize("length", [1, 64, 200, 4096])
    def test_reads_span_lines_rows_and_banks(self, small_device, length):
        data = np.random.default_rng(length).integers(0, 256, 4096).astype(np.uint8)
        _write_lines(small_device, 0, data)
        result = small_device.read_bytes(0, length)
        assert np.array_equal(result.data, data[:length])
        assert result.latency_ns > 0

    def test_read_negative_length_rejected(self, small_device):
        with pytest.raises(ValueError):
            small_device.read_bytes(0, -4)

    def test_latency_and_energy_reported(self, small_device):
        result = small_device.read_bytes(0, 128)
        assert result.latency_ns > 0
        assert result.energy.total_j > 0


class TestPresetsAndHelpers:
    def test_ddr3_capacity(self):
        assert DramDevice.ddr3().capacity_bytes == 4 << 30

    def test_decode_returns_valid_coordinate(self, ddr3_device):
        coordinate = ddr3_device.decode(1 << 20)
        assert 0 <= coordinate.channel < ddr3_device.geometry.channels
        assert 0 <= coordinate.row < ddr3_device.geometry.rows_per_bank

    def test_bank_at_and_iter_banks(self, small_device):
        banks = dict(small_device.iter_banks())
        assert len(banks) == small_device.geometry.banks_total
        key = next(iter(banks))
        assert small_device.bank_at(*key) is banks[key]

    def test_hmc_vault_preset_row_size(self):
        assert DramDevice.hmc_vault().geometry.row_size_bytes == 1024
