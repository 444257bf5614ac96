"""Tests for repro.rowclone.engine."""

import pytest

from repro.dram.device import DramDevice
from repro.hostsim.cpu import HostCpu
from repro.rowclone.engine import INTER_SUBARRAY_AAP_FACTOR, CopyMode, RowCloneEngine


class TestBulkAnalytical:
    def test_fpm_faster_than_psm(self):
        engine = RowCloneEngine(DramDevice.ddr3())
        fpm = engine.bulk_copy(8 << 20, CopyMode.FPM)
        psm = engine.bulk_copy(8 << 20, CopyMode.PSM)
        assert fpm.latency_ns < psm.latency_ns
        assert fpm.energy_j < psm.energy_j

    def test_inter_subarray_copy_is_a_lisa_multiple_of_fpm(self):
        engine = RowCloneEngine(DramDevice.ddr3())
        fpm = engine.bulk_copy(8 << 20, CopyMode.FPM)
        lisa = engine.bulk_copy(8 << 20, CopyMode.INTER_SUBARRAY)
        assert lisa.latency_ns == pytest.approx(INTER_SUBARRAY_AAP_FACTOR * fpm.latency_ns)
        assert lisa.energy_j == pytest.approx(INTER_SUBARRAY_AAP_FACTOR * fpm.energy_j)

    def test_rowclone_beats_cpu_copy(self):
        device = DramDevice.ddr3()
        engine = RowCloneEngine(device)
        cpu = HostCpu(dram=device)
        size = 16 << 20
        assert engine.bulk_copy(size).latency_ns < cpu.bulk_copy(size).latency_ns
        assert engine.bulk_copy(size).energy_j < cpu.bulk_copy(size).energy_j

    def test_single_page_copy_speedup_in_published_range(self):
        """RowClone-FPM copies one page in about one AAP; the CPU moves it
        over the channel.  The published per-page speedup is ~11x; allow a
        generous band around it."""
        device = DramDevice.ddr3()
        engine = RowCloneEngine(device)
        cpu = HostCpu(dram=device)
        page = device.geometry.row_size_bytes
        speedup = cpu.bulk_copy(page).latency_ns / engine.bulk_copy(page).latency_ns
        assert 5 < speedup < 40

    def test_bulk_fill_uses_one_aap_per_row(self):
        device = DramDevice.ddr3()
        engine = RowCloneEngine(device, banks_parallel=1)
        rows = 10
        metrics = engine.bulk_fill(rows * device.geometry.row_size_bytes)
        assert metrics.latency_ns == pytest.approx(rows * device.timing.aap_ns)

    def test_latency_scales_with_rows_per_bank(self):
        device = DramDevice.ddr3()
        engine = RowCloneEngine(device)
        one_round = engine.bulk_copy(device.geometry.banks_total * device.geometry.row_size_bytes)
        two_rounds = engine.bulk_copy(2 * device.geometry.banks_total * device.geometry.row_size_bytes)
        assert two_rounds.latency_ns == pytest.approx(2 * one_round.latency_ns)

    def test_negative_sizes_rejected(self):
        engine = RowCloneEngine(DramDevice.ddr3())
        with pytest.raises(ValueError):
            engine.bulk_copy(-1)
        with pytest.raises(ValueError):
            engine.bulk_fill(-1)


class TestBulkCopyPricing:
    """Each mode's per-row price, and how rows spread over banks."""

    @pytest.mark.parametrize("mode", list(CopyMode))
    def test_zero_bytes_still_costs_one_row(self, mode):
        engine = RowCloneEngine(DramDevice.ddr3())
        empty = engine.bulk_copy(0, mode)
        one_row = engine.bulk_copy(engine.device.geometry.row_size_bytes, mode)
        assert (empty.latency_ns, empty.energy_j) == (one_row.latency_ns, one_row.energy_j)
        assert empty.bytes_produced == 0

    @pytest.mark.parametrize("mode", list(CopyMode))
    def test_a_partial_row_is_charged_as_a_whole_row(self, mode):
        device = DramDevice.ddr3()
        engine = RowCloneEngine(device, banks_parallel=1)
        row = device.geometry.row_size_bytes
        assert engine.bulk_copy(row + 1, mode).latency_ns == pytest.approx(
            2 * engine.bulk_copy(row, mode).latency_ns
        )

    @pytest.mark.parametrize("mode", list(CopyMode))
    def test_banks_overlap_latency_but_every_row_costs_energy(self, mode):
        device = DramDevice.ddr3()
        banks = device.geometry.banks_total
        size = banks * device.geometry.row_size_bytes
        serial = RowCloneEngine(device, banks_parallel=1).bulk_copy(size, mode)
        parallel = RowCloneEngine(device).bulk_copy(size, mode)
        assert serial.latency_ns == pytest.approx(banks * parallel.latency_ns)
        assert serial.energy_j == pytest.approx(parallel.energy_j)

    @pytest.mark.parametrize("mode", list(CopyMode))
    def test_copies_stay_off_the_channel(self, mode):
        engine = RowCloneEngine(DramDevice.ddr3())
        metrics = engine.bulk_copy(1 << 20, mode)
        assert metrics.bytes_moved_on_channel == 0
        assert metrics.bytes_produced == 1 << 20
        assert metrics.name == f"rowclone_bulk_copy_{mode.value}"

    def test_psm_moves_each_line_through_the_internal_bus(self):
        """PSM opens both rows and moves the row a cache line at a time:
        two activations plus a read and a write burst per 64 B line."""
        device = DramDevice.ddr3()
        timing, energy = device.timing, device.energy_params
        lines = device.geometry.row_size_bytes // 64
        psm = RowCloneEngine(device, banks_parallel=1).bulk_copy(
            device.geometry.row_size_bytes, CopyMode.PSM
        )
        assert psm.latency_ns == pytest.approx(2 * timing.t_rc_ns + 2 * lines * timing.burst_time_ns)
        assert psm.energy_j == pytest.approx(
            2 * energy.activation_energy_j
            + lines * (energy.read_burst_energy_j + energy.write_burst_energy_j)
        )

    def test_fill_costs_what_an_fpm_copy_of_the_same_size_costs(self):
        engine = RowCloneEngine(DramDevice.ddr3())
        for size in (0, 100, 8 << 20):
            fill = engine.bulk_fill(size)
            copy = engine.bulk_copy(size, CopyMode.FPM)
            assert (fill.latency_ns, fill.energy_j, fill.bytes_produced) == (
                copy.latency_ns, copy.energy_j, copy.bytes_produced,
            )
