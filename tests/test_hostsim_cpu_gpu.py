"""Tests for repro.hostsim.cpu, repro.hostsim.gpu, repro.hostsim.energy."""

import pytest

from repro.hostsim.cpu import CpuParameters, HostCpu, TRAFFIC_FACTORS
from repro.hostsim.energy import HostEnergyModel
from repro.hostsim.gpu import GpuParameters, HostGpu


class TestHostEnergyModel:
    def test_memory_byte_costs_more_than_cached_byte(self):
        model = HostEnergyModel.desktop()
        assert model.hierarchy_energy_per_byte_j(reaches_memory=True) > (
            model.hierarchy_energy_per_byte_j(reaches_memory=False)
        )

    def test_data_movement_energy(self):
        model = HostEnergyModel.desktop()
        assert model.data_movement_energy_j(1000, 500) > model.data_movement_energy_j(1000)
        with pytest.raises(ValueError):
            model.data_movement_energy_j(-1)

    def test_compute_energy(self):
        model = HostEnergyModel.desktop()
        assert model.compute_energy_j(scalar_ops=10) == pytest.approx(10 * model.core_op_energy_j)
        with pytest.raises(ValueError):
            model.compute_energy_j(scalar_ops=-1)


class TestHostCpuBulkOps:
    def test_bulk_ops_are_bandwidth_bound(self):
        cpu = HostCpu()
        metrics = cpu.bulk_bitwise("and", 32 << 20)
        bandwidth_time_ns = (
            TRAFFIC_FACTORS["and"] * (32 << 20) / cpu.effective_bandwidth_bytes_per_s() * 1e9
        )
        assert metrics.latency_ns == pytest.approx(bandwidth_time_ns)

    def test_not_is_faster_than_and(self):
        cpu = HostCpu()
        assert cpu.bulk_bitwise("not", 1 << 20).latency_ns < cpu.bulk_bitwise("and", 1 << 20).latency_ns

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            HostCpu().bulk_bitwise("mystery", 1024)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            HostCpu().bulk_bitwise("and", -1)
        with pytest.raises(ValueError):
            HostCpu().bulk_copy(-1)

    def test_copy_and_fill(self):
        cpu = HostCpu()
        copy = cpu.bulk_copy(1 << 20)
        fill = cpu.bulk_fill(1 << 20)
        assert copy.latency_ns > fill.latency_ns  # copy moves more data
        assert copy.bytes_moved_on_channel == 3 * (1 << 20)
        assert fill.bytes_moved_on_channel == 2 * (1 << 20)

    def test_energy_scales_with_size(self):
        cpu = HostCpu()
        small = cpu.bulk_bitwise("xor", 1 << 20)
        large = cpu.bulk_bitwise("xor", 8 << 20)
        assert large.energy_j > 4 * small.energy_j

    def test_throughput_metric_consistent(self):
        cpu = HostCpu()
        metrics = cpu.bulk_bitwise("or", 1 << 20)
        assert metrics.throughput_bytes_per_s == pytest.approx(
            (1 << 20) / (metrics.latency_ns * 1e-9)
        )


class TestHostGpu:
    def test_bandwidth_bound_and_traffic_factor(self):
        gpu = HostGpu()
        metrics = gpu.bulk_bitwise("and", 32 << 20)
        expected_ns = 3.0 * (32 << 20) / gpu.effective_bandwidth_bytes_per_s() * 1e9
        assert metrics.latency_ns == pytest.approx(expected_ns)

    def test_gpu_faster_than_cpu_for_bulk_ops(self):
        # The GTX 745 has more usable bandwidth for these kernels than the
        # dual-channel DDR3 host (no read-for-ownership traffic).
        cpu_metrics = HostCpu().bulk_bitwise("and", 32 << 20)
        gpu_metrics = HostGpu().bulk_bitwise("and", 32 << 20)
        assert gpu_metrics.latency_ns < cpu_metrics.latency_ns

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            HostGpu().bulk_bitwise("mystery", 64)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            HostGpu().bulk_bitwise("and", -64)

    def test_parameters_preset(self):
        assert GpuParameters.gtx745().memory_bandwidth_bytes_per_s == pytest.approx(28.8e9)
