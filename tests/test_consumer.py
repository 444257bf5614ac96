"""Tests for repro.consumer (workloads, energy model, offload, study)."""

import pytest

from repro.consumer.analysis import ConsumerStudy
from repro.consumer.energy_model import ConsumerEnergyModel, ConsumerEnergyParameters, EnergyAccount
from repro.consumer.pim_logic import PimOffloadEngine
from repro.consumer.workloads import (
    ConsumerWorkload,
    ExecutionPhase,
    chrome_browser,
    default_workloads,
    tensorflow_mobile,
    vp9_capture,
    vp9_playback,
)
from repro.stacked.logic_layer import ComputeSiteKind


def _dram_bytes(workload: ConsumerWorkload) -> float:
    return sum(p.dram_bytes for p in workload.phases)


def _instructions(workload: ConsumerWorkload) -> float:
    return sum(p.host_instructions for p in workload.phases)


class TestWorkloadModels:
    def test_default_workloads_are_the_four_google_workloads(self):
        names = [w.name for w in default_workloads()]
        assert names == ["chrome", "tensorflow", "vp9_playback", "vp9_capture"]

    def test_every_workload_has_target_functions_and_host_work(self):
        for workload in default_workloads():
            assert workload.target_functions, workload.name
            assert workload.host_phases, workload.name
            assert _dram_bytes(workload) > 0
            assert _instructions(workload) > 0

    def test_target_functions_dominate_dram_traffic(self):
        """The study's premise: the identified target functions account for
        the majority of the workloads' DRAM traffic."""
        for workload in default_workloads():
            target = sum(p.dram_bytes for p in workload.target_functions)
            assert target / _dram_bytes(workload) > 0.5, workload.name

    def test_workload_scales_with_parameters(self):
        small = chrome_browser(scroll_frames=10)
        large = chrome_browser(scroll_frames=100)
        assert _dram_bytes(large) > 5 * _dram_bytes(small)
        assert _dram_bytes(vp9_capture(frames=60)) < _dram_bytes(vp9_capture(frames=240))
        assert _instructions(tensorflow_mobile(layers=2)) < _instructions(tensorflow_mobile(layers=16))
        assert _dram_bytes(vp9_playback(width=1280, height=720)) < _dram_bytes(vp9_playback())

    def test_phase_validation(self):
        with pytest.raises(ValueError):
            ExecutionPhase("bad", True, host_instructions=-1, dram_bytes=0)
        with pytest.raises(ValueError):
            ExecutionPhase("bad", True, host_instructions=1, dram_bytes=1, streaming_fraction=2.0)

    def test_effective_pim_ops_defaults_to_instructions(self):
        phase = ExecutionPhase("p", True, host_instructions=100, dram_bytes=10)
        assert phase.effective_pim_ops == 100
        override = ExecutionPhase("p", True, host_instructions=100, dram_bytes=10, pim_ops=40)
        assert override.effective_pim_ops == 40


class TestEnergyModel:
    def test_account_arithmetic(self):
        account = EnergyAccount(compute_j=1.0, cache_j=0.5, interconnect_j=0.5, dram_j=2.0, static_j=1.0)
        assert account.data_movement_j == pytest.approx(3.0)
        assert account.total_j == pytest.approx(5.0)
        assert account.data_movement_fraction == pytest.approx(0.6)

    def test_empty_account_fraction_is_zero(self):
        assert EnergyAccount().data_movement_fraction == 0.0

    def test_phase_time_roofline(self):
        model = ConsumerEnergyModel()
        memory_bound = ExecutionPhase("m", True, host_instructions=1e3, dram_bytes=1e9)
        compute_bound = ExecutionPhase("c", True, host_instructions=1e12, dram_bytes=1e3)
        assert model.phase_time_s(memory_bound) == pytest.approx(
            1e9 / model.parameters.dram_bandwidth_bytes_per_s
        )
        assert model.phase_time_s(compute_bound) == pytest.approx(
            1e12 / model.parameters.cpu_ops_per_second
        )

    def test_scattered_traffic_is_slower(self):
        model = ConsumerEnergyModel()
        streaming = ExecutionPhase("s", True, 1.0, dram_bytes=1e9, streaming_fraction=1.0)
        scattered = ExecutionPhase("r", True, 1.0, dram_bytes=1e9, streaming_fraction=0.0)
        assert model.phase_time_s(scattered) > model.phase_time_s(streaming)

    def test_workload_account_is_sum_of_phases(self):
        model = ConsumerEnergyModel()
        workload = chrome_browser()
        total = model.workload_account(workload)
        summed = sum(model.phase_account(p).total_j for p in workload.phases)
        assert total.total_j == pytest.approx(summed)


class TestPimOffload:
    def test_offload_reduces_energy_for_every_workload(self):
        engine = PimOffloadEngine()
        model = ConsumerEnergyModel()
        for workload in default_workloads():
            host = model.workload_account(workload)
            for kind in (ComputeSiteKind.GENERAL_PURPOSE_CORE, ComputeSiteKind.FIXED_FUNCTION_ACCELERATOR):
                result = engine.execute(workload, kind)
                assert result.account.total_j < host.total_j, (workload.name, kind)
                assert result.fits_budget

    def test_offloading_non_target_phase_rejected(self):
        engine = PimOffloadEngine()
        host_phase = default_workloads()[0].host_phases[0]
        from repro.stacked.logic_layer import PimComputeSite

        with pytest.raises(ValueError):
            engine.pim_phase_account(host_phase, PimComputeSite.in_order_core())

    def test_invalid_site_kind_rejected(self):
        engine = PimOffloadEngine()
        with pytest.raises(ValueError):
            engine.execute(default_workloads()[0], ComputeSiteKind.NONE)

    def test_vaults_used_must_be_positive(self):
        with pytest.raises(ValueError):
            PimOffloadEngine(vaults_used=0)


class TestConsumerStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return ConsumerStudy()

    def test_e6_data_movement_fraction_in_paper_band(self, study):
        """Paper: 62.7% of system energy is data movement (we accept 50-75%)."""
        fraction = study.average_data_movement_fraction()
        assert 0.50 < fraction < 0.75
        for report in study.energy_fraction_reports():
            assert 0.4 < report.data_movement_fraction < 0.85

    def test_e7_reductions_in_paper_band(self, study):
        """Paper: -55.4% energy and -54.2% time on average (we accept wide bands)."""
        averages = study.average_reductions()
        assert 35 < averages["pim_core_energy_reduction_percent"] < 70
        assert 35 < averages["pim_core_time_reduction_percent"] < 80
        assert 35 < averages["pim_accelerator_energy_reduction_percent"] < 70
        assert 50 < averages["pim_accelerator_time_reduction_percent"] < 95

    def test_e7_area_fits_budget(self, study):
        comparisons = study.offload_comparisons()
        for comparison in comparisons:
            assert comparison.pim_core.fits_budget
            assert comparison.pim_accelerator.fits_budget
            assert comparison.pim_core.area_fraction == pytest.approx(0.094, abs=0.01)
            assert comparison.pim_accelerator.area_fraction == pytest.approx(0.354, abs=0.02)

    def test_tables_render(self, study):
        assert "E6" in study.energy_fraction_table().render()
        assert "E7" in study.offload_table().render()
        assert "pim_core" in study.area_table().render()

    def test_offload_comparison_accessors(self, study):
        comparison = study.offload_comparisons()[0]
        assert comparison.energy_reduction_percent(ComputeSiteKind.GENERAL_PURPOSE_CORE) > 0
        with pytest.raises(ValueError):
            comparison.energy_reduction_percent(ComputeSiteKind.NONE)
