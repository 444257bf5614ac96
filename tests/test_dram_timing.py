"""Tests for repro.dram.timing."""

import pytest

from repro.dram.timing import DramTimingParameters


class TestDerivedLatencies:
    def test_row_cycle_is_ras_plus_rp(self):
        timing = DramTimingParameters.ddr3_1600()
        assert timing.t_rc_ns == pytest.approx(timing.t_ras_ns + timing.t_rp_ns)

    def test_burst_time_matches_data_rate(self):
        timing = DramTimingParameters.ddr3_1600()
        # BL8 at 1600 MT/s should take 5 ns.
        assert timing.burst_time_ns == pytest.approx(5.0)

    def test_latency_ordering_hit_empty_miss(self):
        timing = DramTimingParameters.ddr3_1600()
        assert (
            timing.row_hit_read_latency_ns
            < timing.row_empty_read_latency_ns
            < timing.row_miss_read_latency_ns
        )

    def test_channel_bandwidth_ddr3_1600(self):
        timing = DramTimingParameters.ddr3_1600()
        assert timing.channel_bandwidth_bytes_per_s(64) == pytest.approx(12.8e9)

    def test_channel_bandwidth_scales_with_width(self):
        timing = DramTimingParameters.ddr3_1600()
        assert timing.channel_bandwidth_bytes_per_s(32) == pytest.approx(
            timing.channel_bandwidth_bytes_per_s(64) / 2
        )


class TestPimPrimitives:
    def test_aap_is_longer_than_one_row_cycle(self):
        timing = DramTimingParameters.ddr3_1600()
        assert timing.aap_ns > timing.t_rc_ns

    def test_aap_is_two_ras_plus_rp(self):
        timing = DramTimingParameters.ddr3_1600()
        assert timing.aap_ns == pytest.approx(2 * timing.t_ras_ns + timing.t_rp_ns)

    def test_tra_matches_aap_envelope(self):
        timing = DramTimingParameters.ddr3_1600()
        assert timing.tra_ns == pytest.approx(timing.aap_ns)


class TestPresetsAndValidation:

    def test_hmc_internal_preset_has_short_bursts(self):
        assert DramTimingParameters.hmc_internal().burst_length == 4

    @pytest.mark.parametrize("field", ["tck_ns", "t_rcd_ns", "t_ras_ns", "t_rp_ns"])
    def test_rejects_non_positive_timing(self, field):
        with pytest.raises(ValueError):
            DramTimingParameters(**{field: 0.0})

    def test_rejects_non_positive_burst_length(self):
        with pytest.raises(ValueError):
            DramTimingParameters(burst_length=0)
