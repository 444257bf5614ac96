"""DRAM timing parameters and derived latencies.

Values are expressed in nanoseconds.  The presets correspond to published
JEDEC speed bins (DDR3-1600, DDR4-2400) and are the calibration points for
every latency/bandwidth ratio in the reproduction: the paper's in-DRAM
computing results are, at their core, arguments about the ratio between

* the time to stream a row's worth of data over the channel, and
* the time to operate on an entire row inside the bank (one or a few
  activate/precharge cycles).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.geometry import check_positive_fields


@dataclass(frozen=True)
class DramTimingParameters:
    """JEDEC-style timing parameters for one DRAM speed bin.

    Attributes:
        name: Human-readable speed-bin name.
        data_rate_mtps: Data transfers per second, in MT/s (DDR: 2 per clock).
        t_rcd_ns: ACT-to-column-command delay.
        t_ras_ns: ACT-to-PRE minimum row-open time.
        t_rp_ns: Precharge latency.
        t_cas_ns: Column access (read) latency.
        t_wr_ns: Write recovery time.
        t_rrd_ns: ACT-to-ACT delay between different banks.
        t_faw_ns: Four-activate window.
        t_refi_ns: Average refresh interval.
        t_rfc_ns: Refresh cycle time.
        burst_length: Transfers per column command (BL8 for DDR3/DDR4).
    """

    name: str = "DDR3-1600"
    data_rate_mtps: float = 1600.0
    t_rcd_ns: float = 13.75
    t_ras_ns: float = 35.0
    t_rp_ns: float = 13.75
    t_cas_ns: float = 13.75
    t_wr_ns: float = 15.0
    t_rrd_ns: float = 6.0
    t_faw_ns: float = 30.0
    t_refi_ns: float = 7800.0
    t_rfc_ns: float = 260.0
    burst_length: int = 8

    def __post_init__(self) -> None:
        check_positive_fields(self)

    # ------------------------------------------------------------------
    # Derived latencies
    # ------------------------------------------------------------------
    @property
    def tck_ns(self) -> float:
        """Period of the data bus clock: DDR moves two transfers per clock."""
        return 2000.0 / self.data_rate_mtps

    @property
    def t_rc_ns(self) -> float:
        """Row cycle time: minimum time between activations of one bank."""
        return self.t_ras_ns + self.t_rp_ns

    @property
    def burst_time_ns(self) -> float:
        """Time to transfer one burst: BL transfers, two per bus clock."""
        return self.burst_length / 2 * self.tck_ns

    def channel_bandwidth_bytes_per_s(self, channel_width_bits: int = 64) -> float:
        """Peak bandwidth of one channel of the given width."""
        return self.data_rate_mtps * 1e6 * channel_width_bits / 8

    # ------------------------------------------------------------------
    # In-DRAM operation primitives (RowClone / Ambit)
    # ------------------------------------------------------------------

    @property
    def aap_ns(self) -> float:
        """Duration of the ACTIVATE–ACTIVATE–PRECHARGE (AAP) primitive.

        AAP is the command sequence RowClone-FPM and Ambit are built from:
        the first activation drives a source row onto the bitlines, the
        back-to-back second activation connects the destination row so the
        sense amplifiers overwrite it, and the precharge closes the bank.
        The second activation can begin once the sense amplifiers have
        latched (approximately ``tRAS``), so the full primitive occupies
        roughly two row-open intervals plus one precharge.
        """
        return 2.0 * self.t_ras_ns + self.t_rp_ns

    @property
    def tra_ns(self) -> float:
        """Duration of one triple-row-activation (TRA) based AAP for Ambit.

        Ambit's charge-sharing majority operation is performed by an
        activation that connects three rows; its timing envelope matches an
        ordinary AAP because the extra wordline does not lengthen sensing
        appreciably (the Ambit paper reports the same command timing works
        in SPICE even under process variation).
        """
        return self.aap_ns

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def ddr3_1600(cls) -> "DramTimingParameters":
        """DDR3-1600 (PC3-12800), the configuration used by Ambit/RowClone."""
        return cls()

    @classmethod
    def hmc_internal(cls) -> "DramTimingParameters":
        """Timing of the DRAM layers inside an HMC-like 3D stack.

        The stacked DRAM arrays use similar core timings to DDR devices;
        the bandwidth advantage comes from the many narrow, short vertical
        channels (TSVs), not faster cells.
        """
        return cls(
            name="HMC-internal",
            data_rate_mtps=2500.0,
            t_rcd_ns=13.75,
            t_ras_ns=33.0,
            t_rp_ns=13.75,
            t_cas_ns=13.75,
            t_wr_ns=15.0,
            t_rrd_ns=5.0,
            t_faw_ns=25.0,
            t_refi_ns=7800.0,
            t_rfc_ns=260.0,
            burst_length=4,
        )
