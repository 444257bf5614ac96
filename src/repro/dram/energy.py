"""IDD-based DRAM energy model.

The model follows the standard Micron power-calculation methodology: each
command class (activate/precharge pair, read burst, write burst, refresh)
has an energy derived from the device's IDD currents and supply voltage,
and moving bits over the channel adds I/O and termination energy per bit.

Two derived quantities matter for the reproduction:

* ``energy_per_byte_channel_j`` — the processor-centric cost of moving a
  byte from a DRAM row to the CPU (activation amortized over the row, read
  burst, I/O, plus the on-chip interconnect cost accounted by the host
  model), and
* ``aap_energy_j`` — the cost of one in-DRAM AAP primitive, which touches
  an entire row without moving anything over the channel.

The 35x energy claim for Ambit (and RowClone's energy win) falls out of the
ratio between these two.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EnergyBreakdown:
    """Accumulator for energy spent in different parts of the memory system.

    All values are in joules.
    """

    activation_j: float = 0.0
    read_j: float = 0.0
    write_j: float = 0.0
    io_j: float = 0.0
    refresh_j: float = 0.0
    background_j: float = 0.0

    @property
    def total_j(self) -> float:
        """Total energy across all components."""
        return (
            self.activation_j
            + self.read_j
            + self.write_j
            + self.io_j
            + self.refresh_j
            + self.background_j
        )

    def add(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """Return a new breakdown that is the element-wise sum of two."""
        return EnergyBreakdown(
            activation_j=self.activation_j + other.activation_j,
            read_j=self.read_j + other.read_j,
            write_j=self.write_j + other.write_j,
            io_j=self.io_j + other.io_j,
            refresh_j=self.refresh_j + other.refresh_j,
            background_j=self.background_j + other.background_j,
        )

    def scaled(self, factor: float) -> "EnergyBreakdown":
        """Return a new breakdown with every component multiplied by ``factor``."""
        return EnergyBreakdown(
            activation_j=self.activation_j * factor,
            read_j=self.read_j * factor,
            write_j=self.write_j * factor,
            io_j=self.io_j * factor,
            refresh_j=self.refresh_j * factor,
            background_j=self.background_j * factor,
        )


@dataclass(frozen=True)
class DramEnergyParameters:
    """Current/voltage parameters of one DRAM device plus derived energies.

    Current values follow typical DDR3-1600 datasheet figures (per device;
    a x8 device, eight devices per rank).  The derived per-command energies
    are rank-level (i.e. already multiplied by the devices per rank).

    Attributes:
        name: Label of the device/speed bin the parameters describe.
        vdd: Supply voltage (V).
        idd0_ma: Activate-precharge current (one bank cycling), mA/device.
        idd2n_ma: Precharge standby current, mA/device.
        idd3n_ma: Active standby current, mA/device.
        idd4r_ma: Burst read current, mA/device.
        idd4w_ma: Burst write current, mA/device.
        idd5_ma: Refresh burst current, mA/device.
        devices_per_rank: DRAM chips ganged to form a 64-bit rank.
        io_pj_per_bit: Off-chip I/O + termination energy per transferred bit.
        t_rc_ns: Row cycle time used to convert IDD0 into an ACT/PRE energy.
        t_burst_ns: Burst duration used to convert IDD4R/W into burst energy.
        row_size_bytes: Row size used to amortize activation over bytes.
    """

    name: str = "DDR3-1600-x8"
    vdd: float = 1.5
    idd0_ma: float = 55.0
    idd2n_ma: float = 32.0
    idd3n_ma: float = 38.0
    idd4r_ma: float = 157.0
    idd4w_ma: float = 128.0
    idd5_ma: float = 235.0
    devices_per_rank: int = 8
    io_pj_per_bit: float = 4.5
    t_rc_ns: float = 48.75
    t_burst_ns: float = 5.0
    row_size_bytes: int = 8192

    # ------------------------------------------------------------------
    # Per-command energies (rank level)
    # ------------------------------------------------------------------
    @property
    def activation_energy_j(self) -> float:
        """Energy of one ACTIVATE + PRECHARGE pair for the whole rank.

        Uses the standard (IDD0 - IDD3N) * tRC formulation so that standby
        power is not double counted, then adds the array restore charge
        implicitly captured by IDD0.
        """
        delta_ma = max(self.idd0_ma - self.idd3n_ma, 0.0)
        per_device_j = delta_ma * 1e-3 * self.vdd * self.t_rc_ns * 1e-9
        return per_device_j * self.devices_per_rank

    @property
    def read_burst_energy_j(self) -> float:
        """Array + peripheral energy of one BL8 read burst (64 B), rank level."""
        delta_ma = max(self.idd4r_ma - self.idd3n_ma, 0.0)
        per_device_j = delta_ma * 1e-3 * self.vdd * self.t_burst_ns * 1e-9
        return per_device_j * self.devices_per_rank

    @property
    def write_burst_energy_j(self) -> float:
        """Array + peripheral energy of one BL8 write burst (64 B), rank level."""
        delta_ma = max(self.idd4w_ma - self.idd3n_ma, 0.0)
        per_device_j = delta_ma * 1e-3 * self.vdd * self.t_burst_ns * 1e-9
        return per_device_j * self.devices_per_rank

    @property
    def io_energy_per_byte_j(self) -> float:
        """Off-chip I/O and termination energy for one byte on the channel."""
        return self.io_pj_per_bit * 8 * 1e-12

    # ------------------------------------------------------------------
    # Derived per-byte costs
    # ------------------------------------------------------------------
    def channel_transfer_energy_j(self, num_bytes: int, *, is_write: bool = False) -> float:
        """Energy to move ``num_bytes`` over the channel in 64 B bursts.

        Includes the read or write burst energy plus I/O energy, but not the
        activation (callers add activations according to their row-locality
        assumptions).
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        bursts = (num_bytes + 63) // 64
        burst_energy = self.write_burst_energy_j if is_write else self.read_burst_energy_j
        return bursts * burst_energy + num_bytes * self.io_energy_per_byte_j

    @property
    def aap_energy_j(self) -> float:
        """Energy of one AAP (activate-activate-precharge) primitive.

        Two activations and a precharge; nothing crosses the channel, so
        there is no I/O or burst component.  RowClone and Ambit pay this for
        an entire row (``row_size_bytes`` of data) at a time.
        """
        return 2.0 * self.activation_energy_j

    @property
    def tra_energy_j(self) -> float:
        """Energy of one triple-row-activation AAP used by Ambit.

        The simultaneous activation of three rows raises the charge
        restored per activation; we model that as a 1.5x factor on the
        first activation, matching the Ambit paper's observation that TRA
        energy is modestly higher than a regular activation.
        """
        return 1.5 * self.activation_energy_j + self.activation_energy_j

    # ------------------------------------------------------------------
    # Presets
    # ------------------------------------------------------------------
    @classmethod
    def ddr3_1600(cls) -> "DramEnergyParameters":
        """Typical DDR3-1600 x8 datasheet values (the Ambit/RowClone config)."""
        return cls()

    @classmethod
    def hmc_internal(cls) -> "DramEnergyParameters":
        """Energy parameters for the DRAM layers of an HMC-like stack.

        TSV I/O is roughly an order of magnitude cheaper per bit than
        off-chip DDR I/O; rows are much smaller.
        """
        return cls(
            name="HMC-internal",
            vdd=1.2,
            idd0_ma=45.0,
            idd2n_ma=30.0,
            idd3n_ma=36.0,
            idd4r_ma=120.0,
            idd4w_ma=110.0,
            idd5_ma=180.0,
            devices_per_rank=1,
            io_pj_per_bit=1.0,
            t_rc_ns=46.75,
            t_burst_ns=1.6,
            row_size_bytes=1024,
        )
