"""DRAM substrate: geometry, timing, energy, and a functional device model.

This subpackage models a conventional DDRx main-memory system at the level
of detail the paper's arguments rely on: bytes crossing the channel for the
processor-centric baselines, and row-level primitives inside a bank for
RowClone and Ambit.  There is no memory controller; nothing the paper
prices needs one.

* :mod:`repro.dram.geometry` — physical organization (channels, ranks,
  banks, subarrays, rows, columns),
* :mod:`repro.dram.timing` — DDR3-1600 and HMC timing parameters and
  derived latencies, including the in-DRAM ``AAP`` and ``TRA`` primitives
  RowClone and Ambit are priced by,
* :mod:`repro.dram.energy` — IDD-based current/energy model with per-command
  and per-bit energies (DDR3-1600 and HMC presets),
* :mod:`repro.dram.bank` / :mod:`repro.dram.subarray` — functional row
  storage and the AAP / TRA primitives,
* :mod:`repro.dram.device` — the composed :class:`DramDevice`: its banks
  in (channel, rank, bank) order and its peak channel bandwidth.
"""

from repro.dram.bank import Bank
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.subarray import Subarray
from repro.dram.timing import DramTimingParameters

__all__ = [
    "Bank",
    "DramDevice",
    "DramEnergyParameters",
    "DramGeometry",
    "DramTimingParameters",
    "Subarray",
]
