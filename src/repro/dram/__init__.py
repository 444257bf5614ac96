"""DRAM substrate: geometry, timing, energy, and a functional device model.

This subpackage models a conventional DDRx main-memory system at the level
of detail the paper's arguments rely on:

* :mod:`repro.dram.geometry` — physical organization (channels, ranks,
  banks, subarrays, rows, columns),
* :mod:`repro.dram.timing` — DDR3-1600 and HMC timing parameters and
  derived latencies, including the in-DRAM ``AAP`` and ``TRA`` primitives
  RowClone and Ambit are priced by,
* :mod:`repro.dram.energy` — IDD-based current/energy model with per-command
  and per-bit energies (DDR3-1600 and HMC presets),
* :mod:`repro.dram.bank` / :mod:`repro.dram.subarray` — functional row
  storage plus per-bank state machines,
* :mod:`repro.dram.address` — address mapping between linear physical
  addresses and (channel, rank, bank, row, column) coordinates,
* :mod:`repro.dram.controller` — a memory controller with an FR-FCFS
  scheduler for the functional read path and the channels' peak
  bandwidth the host baselines are priced against,
* :mod:`repro.dram.device` — the composed :class:`DramDevice`.
"""

from repro.dram.address import AddressMapper, DramCoordinate
from repro.dram.bank import Bank, BankState
from repro.dram.controller import MemoryController, Request, RequestKind
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters, EnergyBreakdown
from repro.dram.geometry import DramGeometry
from repro.dram.subarray import Subarray
from repro.dram.timing import DramTimingParameters

__all__ = [
    "AddressMapper",
    "Bank",
    "BankState",
    "DramCoordinate",
    "DramDevice",
    "DramEnergyParameters",
    "DramGeometry",
    "DramTimingParameters",
    "EnergyBreakdown",
    "MemoryController",
    "Request",
    "RequestKind",
    "Subarray",
]
