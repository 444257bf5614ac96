"""Host-processor baselines: a Skylake-like CPU and a GPU model.

The paper compares every PIM mechanism against processor-centric execution
on a conventional system.  This subpackage provides those baselines:

* :mod:`repro.hostsim.cpu` — an analytical multi-core CPU model for bulk
  (streaming) operations,
* :mod:`repro.hostsim.gpu` — an analytical discrete-GPU throughput model
  (the GTX-745-class comparison point used by Ambit),
* :mod:`repro.hostsim.energy` — per-access/per-byte energy parameters of
  the on-chip hierarchy and the off-chip channel.
"""

from repro.hostsim.cpu import CpuParameters, HostCpu
from repro.hostsim.energy import HostEnergyModel
from repro.hostsim.gpu import GpuParameters, HostGpu

__all__ = [
    "CpuParameters",
    "HostCpu",
    "HostEnergyModel",
    "GpuParameters",
    "HostGpu",
]
