"""Shared fixtures for the benchmark harness.

Each benchmark module regenerates one experiment (E1–E8 and the ablations
A1–A3; see "Tests and benchmarks" in README.md).  Benchmarks print the same
rows/series the paper reports and assert that the headline ratios fall in
the expected band, so a green benchmark run doubles as a reproduction check.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest


@pytest.fixture(scope="session")
def ddr3_ambit_system():
    """The Ambit configuration of the paper: DDR3-1600 with 8 banks used."""
    from repro.ambit.engine import AmbitConfig, AmbitEngine
    from repro.dram.device import DramDevice
    from repro.hostsim.cpu import HostCpu
    from repro.hostsim.gpu import HostGpu

    device = DramDevice.ddr3()
    return {
        "device": device,
        "ambit": AmbitEngine(device, AmbitConfig(banks_parallel=8)),
        "cpu": HostCpu(dram=device),
        "gpu": HostGpu(),
    }
