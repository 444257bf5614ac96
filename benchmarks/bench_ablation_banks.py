"""A1 — How Ambit throughput scales with the number of DRAM banks.

Design-choice ablation (README.md, "Tests and benchmarks"): the 44x
headline (E1) assumes 8-bank parallelism on a DDR module.  This sweep shows
throughput scaling from 1 to 64 banks and where the advantage over the CPU
baseline starts (already at a single bank for row-wide operations).
"""

from __future__ import annotations

import pytest

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.tables import ResultTable
from repro.dram.device import DramDevice
from repro.hostsim.cpu import HostCpu

from _bench_utils import emit

BANK_COUNTS = (1, 2, 4, 8, 16, 32, 64)
VECTOR_BITS = 32 * 1024 * 1024 * 8


def _run_experiment():
    device = DramDevice.ddr3()
    cpu = HostCpu(dram=device)
    cpu_metrics = cpu.bulk_bitwise("and", VECTOR_BITS // 8)
    table = ResultTable(
        title="A1: bulk AND throughput vs. number of banks used by Ambit",
        columns=["banks", "ambit_gbps", "speedup_vs_cpu"],
    )
    speedups = []
    for banks in BANK_COUNTS:
        engine = AmbitEngine(device, AmbitConfig(banks_parallel=banks))
        a = BulkBitVector(VECTOR_BITS)
        b = BulkBitVector(VECTOR_BITS)
        _, metrics = engine.execute("and", a, b)
        speedup = metrics.throughput_bytes_per_s / cpu_metrics.throughput_bytes_per_s
        speedups.append(speedup)
        table.add_row(banks, metrics.throughput_bytes_per_s / 1e9, speedup)
    return table, speedups


@pytest.mark.benchmark(group="A1-bank-scaling")
def test_a1_throughput_scales_with_banks(benchmark):
    table, speedups = benchmark(_run_experiment)
    emit(table)
    # Row-wide operation beats the channel-bound CPU even with one bank, and
    # throughput scales linearly with the bank count.
    assert speedups[0] > 3
    for previous, current in zip(speedups, speedups[1:]):
        assert current == pytest.approx(2 * previous, rel=0.05)
