"""Service-layer batching: 64 BitWeaving scans batched vs. sequential.

The batch executor may only speed a batch up through bank-level overlap —
per-request latency and total energy are pinned to sequential execution by
the service-layer property tests.  This benchmark quantifies that overlap
on the paper's DDR3 configuration (16 banks): 64 predicate scans over 16
BitWeaving columns, whose single-row bit vectors land on distinct banks,
executed one at a time vs. as one batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import ResultTable
from repro.database.bitweaving import BitWeavingColumn
from repro.database.queries import QueryEngine

from _bench_utils import emit

NUM_COLUMNS = 16
SCANS_PER_COLUMN = 4
ROWS_PER_COLUMN = 65536  # one 8 KiB DRAM row per bit vector
CODE_BITS = 8


def _build_columns(seed: int = 7):
    rng = np.random.default_rng(seed)
    return [
        BitWeavingColumn(rng.integers(0, 1 << CODE_BITS, size=ROWS_PER_COLUMN), CODE_BITS)
        for _ in range(NUM_COLUMNS)
    ]


def _build_scans(columns):
    scans = []
    for index, column in enumerate(columns):
        scans.append((column, "between", (10, 17 + index * 8)))
        scans.append((column, "equal", (index * 13 % (1 << CODE_BITS),)))
        scans.append((column, "less_than", (1 + index * 9 % (1 << CODE_BITS),)))
        scans.append((column, "less_equal", (index * 5 % (1 << CODE_BITS),)))
    return scans


def _run_experiment(system):
    from repro.service import BatchExecutor, ScanRequest

    ambit = system["ambit"]
    columns = _build_columns()
    scans = _build_scans(columns)
    assert len(scans) == NUM_COLUMNS * SCANS_PER_COLUMN == 64

    # Sequential: each scan alone, one after another (the seed's behavior).
    query_engine = QueryEngine(ambit=ambit)
    sequential_ns = 0.0
    sequential_energy = 0.0
    result_bytes = 0
    for column, kind, constants in scans:
        _, plan = column.scan(kind, *constants)
        cost = query_engine.ambit_scan_cost(plan)
        sequential_ns += cost.latency_ns
        sequential_energy += cost.energy_j
        result_bytes += cost.bytes_produced

    # Batched: all 64 scans as one executor batch.
    batch = BatchExecutor(engine=ambit).run(
        [
            ScanRequest(column=column, kind=kind, constants=constants)
            for column, kind, constants in scans
        ]
    )

    sequential_tput = result_bytes / (sequential_ns * 1e-9)
    batched_tput = batch.metrics.throughput_bytes_per_s
    speedup = batched_tput / sequential_tput

    table = ResultTable(
        title=f"Service batching: {len(scans)} scans over {NUM_COLUMNS} columns, "
        f"{ambit.config.banks_parallel} banks",
        columns=["mode", "latency_ms", "energy_mj", "GB/s", "speedup"],
    )
    table.add_row("sequential", sequential_ns / 1e6, sequential_energy * 1e3,
                  sequential_tput / 1e9, 1.0)
    table.add_row("batched", batch.metrics.latency_ns / 1e6,
                  batch.metrics.energy_j * 1e3, batched_tput / 1e9, speedup)
    return table, batch, sequential_ns, sequential_energy, speedup


@pytest.mark.benchmark(group="service-batching")
def test_service_batch_throughput(benchmark, ddr3_ambit_system):
    table, batch, sequential_ns, sequential_energy, speedup = benchmark(
        _run_experiment, ddr3_ambit_system
    )
    emit(table)
    emit(f"batched throughput is {speedup:.1f}x sequential")
    # Acceptance: >= 2x throughput for a 64-scan batch on a multi-bank config.
    assert speedup >= 2.0
    # Batching is free in energy and never loses latency.
    assert batch.metrics.energy_j == pytest.approx(sequential_energy)
    assert batch.metrics.latency_ns <= sequential_ns
