"""Frontend-shaped batching under Poisson arrivals vs. sequential service.

PR 1's batch scheduler only overlapped banks when the *caller* hand-built
a batch; here the service shapes its own batches.  Predicate scans arrive
as a Poisson process at well over the sequential service rate; the
frontend admits them into a bounded priority queue (rejecting the
overflow), the planner closes size-limited batches, and the executor
overlaps them across the 8 banks of the paper's DDR3 configuration.

The acceptance bar: frontend-shaped batches sustain at least 6x the
sequential throughput while the run reports wait and sojourn p50/p99,
deadline misses, and rejections — and every completed scan stays bit-exact
with sequential execution at identical energy (bank overlap is the only
speedup mechanism; the service never changes the work).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import ResultTable
from repro.database.bitweaving import BitWeavingColumn
from repro.database.queries import QueryEngine

from _bench_utils import emit, emit_json

NUM_COLUMNS = 16
ROWS_PER_COLUMN = 65536  # one 8 KiB DRAM row per bit vector
CODE_BITS = 8
NUM_SCANS = 192
ARRIVAL_RATE_PER_S = 4e6        # well past the sequential service rate
MAX_BATCH = 64
MAX_QUEUE_DEPTH = 80
DEADLINE_SLACK_NS = 60_000.0    # a few scan latencies of slack


def _build_scans(seed: int = 7):
    rng = np.random.default_rng(seed)
    columns = [
        BitWeavingColumn(rng.integers(0, 1 << CODE_BITS, size=ROWS_PER_COLUMN), CODE_BITS)
        for _ in range(NUM_COLUMNS)
    ]
    kinds = ("between", "equal", "less_than", "less_equal")
    scans = []
    for index in range(NUM_SCANS):
        column = columns[index % NUM_COLUMNS]
        # Rotate the kind per column round (not per scan): every column —
        # and therefore every bank — sees the same mix of cheap and
        # expensive predicates, the balanced-traffic shape the sequential
        # baseline in bench_service_batch uses as well.
        kind = kinds[(index // NUM_COLUMNS) % len(kinds)]
        if kind == "between":
            low = int(rng.integers(0, 100))
            scans.append((column, kind, (low, low + int(rng.integers(1, 120)))))
        else:
            scans.append((column, kind, (int(rng.integers(0, 1 << CODE_BITS)),)))
    return scans


def _run_experiment(system):
    from repro.api import PimSession
    from repro.service import BatchPolicy, ScanRequest, poisson_schedule

    ambit = system["ambit"]
    scans = _build_scans()
    query_engine = QueryEngine(ambit=ambit)

    # Sequential baseline: each scan alone, one after another.
    sequential_ns = 0.0
    sequential_energy = 0.0
    sequential_bytes = 0
    for column, kind, constants in scans:
        _, plan = column.scan(kind, *constants)
        cost = query_engine.ambit_scan_cost(plan)
        sequential_ns += cost.latency_ns
        sequential_energy += cost.energy_j
        sequential_bytes += cost.bytes_produced

    # Frontend-shaped service under Poisson arrivals, driven through the
    # unified client API (the same loop drives the cluster benchmark).
    session = PimSession.over_service(
        engine=ambit,
        name="poisson_frontend",
        # sanitize=True: every dispatched schedule is replayed by the
        # race detector — the benchmark numbers are certified ones.
        sanitize=True,
        policy=BatchPolicy(max_batch=MAX_BATCH, window_ns=None),
        max_queue_depth=MAX_QUEUE_DEPTH,
    )
    requests = [ScanRequest(column=c, kind=k, constants=cs) for c, k, cs in scans]
    events = poisson_schedule(
        requests,
        rate_per_s=ARRIVAL_RATE_PER_S,
        seed=11,
        deadline_slack_ns=DEADLINE_SLACK_NS,
    )
    futures = session.submit_stream(events)
    session.drain()
    metrics = session.report().details

    completed = [f for f in futures if f.done()]
    completed_bytes = sum(f.metrics.bytes_produced for f in completed)
    completed_serial_ns = sum(f.metrics.latency_ns for f in completed)
    sequential_tput = sequential_bytes / (sequential_ns * 1e-9)
    pipeline_tput = completed_bytes / (metrics.busy_ns * 1e-9)
    speedup = pipeline_tput / sequential_tput

    table = ResultTable(
        title=f"Poisson arrivals ({ARRIVAL_RATE_PER_S / 1e6:.0f} M req/s offered) on "
        f"{ambit.config.banks_parallel} banks, batches of {MAX_BATCH}",
        columns=["mode", "served", "busy_ms", "GB/s", "speedup"],
    )
    table.add_row("sequential", len(scans), sequential_ns / 1e6,
                  sequential_tput / 1e9, 1.0)
    table.add_row("frontend", metrics.completed, metrics.busy_ns / 1e6,
                  pipeline_tput / 1e9, speedup)

    queue_table = ResultTable(
        title="Queueing metrics",
        columns=["offered", "rejected", "batches", "wait_p50_us", "wait_p99_us",
                 "sojourn_p50_us", "sojourn_p99_us", "deadline_misses"],
    )
    queue_table.add_row(
        metrics.offered, metrics.rejected, metrics.batches,
        metrics.wait_p50_ns / 1e3, metrics.wait_p99_ns / 1e3,
        metrics.sojourn_p50_ns / 1e3, metrics.sojourn_p99_ns / 1e3,
        metrics.deadline_misses,
    )
    return table, queue_table, session, futures, completed_serial_ns, speedup


@pytest.mark.benchmark(group="service-frontend")
def test_service_frontend_poisson_throughput(benchmark, ddr3_ambit_system):
    table, queue_table, session, futures, completed_serial_ns, speedup = benchmark(
        _run_experiment, ddr3_ambit_system
    )
    emit(table)
    emit(queue_table)
    emit(f"frontend-shaped throughput is {speedup:.1f}x sequential")
    metrics = session.report().details

    # Machine-readable perf trajectory for CI diffing.
    lanes = session.backend.lane_metrics("service_frontend")
    completed = [f for f in futures if f.done()]
    emit_json(
        "service_frontend",
        {
            "offered": metrics.offered,
            "completed": metrics.completed,
            "rejected": metrics.rejected,
            "batches": metrics.batches,
            "deadline_misses": metrics.deadline_misses,
            "throughput_gb_s": sum(f.metrics.bytes_produced for f in completed)
            / (metrics.busy_ns * 1e-9) / 1e9,
            "speedup_vs_sequential": speedup,
            "wait_p50_us": metrics.wait_p50_ns / 1e3,
            "wait_p99_us": metrics.wait_p99_ns / 1e3,
            "sojourn_p50_us": metrics.sojourn_p50_ns / 1e3,
            "sojourn_p99_us": metrics.sojourn_p99_ns / 1e3,
            "makespan_ms": metrics.makespan_ns / 1e6,
            "busy_ms": metrics.busy_ns / 1e6,
            "bank_idle_fraction": lanes.bank_idle_fraction,
            "cross_batch_overlap_us": lanes.cross_batch_overlap_ns / 1e3,
        },
    )

    # Acceptance: >= 6x sequential throughput from frontend-shaped batches.
    assert speedup >= 6.0

    # The queueing report carries wait/sojourn percentiles, misses, and
    # rejections — and they are internally consistent.
    assert metrics.sojourn_p99_ns >= metrics.sojourn_p50_ns > 0.0
    assert metrics.wait_p99_ns >= metrics.wait_p50_ns >= 0.0
    assert metrics.offered == NUM_SCANS
    assert metrics.completed + metrics.rejected == metrics.offered
    assert metrics.rejected > 0, "overload must exercise admission control"
    completed = [f for f in futures if f.done()]
    misses = sum(1 for f in completed if f.record.deadline_missed)
    assert metrics.deadline_misses == misses

    # Bit-exact with sequential execution, at identical energy.
    completed_energy = 0.0
    for future in completed:
        request = future.request
        response = future.result()
        expected, plan = request.column.scan(request.kind, *request.constants)
        assert np.array_equal(response.value, expected)
        assert response.matching_rows == int(
            np.unpackbits(expected, bitorder="little")[: request.column.num_rows].sum()
        )
        completed_energy += future.metrics.energy_j
    assert metrics.energy_j == pytest.approx(completed_energy)
    assert metrics.busy_ns <= completed_serial_ns
