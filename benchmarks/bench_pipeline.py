"""Lane pipelining vs the batch-synchronous barrier under bank skew.

The service tier used to be batch-synchronous: one straggler request held
*every* bank idle until the batch's makespan elapsed.  Cross-batch lane
pipelining (``BatchExecutor(pipeline=True)``, the default) carries each
bank's busy-until horizon across batches, so a new batch's requests start
on banks the previous batch has already drained.

This benchmark makes the win measurable under the shape that hurts the
barrier most: a skewed Poisson overload where one scan in
``1/STRAGGLER_PERIOD`` is a wide ``between`` over a high-bit-width column
(a straggler several times costlier than the common case), with columns
spread across the 8 banks of the paper's DDR3 configuration.  Both modes
serve the *identical* admitted workload (admission is unbounded here so
the comparison is schedule-vs-schedule), and results stay bit-exact — the
property tests in ``tests/test_service_lanes.py`` pin that; here we spot
check it and compare modeled completion.

The acceptance bar: pipelined modeled throughput (completed bytes over
the completion makespan) is at least 1.3x the barrier's on this workload,
and the run emits ``BENCH_pipeline.json`` with throughput, sojourn
percentiles, makespans, and bank idle fractions for both modes, plus
``TRACE_pipeline.json`` — the Perfetto lane timeline of the pipelined run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import ResultTable
from repro.database.bitweaving import BitWeavingColumn
from repro.service import (
    BatchPolicy,
    PipelineConfig,
    ScanRequest,
    ServiceFrontend,
    poisson_schedule,
)

from _bench_utils import emit, emit_json, emit_trace, serve

BANKS = 8
ROWS_PER_COLUMN = 65536         # one 8 KiB DRAM row per bit plane
SMALL_BITS = 4                  # the common, cheap predicate scans
BIG_BITS = 12                   # straggler scans: 3x the planes, 'between'
NUM_SCANS = 256
STRAGGLER_PERIOD = 8            # every 8th scan is a straggler
ARRIVAL_RATE_PER_S = 8e6        # well past the sequential service rate
MAX_BATCH = 16


def _build_scans(seed: int = 7):
    rng = np.random.default_rng(seed)
    small = [
        BitWeavingColumn(rng.integers(0, 1 << SMALL_BITS, size=ROWS_PER_COLUMN), SMALL_BITS)
        for _ in range(BANKS)
    ]
    big = [
        BitWeavingColumn(rng.integers(0, 1 << BIG_BITS, size=ROWS_PER_COLUMN), BIG_BITS)
        for _ in range(BANKS)
    ]
    scans = []
    for index in range(NUM_SCANS):
        if index % STRAGGLER_PERIOD == 0:
            column = big[(index // STRAGGLER_PERIOD) % BANKS]
            low = int(rng.integers(0, 1 << (BIG_BITS - 1)))
            high = low + int(rng.integers(1, 1 << (BIG_BITS - 1)))
            scans.append((column, "between", (low, high)))
        else:
            column = small[index % BANKS]
            scans.append((column, "less_than", (int(rng.integers(1, 1 << SMALL_BITS)),)))
    return scans


def _run_mode(system, scans, pipeline: bool):
    ambit = system["ambit"]
    config = PipelineConfig(
        pipeline=pipeline,
        # sanitize: every dispatch is certified by the schedule race
        # detector (repro.verify) — the benchmark doubles as its workload.
        sanitize=True,
        policy=BatchPolicy(max_batch=MAX_BATCH, window_ns=None),
        max_queue_depth=10 * NUM_SCANS,  # unbounded: identical workloads
    )
    # Trace the pipelined mode (bit-exactness with observe=False is a
    # property test); its TRACE_pipeline.json ships with the bench JSON.
    frontend = ServiceFrontend(config, engine=ambit, observe=pipeline)
    requests = [ScanRequest(column=c, kind=k, constants=cs) for c, k, cs in scans]
    events = poisson_schedule(requests, rate_per_s=ARRIVAL_RATE_PER_S, seed=11)
    report, records = serve(frontend, events, name="pipelined" if pipeline else "barrier")
    completed = [record for record in records if record.completed]
    completed_bytes = sum(r.metrics.bytes_produced for r in completed)
    throughput = completed_bytes / (report.makespan_ns * 1e-9)
    return frontend, report.details, completed, throughput


def _run_experiment(system):
    scans = _build_scans()
    outcomes = {}
    for pipeline in (False, True):
        outcomes[pipeline] = _run_mode(system, scans, pipeline)
    return scans, outcomes


@pytest.mark.benchmark(group="pipeline")
def test_lane_pipelining_beats_the_barrier(benchmark, ddr3_ambit_system):
    scans, outcomes = benchmark(_run_experiment, ddr3_ambit_system)

    table = ResultTable(
        title=(
            f"Skewed Poisson overload ({ARRIVAL_RATE_PER_S / 1e6:.0f} M req/s, "
            f"1/{STRAGGLER_PERIOD} stragglers) on {BANKS} banks, batches of {MAX_BATCH}"
        ),
        columns=[
            "mode", "completed", "makespan_ms", "GB/s", "sojourn_p99_us",
            "bank_idle", "overlap_ms",
        ],
    )
    payload = {}
    for pipeline in (False, True):
        frontend, metrics, _, throughput = outcomes[pipeline]
        mode = "pipelined" if pipeline else "barrier"
        # Mean per-bank idle over the run, comparable across modes: every
        # scan here occupies exactly one bank for its serial latency, so
        # summed per-bank busy time == the completed serial latency (for
        # the pipelined mode this matches LaneMetrics.bank_idle_fraction;
        # the barrier mode has no persistent lanes to snapshot).
        idle = 1.0 - metrics.serial_latency_ns / (BANKS * metrics.makespan_ns)
        overlap_ns = frontend.lane_metrics().cross_batch_overlap_ns if pipeline else 0.0
        table.add_row(
            mode,
            metrics.completed,
            metrics.makespan_ns / 1e6,
            throughput / 1e9,
            metrics.sojourn_p99_ns / 1e3,
            idle,
            overlap_ns / 1e6,
        )
        payload[mode] = {
            "completed": metrics.completed,
            "rejected": metrics.rejected,
            "batches": metrics.batches,
            "throughput_gb_s": throughput / 1e9,
            "sojourn_p50_us": metrics.sojourn_p50_ns / 1e3,
            "sojourn_p99_us": metrics.sojourn_p99_ns / 1e3,
            "makespan_ms": metrics.makespan_ns / 1e6,
            "busy_ms": metrics.busy_ns / 1e6,
            "bank_idle_fraction": idle,
            "cross_batch_overlap_ms": overlap_ns / 1e6,
        }
    gain = payload["pipelined"]["throughput_gb_s"] / payload["barrier"]["throughput_gb_s"]
    payload["pipelined_vs_barrier_throughput"] = gain
    emit(table)
    emit(f"lane pipelining is {gain:.2f}x the batch-synchronous barrier")
    emit_json("pipeline", payload)
    pipelined_frontend = outcomes[True][0]
    emit_trace("pipeline", pipelined_frontend.obs.tracer, pipelined_frontend.obs.metrics)

    # Both modes served the identical workload (nothing rejected), so the
    # comparison is purely schedule-vs-schedule ...
    barrier_metrics = outcomes[False][1]
    pipelined_metrics = outcomes[True][1]
    assert barrier_metrics.rejected == pipelined_metrics.rejected == 0
    assert barrier_metrics.completed == pipelined_metrics.completed == NUM_SCANS

    # ... the energy bill is identical (the schedule never changes the
    # work), and results stay bit-exact with sequential execution.
    assert pipelined_metrics.energy_j == pytest.approx(barrier_metrics.energy_j)
    for (column, kind, constants), record in list(
        zip(scans, outcomes[True][2])
    )[:16]:
        expected, _ = column.scan(kind, *constants)
        assert np.array_equal(record.value, expected)

    # Acceptance: >= 1.3x modeled throughput from cross-batch pipelining,
    # with every request completing no later than under the barrier.
    assert gain >= 1.3
    for fast, slow in zip(outcomes[True][2], outcomes[False][2], strict=True):
        assert fast.finish_ns <= slow.finish_ns * (1 + 1e-9)
    assert pipelined_metrics.sojourn_p99_ns <= barrier_metrics.sojourn_p99_ns * (1 + 1e-9)
