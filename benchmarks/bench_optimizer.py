"""Batch plan optimizer vs the per-request planner on a repetitive workload.

Real query streams repeat themselves: dashboards refresh the same
conjunctions, cohorts of clients ask near-identical questions, and a
bitmap index's most selective predicates appear in most queries.  The
per-request planner lowers every conjunction in isolation and pins its
whole chain to the index's stable bank offset — so a repetition-heavy
stream re-executes identical sub-chains over and over, serialized on one
set of banks while the other seven idle.

The batch plan optimizer (``optimize=True``) rewrites each closed batch
as one shared DAG: identical predicate sub-chains execute **once** per
batch and fan their result bitmap out to every consumer (cross-request
CSE), a single request's independent sub-chains spread over distinct
bank lanes chosen from the executor's busy horizons (sub-chain
splitting, joined by a host-side merge tree priced like the cluster
gather), and deadline urgency is priced off those same horizons.

This benchmark drives a skewed, repetition-heavy Poisson overload —
``NUM_REQUESTS`` conjunctions drawn Zipf-style from ``NUM_TEMPLATES``
templates (duplication rate well above 0.5) against one bitmap index on
the paper's 8-bank DDR3 device — through both planners.  Both modes
serve the identical admitted workload with ``sanitize=True`` (every
optimized DAG is certified by the extended plan linter, every dispatch
replayed by the schedule race detector), and results stay bit-exact with
host evaluation.

The acceptance bar: optimized modeled throughput (completed bytes over
the completion makespan) is at least 1.3x the PR-5 pipelined baseline on
this workload with ``ops_eliminated > 0``, no worse p99 sojourn, and no
more energy; the run emits ``BENCH_optimizer.json`` plus
``TRACE_optimizer.json`` — the Perfetto lane timeline of the optimized run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import ResultTable
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ServiceFrontend,
    poisson_schedule,
)

from _bench_utils import emit, emit_json, emit_trace

BANKS = 8
NUM_ROWS = 65536                # one 8 KiB DRAM row per bitmap
CARDINALITIES = {"region": 16, "status": 8, "channel": 8}
NUM_TEMPLATES = 12              # distinct conjunction shapes in the pool
NUM_REQUESTS = 192
ZIPF_S = 1.2                    # template popularity skew
ARRIVAL_RATE_PER_S = 8e6        # well past the sequential service rate
MAX_BATCH = 16


def _build_workload(seed: int = 7):
    """One bitmap index plus a skewed stream of template-drawn conjunctions."""
    rng = np.random.default_rng(seed)
    table = ColumnTable("orders", NUM_ROWS)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(
            name, rng.integers(0, cardinality, size=NUM_ROWS), cardinality=cardinality
        )
    index = BitmapIndex(table, list(CARDINALITIES))

    columns = list(CARDINALITIES)
    templates = []
    for _ in range(NUM_TEMPLATES):
        picked = rng.choice(len(columns), size=int(rng.integers(2, 4)), replace=False)
        predicates = []
        for c in picked:
            name = columns[c]
            width = int(rng.integers(2, 5))
            values = rng.choice(CARDINALITIES[name], size=width, replace=False)
            predicates.append((name, tuple(int(v) for v in values)))
        templates.append(tuple(predicates))

    weights = 1.0 / np.arange(1, NUM_TEMPLATES + 1) ** ZIPF_S
    weights /= weights.sum()
    draws = rng.choice(NUM_TEMPLATES, size=NUM_REQUESTS, p=weights)
    requests = [
        BitmapConjunctionRequest(index=index, predicates=templates[d]) for d in draws
    ]
    duplication_rate = 1.0 - len(set(int(d) for d in draws)) / NUM_REQUESTS
    return index, requests, duplication_rate


def _run_mode(system, requests, optimize: bool):
    ambit = system["ambit"]
    config = PipelineConfig.from_knobs(
        # sanitize: the race detector replays every dispatch, and (when
        # optimizing) the extended plan linter certifies every batch DAG
        # — the benchmark numbers are certified ones.
        sanitize=True,
        policy=BatchPolicy(max_batch=MAX_BATCH, window_ns=None),
        max_queue_depth=10 * NUM_REQUESTS,  # unbounded: identical workloads
        optimize=optimize,
    )
    # Trace the optimized mode (bit-exactness with observe=False is a
    # property test); its TRACE_optimizer.json ships with the bench JSON.
    frontend = ServiceFrontend(config, engine=ambit, observe=optimize)
    events = poisson_schedule(requests, rate_per_s=ARRIVAL_RATE_PER_S, seed=11)
    result = frontend.run(events, name="optimized" if optimize else "baseline")
    metrics = result.metrics
    completed_bytes = sum(r.metrics.bytes_produced for r in result.completed())
    throughput = completed_bytes / (metrics.makespan_ns * 1e-9)
    return frontend, result, throughput


def _run_experiment(system):
    index, requests, duplication_rate = _build_workload()
    outcomes = {}
    for optimize in (False, True):
        outcomes[optimize] = _run_mode(system, requests, optimize)
    return index, requests, duplication_rate, outcomes


@pytest.mark.benchmark(group="optimizer")
def test_plan_optimizer_beats_per_request_lowering(benchmark, ddr3_ambit_system):
    index, requests, duplication_rate, outcomes = benchmark(
        _run_experiment, ddr3_ambit_system
    )

    table = ResultTable(
        title=(
            f"Repetition-heavy Poisson overload ({NUM_REQUESTS} conjunctions from "
            f"{NUM_TEMPLATES} templates, duplication {duplication_rate:.2f}) on "
            f"{BANKS} banks, batches of {MAX_BATCH}"
        ),
        columns=[
            "mode", "completed", "makespan_ms", "GB/s", "sojourn_p99_us",
            "ops_eliminated", "shared_subchains", "host_merge_us",
        ],
    )
    payload = {"duplication_rate": duplication_rate}
    for optimize in (False, True):
        _, result, throughput = outcomes[optimize]
        metrics = result.metrics
        mode = "optimized" if optimize else "baseline"
        table.add_row(
            mode,
            metrics.completed,
            metrics.makespan_ns / 1e6,
            throughput / 1e9,
            metrics.sojourn_p99_ns / 1e3,
            metrics.ops_eliminated,
            metrics.shared_subchains,
            metrics.host_merge_ns / 1e3,
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
            "ops_eliminated": metrics.ops_eliminated,
            "shared_subchains": metrics.shared_subchains,
            "host_merge_us": metrics.host_merge_ns / 1e3,
        }
    gain = payload["optimized"]["throughput_gb_s"] / payload["baseline"]["throughput_gb_s"]
    payload["optimized_vs_baseline_throughput"] = gain
    emit(table)
    emit(f"the batch plan optimizer is {gain:.2f}x the per-request planner")
    emit_json("optimizer", payload)
    optimized_frontend = outcomes[True][0]
    emit_trace("optimizer", optimized_frontend.obs.tracer, optimized_frontend.obs.metrics)

    # Both modes served the identical workload (nothing rejected), so the
    # comparison is purely plan-vs-plan ...
    baseline_metrics = outcomes[False][1].metrics
    optimized_metrics = outcomes[True][1].metrics
    assert baseline_metrics.rejected == optimized_metrics.rejected == 0
    assert baseline_metrics.completed == optimized_metrics.completed == NUM_REQUESTS

    # ... elimination is real (shared sub-chains execute once per batch),
    # so the optimized stream does strictly *less* device work ...
    assert duplication_rate >= 0.5
    assert optimized_metrics.ops_eliminated > 0
    assert optimized_metrics.shared_subchains > 0
    assert optimized_metrics.energy_j <= baseline_metrics.energy_j * (1 + 1e-9)

    # ... and results stay bit-exact with host evaluation.
    for request, record in list(zip(requests, outcomes[True][1].completed()))[:16]:
        expected, _ = index.evaluate_conjunction(list(request.predicates))
        assert np.array_equal(record.value, expected)

    # Acceptance: >= 1.3x modeled throughput at duplication >= 0.5, with
    # tail latency no worse than the per-request baseline.
    assert gain >= 1.3
    assert optimized_metrics.sojourn_p99_ns <= baseline_metrics.sojourn_p99_ns * (1 + 1e-9)
