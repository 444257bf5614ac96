"""Elastic fault tolerance: kill one of four shards under Poisson overload.

The cluster runs the same Poisson scan/conjunction stream twice over four
shards with replication factor 2: once healthy, once with shard 1 killed
a quarter of the way into the stream and revived near its end.  The kill
lands mid-burst, so queued parts on the victim migrate to surviving
replicas through the failover path while dispatched batches complete in
place (fail-stop at the dispatch boundary).

The acceptance bar: **zero lost requests** — every request offered to
the faulted cluster terminates, completed bit-exact with the healthy
run (replication factor 2 keeps every key routable with one shard
down) — with failovers actually exercised, recovery visible in the
fault log, and the throughput dip bounded.  ``BENCH_elastic.json``
captures both runs plus the failover accounting for CI diffing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.tables import ResultTable
from repro.cluster import ClusterFrontend, ShardRouter, kill_revive_schedule
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ScanRequest,
    poisson_schedule,
)

from _bench_utils import emit, emit_json, serve

NUM_SHARDS = 4
REPLICATION = 2
NUM_COLUMNS = 16
ROWS = 16384
CODE_BITS = 8
NUM_REQUESTS = 256
ARRIVAL_RATE_PER_S = 12e6        # past the 4-shard service rate: overload
MAX_BATCH = 32
MAX_QUEUE_DEPTH = 96
BANKS_PER_SHARD = 8
KILL_FRACTION = 0.25             # kill a quarter of the way into the stream
REVIVE_FRACTION = 0.85


def _build_requests(seed: int = 17):
    rng = np.random.default_rng(seed)
    columns = [
        BitWeavingColumn(rng.integers(0, 1 << CODE_BITS, size=ROWS), CODE_BITS)
        for _ in range(NUM_COLUMNS)
    ]
    table = ColumnTable("sales", ROWS)
    table.add_column("region", rng.integers(0, 8, size=ROWS), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=ROWS), cardinality=4)
    index = BitmapIndex(table, ["region", "status"])
    kinds = ("less_than", "less_equal", "equal", "between")
    requests = []
    for i in range(NUM_REQUESTS):
        if i % 4 == 3:
            # Every fourth request scatters across shards: the failover
            # path re-scatters these sub-conjunctions on a kill.
            requests.append(
                BitmapConjunctionRequest(
                    index=index,
                    predicates=(
                        ("region", tuple(sorted(set(map(int, rng.integers(0, 8, 2)))))),
                        ("status", (int(rng.integers(0, 4)),)),
                    ),
                )
            )
        else:
            column = columns[i % NUM_COLUMNS]
            kind = kinds[i % len(kinds)]
            if kind == "between":
                low = int(rng.integers(0, 100))
                requests.append(
                    ScanRequest(column=column, kind=kind, constants=(low, low + 64))
                )
            else:
                requests.append(
                    ScanRequest(
                        column=column, kind=kind,
                        constants=(int(rng.integers(0, 1 << CODE_BITS)),),
                    )
                )
    return requests, index


def _build_cluster(faults=None) -> ClusterFrontend:
    config = PipelineConfig(
        policy=BatchPolicy(max_batch=MAX_BATCH, window_ns=None),
        max_queue_depth=MAX_QUEUE_DEPTH,
        # sanitize: every failover re-offer is certified by the
        # repro.verify failover lint alongside the usual plan checks.
        sanitize=True,
    )
    return ClusterFrontend(
        NUM_SHARDS,
        config,
        router=ShardRouter(NUM_SHARDS, replication_factor=REPLICATION),
        engine_factory=lambda: AmbitEngine(
            DramDevice.ddr3(), AmbitConfig(banks_parallel=BANKS_PER_SHARD)
        ),
        faults=faults,
    )


def _expected_value(request, index):
    if isinstance(request, ScanRequest):
        expected, _ = request.column.scan(request.kind, *request.constants)
    else:
        expected, _ = index.evaluate_conjunction(list(request.predicates))
    return expected


def _mode_stats(metrics):
    makespan_s = metrics.makespan_ns * 1e-9
    return {
        "offered": metrics.offered,
        "completed": metrics.completed,
        "rejected": metrics.rejected,
        "makespan_ms": metrics.makespan_ns / 1e6,
        "throughput_krps": (metrics.completed / makespan_s) / 1e3 if makespan_s else 0.0,
        "sojourn_p99_us": metrics.sojourn_p99_ns / 1e3,
    }


def _run_experiment():
    requests, index = _build_requests()
    events = lambda: poisson_schedule(requests, rate_per_s=ARRIVAL_RATE_PER_S, seed=19)

    healthy = serve(_build_cluster(), events(), name="cluster")

    # Pin the fault window to the healthy run's observed span so the kill
    # lands mid-burst regardless of machine-independent model drift.
    span = healthy[0].makespan_ns
    kill_ns = KILL_FRACTION * span
    revive_ns = REVIVE_FRACTION * span
    plan = kill_revive_schedule([(1, kill_ns, revive_ns)])
    faulted = _build_cluster(faults=plan)
    faulted_run = serve(faulted, events(), name="cluster")
    return requests, index, healthy, faulted, faulted_run, plan, kill_ns


@pytest.mark.benchmark(group="elastic")
def test_failover_loses_nothing_under_overload(benchmark):
    requests, index, healthy_run, faulted, faulted_run, plan, kill_ns = (
        benchmark(_run_experiment)
    )
    (healthy_report, healthy_records), (faulted_report, faulted_records) = healthy_run, faulted_run
    healthy = _mode_stats(healthy_report.details)
    faulted_stats = _mode_stats(faulted_report.details)
    summary = faulted.elastic_summary()

    kill_log = [e for e in plan.log if e.action == "kill"]
    revive_log = [e for e in plan.log if e.action == "revive"]
    recovery_ns = (revive_log[0].at_ns - kill_log[0].at_ns) if revive_log else 0.0

    table = ResultTable(
        title=(
            f"Kill shard 1 of {NUM_SHARDS} (rf={REPLICATION}) under Poisson overload "
            f"({ARRIVAL_RATE_PER_S / 1e6:.0f} M req/s offered)"
        ),
        columns=[
            "mode", "completed", "rejected", "makespan_ms", "krps", "p99_sojourn_us",
        ],
    )
    for mode, stats in (("healthy", healthy), ("faulted", faulted_stats)):
        table.add_row(
            mode,
            stats["completed"],
            stats["rejected"],
            round(stats["makespan_ms"], 3),
            round(stats["throughput_krps"], 1),
            round(stats["sojourn_p99_us"], 1),
        )
    emit(table)
    emit(
        f"failovers={summary['failovers']} migrated records survived; "
        f"kill at {kill_ns / 1e3:.1f} us, recovery window {recovery_ns / 1e3:.1f} us"
    )

    throughput_ratio = (
        faulted_stats["throughput_krps"] / healthy["throughput_krps"]
        if healthy["throughput_krps"]
        else 0.0
    )
    lost = faulted_stats["offered"] - faulted_stats["completed"] - faulted_stats["rejected"]
    emit_json(
        "elastic",
        {
            "healthy": healthy,
            "faulted": faulted_stats,
            "kill_us": kill_ns / 1e3,
            "recovery_us": recovery_ns / 1e3,
            "lost_requests": lost,
            "failovers": summary["failovers"],
            "migrated_parts": summary["failovers"],
            "shard_failures": summary["shard_failures"],
            "shard_revivals": summary["shard_revivals"],
            "throughput_ratio": throughput_ratio,
        },
    )

    # Acceptance: the fault was real, and nothing was lost to it.
    assert faulted_report.shard_failures == 1
    assert faulted_report.shard_revivals == 1
    assert summary["failovers"] > 0, "the kill must land mid-burst"
    assert lost == 0
    assert faulted_stats["completed"] + faulted_stats["rejected"] == NUM_REQUESTS
    assert faulted_report.failover_failures == 0

    # With rf=2 and one dead shard, every request completes bit-exact
    # with the healthy run (admission may differ under overload only for
    # rejected requests — none here must be rejected for capacity either
    # way, since the queue depth covers the burst).
    healthy_by_seq = {r.seq: r for r in healthy_records if r.completed}
    for record in (r for r in faulted_records if r.completed):
        expected = _expected_value(record.request, index)
        assert np.array_equal(record.value, expected)
        twin = healthy_by_seq.get(record.seq)
        if twin is not None:
            assert np.array_equal(record.value, twin.value)

    # Post-failure recovery: the faulted run still moves the stream at a
    # bounded dip from healthy throughput.
    assert throughput_ratio > 0.5
