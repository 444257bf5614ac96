"""Sharded cluster throughput scaling under Poisson overload (1 -> 4 shards).

PR 2's pipeline saturates one device's banks and then queues; the cluster
tier shards columns across N `AmbitEngine`-backed devices behind a
scatter-gather frontend.  Here 32 BitWeaving columns are hash-partitioned
over the shards (8+ columns per shard keep every device's 8 banks busy),
and predicate scans arrive as one Poisson process far past even the
4-shard service capacity, so admission control is exercised at every
shard count.

The acceptance bar: aggregate throughput at 4 shards is at least 3x the
1-shard cluster (near-linear scaling — each shard is its own device, the
router keeps the load balanced, and nothing is shared but the arrival
stream), and cross-shard bitmap conjunctions — scattered into shard-local
OR/AND chains and AND-merged host-side — stay bit-exact with
single-device evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.tables import ResultTable
from repro.api import PimSession
from repro.cluster import ShardRouter
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.service import BatchPolicy, BitmapConjunctionRequest, ScanRequest, poisson_schedule

from _bench_utils import emit, emit_json

NUM_COLUMNS = 32                # 8+ columns per shard at every shard count
ROWS_PER_COLUMN = 65536         # one 8 KiB DRAM row per bit vector
CODE_BITS = 8
NUM_SCANS = 768
ARRIVAL_RATE_PER_S = 16e6       # far past even the 4-shard service rate
MAX_BATCH = 64
MAX_QUEUE_DEPTH = 96            # per shard
DEADLINE_SLACK_NS = 60_000.0
SHARD_COUNTS = (1, 2, 4)
BANKS_PER_SHARD = 8


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
        kind = kinds[(index // NUM_COLUMNS) % len(kinds)]
        if kind == "between":
            low = int(rng.integers(0, 100))
            scans.append((column, kind, (low, low + int(rng.integers(1, 120)))))
        else:
            scans.append((column, kind, (int(rng.integers(0, 1 << CODE_BITS)),)))
    return scans


def _engine_factory():
    return AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=BANKS_PER_SHARD))


def _cluster_session(num_shards: int, name: str, policy: BatchPolicy) -> PimSession:
    return PimSession.over_cluster(
        num_shards=num_shards,
        name=name,
        router=ShardRouter(num_shards),
        engine_factory=_engine_factory,
        policy=policy,
        max_queue_depth=MAX_QUEUE_DEPTH,
        # sanitize: every shard dispatch, lowered chain, and scatter is
        # certified by repro.verify — the benchmark doubles as its workload.
        sanitize=True,
    )


def _run_experiment():
    scans = _build_scans()
    outcomes = {}
    for num_shards in SHARD_COUNTS:
        # The exact same session loop drives one shard or four — the
        # unified client API is the knob-free part of the scaling story.
        session = _cluster_session(
            num_shards, f"cluster_{num_shards}", BatchPolicy(max_batch=MAX_BATCH, window_ns=None)
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
        report = session.report()
        completed_bytes = sum(f.metrics.bytes_produced for f in futures if f.done())
        throughput = completed_bytes / (report.makespan_ns * 1e-9)
        outcomes[num_shards] = (session, futures, report, throughput)

    base_throughput = outcomes[SHARD_COUNTS[0]][3]
    table = ResultTable(
        title=(
            f"Poisson overload ({ARRIVAL_RATE_PER_S / 1e6:.0f} M req/s offered) across "
            f"shards of {BANKS_PER_SHARD} banks, {NUM_COLUMNS} hash-partitioned columns"
        ),
        columns=[
            "shards", "completed", "rejected", "makespan_ms", "GB/s", "speedup",
            "util", "imbalance", "p99_sojourn_us",
        ],
    )
    for num_shards in SHARD_COUNTS:
        _session, _futures, report, throughput = outcomes[num_shards]
        metrics = report.details
        table.add_row(
            num_shards,
            metrics.completed,
            metrics.rejected,
            metrics.makespan_ns / 1e6,
            throughput / 1e9,
            throughput / base_throughput,
            metrics.mean_utilization,
            metrics.imbalance,
            metrics.sojourn_p99_ns / 1e3,
        )
    return table, outcomes


def _conjunction_check(seed: int = 13):
    """Scatter-gather conjunctions vs. single-device evaluation."""
    rng = np.random.default_rng(seed)
    rows = 65536
    table = ColumnTable("sales", rows)
    table.add_column("region", rng.integers(0, 8, size=rows), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=rows), cardinality=4)
    table.add_column("tier", rng.integers(0, 6, size=rows), cardinality=6)
    index = BitmapIndex(table, ["region", "status", "tier"])
    conjunctions = [
        (("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (0, 2, 4))),
        (("region", (0, 4)), ("tier", (1, 3))),
        (("status", (2,)), ("tier", (5,))),
    ]
    session = _cluster_session(4, "cluster_conjunctions", BatchPolicy(max_batch=MAX_BATCH))
    requests = [BitmapConjunctionRequest(index=index, predicates=c) for c in conjunctions]
    events = poisson_schedule(requests, rate_per_s=1e6, seed=seed)
    futures = session.submit_stream(events)
    checks = []
    for future in futures:
        response = future.result()
        expected, _plan = index.evaluate_conjunction(list(future.request.predicates))
        checks.append(
            (response.details.fanout, bool(np.array_equal(response.value, expected)),
             response.matching_rows)
        )
    return session.report(), checks


@pytest.mark.benchmark(group="cluster")
def test_cluster_throughput_scales_with_shards(benchmark):
    table, outcomes = benchmark(_run_experiment)
    emit(table)

    base_throughput = outcomes[SHARD_COUNTS[0]][3]
    top_throughput = outcomes[SHARD_COUNTS[-1]][3]
    speedup = top_throughput / base_throughput
    emit(f"4-shard aggregate throughput is {speedup:.1f}x the 1-shard cluster")

    # Machine-readable perf trajectory for CI diffing (per shard count).
    payload = {"shard_counts": list(SHARD_COUNTS), "scaling_speedup": speedup}
    for num_shards in SHARD_COUNTS:
        session, _futures, report, throughput = outcomes[num_shards]
        metrics = report.details
        shard_lanes = [
            shard.lane_metrics(f"shard{i}")
            for i, shard in enumerate(session.backend.shards)
        ]
        payload[f"shards_{num_shards}"] = {
            "offered": metrics.offered,
            "completed": metrics.completed,
            "rejected": metrics.rejected,
            "throughput_gb_s": throughput / 1e9,
            "sojourn_p50_us": metrics.sojourn_p50_ns / 1e3,
            "sojourn_p99_us": metrics.sojourn_p99_ns / 1e3,
            "makespan_ms": metrics.makespan_ns / 1e6,
            "busy_ms": metrics.busy_ns / 1e6,
            "mean_utilization": metrics.mean_utilization,
            "imbalance": metrics.imbalance,
            "host_merge_us": metrics.host_merge_ns / 1e3,
            "bank_idle_fraction": (
                sum(l.bank_idle_fraction for l in shard_lanes) / len(shard_lanes)
            ),
            "cross_batch_overlap_us": (
                sum(l.cross_batch_overlap_ns for l in shard_lanes) / 1e3
            ),
        }
    emit_json("cluster", payload)

    # Acceptance: >= 3x aggregate throughput at 4 shards under overload.
    assert speedup >= 3.0

    for num_shards in SHARD_COUNTS:
        metrics = outcomes[num_shards][2].details
        # Overload exercises admission control at every shard count, and
        # the report carries the roll-up the operators would watch.
        assert metrics.rejected > 0, "offered load must exceed cluster capacity"
        assert metrics.completed + metrics.rejected == metrics.offered
        assert metrics.sojourn_p99_ns >= metrics.sojourn_p50_ns > 0.0
        assert len(metrics.per_shard) == num_shards
        assert metrics.imbalance < 1.25, "hash placement must stay balanced"
        assert all(u > 0.5 for u in metrics.utilization)

    # Completed scans are bit-exact with sequential execution.
    sample_futures = outcomes[SHARD_COUNTS[-1]][1]
    for future in [f for f in sample_futures if f.done()][:32]:
        request = future.request
        expected, _ = request.column.scan(request.kind, *request.constants)
        assert np.array_equal(future.result().value, expected)


@pytest.mark.benchmark(group="cluster")
def test_cluster_conjunctions_bit_exact(benchmark):
    report, checks = benchmark(_conjunction_check)
    table = ResultTable(
        title="Cross-shard conjunctions (4 shards): scatter-gather vs single device",
        columns=["conjunction", "fanout", "bit_exact", "matching_rows"],
    )
    for i, (fanout, exact, matching) in enumerate(checks):
        table.add_row(i, fanout, exact, matching)
    emit(table)
    assert all(exact for _, exact, _ in checks)
    # At least one conjunction actually fanned out across shards (the
    # host-side merge path is exercised, not just single-shard routing).
    assert any(fanout > 1 for fanout, _, _ in checks)
    assert report.details.merge_ops > 0
    assert report.details.host_merge_ns > 0.0
    assert report.details.cross_shard_fanout > 1.0
