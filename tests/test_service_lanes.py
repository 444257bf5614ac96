"""Tests for cross-batch per-bank lane pipelining.

The lane schedule replaces the batch-synchronous executor barrier, so the
load-bearing properties are:

* **bit-exactness** — pipelining only moves start times: results, charged
  per-request latencies, and energies are identical to the barrier
  schedule, across seeded mixed workloads, both execution paths, and both
  the service and the cluster tier;
* **dominance** — with identical batch composition, no request completes
  *later* under pipelining than under the barrier (under bank skew many
  complete strictly earlier);
* **host lane** — host-only bulk operations occupy the dedicated host
  lane rather than falsely contending with real bank-0 traffic;
* **accounting** — lane horizons, the device-busy union, and the
  cross-batch overlap metric stay internally consistent.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.cluster import ClusterFrontend, ShardRouter
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import (
    BatchExecutor,
    BatchPolicy,
    BitmapConjunctionRequest,
    BulkOpRequest,
    HOST_LANE,
    LaneSchedule,
    PipelineConfig,
    ScanRequest,
    ServiceFrontend,
)


def _device(banks: int = 4, rows_per_subarray: int = 32) -> DramDevice:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=banks,
        subarrays_per_bank=2,
        rows_per_subarray=rows_per_subarray,
        row_size_bytes=64,
    )
    return DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )


def _engine(banks: int = 4) -> AmbitEngine:
    return AmbitEngine(
        _device(banks), AmbitConfig(banks_parallel=banks, vectorized_functional=True)
    )


def _frontend(pipeline: bool, banks: int = 4, **kwargs) -> ServiceFrontend:
    return PimSession.over_service(engine=_engine(banks), pipeline=pipeline, **kwargs).backend


def _random_column(rng, num_bits: int = 6, rows: int = 200) -> BitWeavingColumn:
    return BitWeavingColumn(rng.integers(0, 1 << num_bits, size=rows), num_bits)


def _scan(column, kind="less_than", *constants) -> ScanRequest:
    if not constants:
        constants = (1 << (column.num_bits - 1),)
    return ScanRequest(column=column, kind=kind, constants=constants)


def _mixed_workload(rng, num_bits, rows, count):
    """Seeded skewed mix: scans over a few columns, one of them hot."""
    columns = [_random_column(rng, num_bits, rows) for _ in range(3)]
    kinds = ["less_than", "less_equal", "equal", "between"]
    requests = []
    for i in range(count):
        # Bank skew: half of the traffic hammers column 0's banks.
        column = columns[0] if i % 2 == 0 else columns[1 + i % 2]
        kind = kinds[i % len(kinds)]
        constant = int(rng.integers(0, 1 << num_bits))
        if kind == "between":
            high = max(constant, (1 << num_bits) - 1)
            requests.append(_scan(column, kind, min(constant, high), high))
        else:
            requests.append(_scan(column, kind, constant))
    return requests


class TestLaneSchedule:
    def test_place_serializes_on_shared_lanes(self):
        lanes = LaneSchedule(["a", "b"])
        assert lanes.place(["a"], 10.0) == (0.0, 10.0)
        assert lanes.place(["b"], 4.0) == (0.0, 4.0)
        # Shares lane "a": queues behind its horizon.
        assert lanes.place(["a", "b"], 5.0) == (10.0, 15.0)
        assert lanes.horizon_ns() == 15.0
        assert lanes.ready_ns() == 15.0  # both bank lanes busy until 15

    def test_release_floor_and_lazy_lanes(self):
        lanes = LaneSchedule(["a"])
        start, finish = lanes.place(["a"], 3.0, release_ns=7.0)
        assert (start, finish) == (7.0, 10.0)
        # Unknown lanes (the host lane) are created lazily and never
        # gate dispatch readiness.
        lanes.place([HOST_LANE], 100.0, release_ns=0.0)
        assert lanes.lane_horizon_ns(HOST_LANE) == 100.0
        assert lanes.ready_ns() == 10.0

    def test_busy_union_merges_intervals(self):
        lanes = LaneSchedule(["a", "b", "c"])
        lanes.place(["a"], 10.0)             # [0, 10)
        lanes.place(["b"], 4.0, 2.0)         # [2, 6)  fully covered
        lanes.place(["c"], 10.0, 8.0)        # [8, 18) partial overlap
        assert lanes.busy_union_ns == pytest.approx(18.0)
        lanes.place(["b"], 5.0, 30.0)        # disjoint [30, 35)
        assert lanes.busy_union_ns == pytest.approx(23.0)

    def test_metrics_snapshot(self):
        lanes = LaneSchedule(["a", "b"])
        lanes.place(["a"], 10.0)
        lanes.place([HOST_LANE], 5.0)
        metrics = lanes.metrics("unit")
        assert metrics.lanes == 3
        assert metrics.span_ns == pytest.approx(10.0)
        assert metrics.per_lane_busy_ns["a"] == pytest.approx(10.0)
        assert metrics.per_lane_busy_ns[HOST_LANE] == pytest.approx(5.0)
        # Bank aggregates exclude the host lane: a busy, b idle.
        assert metrics.mean_bank_utilization == pytest.approx(0.5)
        assert metrics.bank_idle_fraction == pytest.approx(0.5)
        assert metrics.device_idle_fraction == pytest.approx(0.0)


class TestHostLane:
    def test_host_only_bulk_ops_take_the_host_lane(self):
        """A host-only bulk op must not contend with real bank traffic."""
        executor = BatchExecutor(engine=_engine())
        rng = np.random.default_rng(0)
        column = _random_column(rng)
        a = BulkBitVector(512).fill_random(seed=1)
        b = BulkBitVector(512).fill_random(seed=2)
        host_op = BulkOpRequest(op="and", a=a, b=b)
        assert executor.modeled_banks(host_op) == [HOST_LANE]
        batch = executor.run([_scan(column), host_op])
        scan_result, op_result = batch.results
        assert op_result.bank_ids == []
        # Disjoint lanes: the host op overlaps the scan completely
        # instead of serializing behind (or inflating) a bank's load.
        assert op_result.start_ns == pytest.approx(scan_result.start_ns)
        assert executor.lanes.lane_horizon_ns(HOST_LANE) == pytest.approx(
            op_result.metrics.latency_ns
        )

    def test_host_lane_serializes_host_work(self):
        executor = BatchExecutor(engine=_engine())
        ops = []
        for seed in range(3):
            a = BulkBitVector(512).fill_random(seed=seed)
            ops.append(BulkOpRequest(op="not", a=a))
        batch = executor.run(ops)
        starts = sorted(r.start_ns for r in batch.results)
        latency = batch.results[0].metrics.latency_ns
        assert starts[1] == pytest.approx(starts[0] + latency)
        assert starts[2] == pytest.approx(starts[1] + latency)

    def test_host_only_batch_dispatches_while_banks_busy(self):
        """A batch made entirely of host-only work gates on the host
        lane, not on a bank drain it will never use."""
        frontend = _frontend(pipeline=True, policy=BatchPolicy(max_batch=4))
        rng = np.random.default_rng(23)
        # Occupy every bank lane.
        for _ in range(4):
            frontend.offer(_scan(_random_column(rng)))
        frontend.serve_batch()
        bank_horizon = frontend.executor.ready_ns()
        assert bank_horizon > 0.0
        ops = [
            BulkOpRequest(op="not", a=BulkBitVector(512).fill_random(seed=s))
            for s in range(2)
        ]
        records = [frontend.offer(op) for op in ops]
        frontend.serve_batch()
        # Dispatched at the clock (host lane idle), not at the bank drain.
        assert all(r.start_ns < bank_horizon for r in records)
        assert min(r.start_ns for r in records) == pytest.approx(0.0)
        frontend.drain()

    def test_pinned_chains_still_serialize_on_banks(self):
        """Lowered conjunction steps keep their bank pinning (the host
        lane is only for unpinned host work)."""
        rng = np.random.default_rng(1)
        rows = 400
        table = ColumnTable("t", rows)
        table.add_column("region", rng.integers(0, 8, size=rows), cardinality=8)
        table.add_column("status", rng.integers(0, 4, size=rows), cardinality=4)
        index = BitmapIndex(table, ["region", "status"])
        frontend = _frontend(pipeline=True)
        record = frontend.offer(
            BitmapConjunctionRequest(
                index=index, predicates=(("region", (0, 1, 2, 3)), ("status", (0, 1)))
            )
        )
        frontend.drain()
        assert record.sojourn_ns == pytest.approx(record.metrics.latency_ns)


class TestPipelinedBitExactness:
    @settings(max_examples=12, deadline=None)
    @given(
        num_bits=st.integers(2, 6),
        rows=st.integers(16, 300),
        seed=st.integers(0, 2**16),
        count=st.integers(3, 12),
        functional=st.booleans(),
    )
    def test_service_tier_matches_barrier(self, num_bits, rows, seed, count, functional):
        """Acceptance: pipelined output == barrier output, same energy,
        across seeded mixed workloads on both execution paths."""
        outcomes = {}
        for pipeline in (True, False):
            rng = np.random.default_rng(seed)
            frontend = _frontend(
                pipeline,
                policy=BatchPolicy(max_batch=4),
                max_queue_depth=256,
                functional=functional,
            )
            requests = _mixed_workload(rng, num_bits, rows, count)
            records = [frontend.offer(r) for r in requests]
            frontend.drain()
            outcomes[pipeline] = records
        for pipelined, barrier in zip(outcomes[True], outcomes[False]):
            assert pipelined.completed and barrier.completed
            assert np.array_equal(pipelined.value, barrier.value)
            assert pipelined.metrics.latency_ns == pytest.approx(
                barrier.metrics.latency_ns
            )
            assert pipelined.metrics.energy_j == pytest.approx(barrier.metrics.energy_j)

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_shards=st.integers(1, 3),
        functional=st.booleans(),
    )
    def test_cluster_tier_matches_barrier(self, seed, num_shards, functional):
        """Scans and scattered conjunctions stay bit-exact with ground
        truth in both dispatch modes across shard counts."""
        rng = np.random.default_rng(seed)
        rows = 256
        table = ColumnTable("t", rows)
        table.add_column("region", rng.integers(0, 8, size=rows), cardinality=8)
        table.add_column("status", rng.integers(0, 4, size=rows), cardinality=4)
        index = BitmapIndex(table, ["region", "status"])
        columns = [_random_column(rng) for _ in range(3)]
        conjunction = (("region", (1, 2)), ("status", (0, 1)))
        for pipeline in (True, False):
            cluster = ClusterFrontend(
                num_shards=num_shards,
                config=PipelineConfig(
                    policy=BatchPolicy(max_batch=3),
                    pipeline=pipeline,
                    functional=functional,
                ),
                router=ShardRouter(num_shards),
                engine_factory=lambda: _engine(),
            )
            scan_records = [cluster.offer(_scan(c)) for c in columns]
            conj_record = cluster.offer(
                BitmapConjunctionRequest(index=index, predicates=conjunction)
            )
            cluster.drain()
            for column, record in zip(columns, scan_records):
                expected, _ = column.scan("less_than", 1 << (column.num_bits - 1))
                assert np.array_equal(record.value, expected)
            expected, _ = index.evaluate_conjunction(list(conjunction))
            assert np.array_equal(conj_record.value, expected)


class TestPipelinedDominance:
    def test_completion_never_later_than_barrier_under_skew(self):
        """With identical batches, pipelining can only move completions
        earlier: per-request finish times are never later than the
        barrier's, and under bank skew the makespan strictly shrinks."""
        outcomes = {}
        for pipeline in (True, False):
            rng = np.random.default_rng(7)
            frontend = _frontend(
                pipeline, policy=BatchPolicy(max_batch=3), max_queue_depth=256
            )
            requests = _mixed_workload(rng, num_bits=6, rows=220, count=12)
            records = [frontend.offer(r) for r in requests]
            frontend.drain()
            outcomes[pipeline] = (frontend, records)
        pipelined, barrier = outcomes[True][1], outcomes[False][1]
        for fast, slow in zip(pipelined, barrier):
            assert fast.finish_ns <= slow.finish_ns * (1 + 1e-9)
        fast_front, slow_front = outcomes[True][0], outcomes[False][0]
        assert fast_front.completion_ns < slow_front.completion_ns
        # Batch composition was identical (same admission order, same
        # policy), so the comparison is schedule-vs-schedule only.
        assert [r.batch_index for r in pipelined] == [r.batch_index for r in barrier]

    def test_cross_batch_overlap_is_observed_and_bounded(self):
        frontend = _frontend(pipeline=True, policy=BatchPolicy(max_batch=3))
        rng = np.random.default_rng(9)
        for request in _mixed_workload(rng, num_bits=6, rows=220, count=12):
            frontend.offer(request)
        frontend.drain()
        lanes = frontend.lane_metrics("skewed")
        assert lanes.batches == len(frontend.batches)
        assert lanes.cross_batch_overlap_ns > 0.0
        assert lanes.busy_union_ns <= lanes.span_ns * (1 + 1e-9)
        assert 0.0 <= lanes.bank_idle_fraction < 1.0
        # Frontend busy is the device-busy union, never the makespan sum.
        assert frontend.busy_ns == pytest.approx(lanes.busy_union_ns)
        serial = sum(b.serial_latency_ns for b in frontend.batches)
        assert frontend.busy_ns <= serial * (1 + 1e-9)

    def test_barrier_mode_keeps_batch_synchronous_clock(self):
        """pipeline=False preserves the legacy semantics: the clock rides
        each batch's makespan and no lane state is carried over."""
        frontend = _frontend(pipeline=False, policy=BatchPolicy(max_batch=2))
        rng = np.random.default_rng(11)
        column = _random_column(rng)
        for _ in range(4):
            frontend.offer(_scan(column))
        frontend.serve_batch()
        first_makespan = frontend.batches[0].latency_ns
        assert frontend.clock_ns == pytest.approx(first_makespan)
        assert frontend.executor.horizon_ns() == 0.0
        assert frontend.completion_ns == pytest.approx(frontend.clock_ns)
        frontend.drain()
        assert frontend.busy_ns == pytest.approx(
            sum(b.latency_ns for b in frontend.batches)
        )

    def test_admission_counts_inflight_lane_remainder(self):
        """A pipelined frontend keeps rejecting while dispatched work is
        still in flight: occupancy reads lane horizons, not just the
        queue."""
        rng = np.random.default_rng(13)
        column = _random_column(rng, num_bits=8, rows=400)
        executor = BatchExecutor(engine=_engine())
        per_request_ns = executor.modeled_latency_ns(_scan(column))
        frontend = ServiceFrontend(
            PipelineConfig(
                max_queue_depth=100,
                max_backlog_ns=2.5 * per_request_ns,
                policy=BatchPolicy(max_batch=2),
            ),
            engine=executor.engine,
        )
        frontend.offer(_scan(column))
        frontend.offer(_scan(column))
        frontend.serve_batch()  # dispatched: queue empty, lanes busy
        assert frontend.queue_depth == 0
        blocked = frontend.offer(_scan(column))
        assert not blocked.admitted
        assert blocked.rejected_reason == "bank_occupancy"
        # Once the clock passes the lane horizon the same offer fits.
        late = frontend.offer(_scan(column), arrival_ns=frontend.completion_ns)
        assert late.admitted
        frontend.drain()


class TestGatherMergeTree:
    def test_four_way_gather_charges_log_depth(self):
        """A G-way gather costs ceil(log2(G)) pairwise-parallel merge
        levels, not a serial G-1 chain."""
        rng = np.random.default_rng(21)
        rows = 256
        table = ColumnTable("t", rows)
        for name, cardinality in (("a", 4), ("b", 4), ("c", 4), ("d", 4)):
            table.add_column(name, rng.integers(0, cardinality, size=rows), cardinality)
        index = BitmapIndex(table, ["a", "b", "c", "d"])
        cluster = ClusterFrontend(
            num_shards=4,
            router=ShardRouter(4, strategy="range"),
            engine_factory=lambda: _engine(),
        )
        cluster.router.register_names(index.indexed_columns())
        record = cluster.offer(
            BitmapConjunctionRequest(
                index=index,
                predicates=(("a", (0, 1)), ("b", (0, 1)), ("c", (0, 1)), ("d", (0, 1))),
            )
        )
        cluster.drain()
        assert record.completed and record.fanout == 4
        # Tree depth 2, not the serial 3 merges a chain would charge.
        assert record.host_merge_ns == pytest.approx(2 * cluster.merge_ns_per_op)
        assert record.finish_ns == pytest.approx(
            max(p.finish_ns for p in record.parts) + record.host_merge_ns
        )
        expected, _ = index.evaluate_conjunction(
            [("a", (0, 1)), ("b", (0, 1)), ("c", (0, 1)), ("d", (0, 1))]
        )
        assert np.array_equal(record.value, expected)
        # The op *count* is still the work performed (3 ANDs).
        assert cluster.result().metrics.merge_ops == 3


class TestDrainAndReuse:
    def test_drain_rides_out_the_lanes(self):
        frontend = _frontend(pipeline=True)
        rng = np.random.default_rng(15)
        records = [frontend.offer(_scan(_random_column(rng))) for _ in range(3)]
        frontend.drain()
        assert all(r.completed for r in records)
        assert frontend.clock_ns == pytest.approx(frontend.completion_ns)
        assert frontend.clock_ns >= max(r.finish_ns for r in records) - 1e-9
        # A reused frontend starts its next stream against idle lanes.
        follow_up = frontend.offer(_scan(_random_column(rng)))
        frontend.drain()
        assert follow_up.wait_ns == pytest.approx(0.0)

    def test_result_makespan_covers_inflight_work(self):
        frontend = _frontend(pipeline=True, policy=BatchPolicy(max_batch=2))
        rng = np.random.default_rng(17)
        for _ in range(2):
            frontend.offer(_scan(_random_column(rng)))
        frontend.serve_batch()
        metrics = frontend.result().metrics
        assert metrics.makespan_ns == pytest.approx(frontend.completion_ns)
        assert metrics.makespan_ns > frontend.clock_ns or math.isclose(
            frontend.clock_ns, frontend.completion_ns
        )

    def test_midstream_session_report_covers_inflight_window(self):
        """Regression: a mid-stream session report over a pipelined
        backend must not report a makespan shorter than its completed
        sojourns (the dispatch clock lags the lane horizons)."""
        frontend = _frontend(pipeline=True, policy=BatchPolicy(max_batch=4))
        session = PimSession(frontend)
        rng = np.random.default_rng(19)
        for _ in range(10):
            session.scan(_random_column(rng), "less_than", 9)
        frontend.serve_batch()
        frontend.serve_batch()
        report = session.report()  # 2 queued, 8 completed: mid-stream
        completed = [f.record for f in session.futures if f.record.completed]
        assert 0 < len(completed) < 10
        assert report.makespan_ns >= max(r.finish_ns for r in completed) - 1e-9
        assert report.makespan_ns >= report.busy_ns * (1 - 1e-9)
        session.drain()

    def test_lane_metrics_refused_on_barrier_executor(self):
        frontend = _frontend(pipeline=False)
        with pytest.raises(ValueError):
            frontend.lane_metrics()
