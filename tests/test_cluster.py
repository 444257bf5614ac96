"""Tests for the sharded multi-device cluster tier.

The load-bearing acceptance property: results served through the cluster
— scans routed to replicas, conjunctions scattered into shard-local
sub-chains and merged host-side — are bit-exact with single-device
execution, across shard counts, replication factors, and both execution
paths.  Around it: router placement/replication semantics, shard-view
locality, load-aware replica routing, all-or-nothing scatter admission,
and the ClusterMetrics roll-up.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession, lower_conjunction_steps
from repro.cluster import ClusterFrontend, ShardRouter
from repro.database.bitmap_index import BitmapIndex
from repro.database.sharding import BitmapIndexShardView, TableShardView
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ScanRequest,
    poisson_schedule,
    trace_schedule,
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


def _engine_factory(banks: int = 4):
    return lambda: AmbitEngine(
        _device(banks), AmbitConfig(banks_parallel=banks, vectorized_functional=True)
    )


def _cluster(num_shards: int, **kwargs) -> ClusterFrontend:
    kwargs.setdefault("engine_factory", _engine_factory())
    kwargs.setdefault("policy", BatchPolicy(max_batch=3))
    return PimSession.over_cluster(num_shards=num_shards, **kwargs).backend


def _random_column(rng, num_bits: int, rows: int) -> BitWeavingColumn:
    return BitWeavingColumn(rng.integers(0, 1 << num_bits, size=rows), num_bits)


def _bitmap_index(rng, rows: int = 400) -> BitmapIndex:
    table = ColumnTable("t", rows)
    table.add_column("region", rng.integers(0, 8, size=rows), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=rows), cardinality=4)
    table.add_column("tier", rng.integers(0, 3, size=rows), cardinality=3)
    return BitmapIndex(table, ["region", "status", "tier"])


class TestShardRouter:
    def test_hash_placement_is_deterministic_and_sticky(self):
        first = ShardRouter(4)
        second = ShardRouter(4)
        names = [f"col{i}" for i in range(12)]
        assert [first.replicas(n) for n in names] == [second.replicas(n) for n in names]
        homes = {n: first.replicas(n) for n in names}
        first.register_names(names)  # re-registration keeps homes
        assert {n: first.replicas(n) for n in names} == homes

    def test_range_placement_is_contiguous(self):
        router = ShardRouter(3, strategy="range")
        names = [f"c{i:02d}" for i in range(9)]
        router.register_names(names)
        homes = [router.replicas(n)[0] for n in sorted(names)]
        assert homes == sorted(homes)  # sorted names -> nondecreasing shards
        assert set(homes) == {0, 1, 2}

    def test_range_lazy_names_stay_spread(self):
        """Regression: names discovered one at a time on a range router
        must not all pile onto shard 0."""
        router = ShardRouter(4, strategy="range")
        homes = [router.replicas(f"c{i}")[0] for i in range(8)]
        assert set(homes) == {0, 1, 2, 3}

    def test_replication_factor_and_hot_columns(self):
        router = ShardRouter(4, replication_factor=3, hot_columns=["hot"])
        assert len(router.replicas("hot")) == 3
        assert len(router.replicas("cold")) == 1
        everywhere = ShardRouter(3, replication_factor=5)  # capped at num_shards
        assert sorted(everywhere.replicas("x")) == [0, 1, 2]

    def test_a_factor_above_the_initial_shard_count_survives_scale_out(self):
        """Regression: ``ShardRouter(1, replication_factor=2)`` used to
        store ``min(2, 1)`` for good, so a cluster that scaled out never
        replicated and a later kill stranded its data."""
        router = ShardRouter(1, replication_factor=2)
        assert router.replicas("status") == [0]  # capped while there is one shard
        router.add_shard()
        router.add_shard()
        assert router.num_shards == 3 and router.replication_factor == 2
        home = router.replicas("status")[0]
        assert router.replicas("status") == [home, (home + 1) % 3]
        router.mark_down(home)
        assert router.route("status", lambda shard: 0.0) == (home + 1) % 3

    def test_objects_place_round_robin(self):
        rng = np.random.default_rng(0)
        router = ShardRouter(3)
        columns = [_random_column(rng, 4, 50) for _ in range(6)]
        homes = [router.replicas(c)[0] for c in columns]
        assert homes == [0, 1, 2, 0, 1, 2]
        assert [router.replicas(c)[0] for c in columns] == homes  # sticky

    def test_route_picks_least_loaded_replica(self):
        router = ShardRouter(4, replication_factor=2, hot_columns=["hot"])
        replicas = router.replicas("hot")
        load = {shard: 0.0 for shard in range(4)}
        load[replicas[0]] = 100.0
        assert router.route("hot", lambda s: load[s]) == replicas[1]
        load[replicas[1]] = 200.0
        assert router.route("hot", lambda s: load[s]) == replicas[0]

    def test_assign_scatter_minimizes_fanout(self):
        router = ShardRouter(4, replication_factor=2)
        # Two keys with identical replica sets must land on one shard.
        twin = next(
            k
            for k in (f"k{i}" for i in range(64))
            if k != "a" and router.replicas(k) == router.replicas("a")
        )
        assignment = dict(router.assign_scatter(["a", twin], lambda s: 0.0))
        assert assignment["a"] == assignment[twin]
        # A later key reuses an already-chosen shard in its replica set even
        # when another of its replicas carries less load.
        first, second = router.replicas("a")
        load = {s: 0.0 for s in range(4)}
        load[first] = 5.0
        load[second] = 1.0  # "a" routes to `second`
        partial = next(
            k
            for k in (f"k{i}" for i in range(64))
            if second in router.replicas(k)
            and not set(router.replicas(k)) - {second} & set(router.replicas("a"))
        )
        other = next(s for s in router.replicas(partial) if s != second)
        load[other] = 0.0  # alone, `partial` would prefer `other`
        assignment = dict(router.assign_scatter(["a", partial], lambda s: load[s]))
        assert assignment["a"] == second
        assert assignment[partial] == second

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ShardRouter(0)
        with pytest.raises(ValueError):
            ShardRouter(2, replication_factor=0)
        with pytest.raises(ValueError):
            ShardRouter(2, strategy="random")


class TestShardViews:
    def test_index_view_is_zero_copy_and_local(self):
        rng = np.random.default_rng(1)
        index = _bitmap_index(rng)
        view = index.shard_view(["region"])
        assert view.num_rows == index.num_rows
        assert view.bitmap("region", 2) is index.bitmap("region", 2)
        with pytest.raises(KeyError):
            view.bitmap("status", 0)
        with pytest.raises(KeyError):
            lower_conjunction_steps(view, [("status", [0])])
        with pytest.raises(KeyError):
            BitmapIndexShardView(index, ["nope"])

    def test_view_storage_counts_only_local_columns(self):
        rng = np.random.default_rng(2)
        index = _bitmap_index(rng)
        views = [index.shard_view([c]) for c in index.indexed_columns()]
        assert sum(v.storage_bytes() for v in views) == index.storage_bytes()

    def test_view_lowering_matches_parent(self):
        rng = np.random.default_rng(3)
        index = _bitmap_index(rng)
        view = index.shard_view(["region", "status"])
        predicates = [("region", [1, 2]), ("status", [0, 1])]
        expected, plan = index.evaluate_conjunction(predicates)
        got, view_plan = view.evaluate_conjunction(predicates)
        assert np.array_equal(got, expected)
        assert view_plan.total_operations == plan.total_operations

    def test_table_view(self):
        table = ColumnTable("t", 10)
        table.add_column("a", np.arange(10), cardinality=10)
        table.add_column("b", np.zeros(10, dtype=int), cardinality=1)
        view = TableShardView(table, ["a"])
        assert view.num_rows == 10
        assert np.array_equal(view.column("a"), table.column("a"))
        with pytest.raises(KeyError):
            view.column("b")
        with pytest.raises(KeyError):
            TableShardView(table, ["c"])


class TestClusterBitExactness:
    @settings(max_examples=15, deadline=None)
    @given(
        num_shards=st.sampled_from([1, 2, 4]),
        replication=st.sampled_from([1, 2]),
        functional=st.booleans(),
        num_bits=st.integers(2, 6),
        rows=st.integers(20, 300),
        seed=st.integers(0, 2**16),
        constants=st.lists(st.integers(0, 63), min_size=1, max_size=4),
    )
    def test_cluster_matches_single_device(
        self, num_shards, replication, functional, num_bits, rows, seed, constants
    ):
        """Acceptance: sharded scatter-gather output == single-device output,
        across shard counts, replication factors, and both paths."""
        rng = np.random.default_rng(seed)
        columns = [_random_column(rng, num_bits, rows) for _ in range(3)]
        index = _bitmap_index(rng, rows=rows)
        kinds = ["less_than", "less_equal", "equal", "between"]
        requests = []
        for i, constant in enumerate(constants):
            constant %= 1 << num_bits
            kind = kinds[i % len(kinds)]
            column = columns[i % len(columns)]
            if kind == "between":
                high = max(constant, (1 << num_bits) - 1 - constant)
                requests.append(
                    ScanRequest(column=column, kind=kind, constants=(min(constant, high), high))
                )
            else:
                requests.append(ScanRequest(column=column, kind=kind, constants=(constant,)))
        conjunctions = [
            (("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (0, 2))),
            (("region", (int(rng.integers(0, 8)),)), ("tier", (1,))),
        ]
        requests.extend(
            BitmapConjunctionRequest(index=index, predicates=c) for c in conjunctions
        )

        cluster = _cluster(
            num_shards,
            router=ShardRouter(num_shards, replication_factor=replication),
            functional=functional,
        )
        events = poisson_schedule(requests, rate_per_s=2e6, seed=seed)
        result = cluster.run(events)
        assert result.metrics.completed == len(requests)
        assert result.metrics.rejected == 0

        by_seq = {r.seq: r for r in result.records}
        for i, request in enumerate(requests):
            record = by_seq[i]
            if isinstance(request, ScanRequest):
                expected, _ = request.column.scan(request.kind, *request.constants)
                assert record.fanout == 1
            else:
                expected, _ = index.evaluate_conjunction(list(request.predicates))
            assert np.array_equal(record.value, expected)
        # Fan-out bookkeeping: host merges = sum of (parts - 1).
        assert result.metrics.merge_ops == sum(
            len(r.parts) - 1 for r in result.completed()
        )

    def test_cluster_agrees_with_pipeline_entry_points(self):
        """Cross-check against the single-device service entry points."""
        rng = np.random.default_rng(4)
        index = _bitmap_index(rng)
        conjunctions = [
            [("region", [1, 2]), ("status", [0]), ("tier", [0, 1])],
            [("region", [3]), ("status", [1, 2])],
        ]
        single = PimSession.over_service(engine=_engine_factory()())
        singles = [single.conjunction(index, p).result() for p in conjunctions]
        cluster = _cluster(3)
        requests = [
            BitmapConjunctionRequest(
                index=index, predicates=tuple((c, tuple(v)) for c, v in p)
            )
            for p in conjunctions
        ]
        result = cluster.run(trace_schedule(requests, [0.0] * len(requests)))
        for record, query in zip(result.records, singles):
            assert BitmapIndex.count(record.value, index.num_rows) == query.matching_rows


class TestClusterRoutingAndAdmission:
    def test_replicated_scans_route_to_least_loaded_replica(self):
        """A hot column's scans spread over its replicas instead of
        serializing on one shard."""
        rng = np.random.default_rng(5)
        column = _random_column(rng, 8, 400)
        cluster = _cluster(
            2, router=ShardRouter(2, replication_factor=2, hot_columns=[column])
        )
        records = [
            cluster.offer(ScanRequest(column=column, kind="less_than", constants=(c,)))
            for c in range(6)
        ]
        cluster.drain()
        shards_used = {r.shard_ids[0] for r in records}
        assert shards_used == {0, 1}
        # Unreplicated, the same column pins to one shard.
        pinned = _cluster(2, router=ShardRouter(2, replication_factor=1))
        pinned_records = [
            pinned.offer(ScanRequest(column=column, kind="less_than", constants=(c,)))
            for c in range(6)
        ]
        assert len({r.shard_ids[0] for r in pinned_records}) == 1

    def test_unpinned_work_rebalances_to_min_backlog_shard(self):
        rng = np.random.default_rng(6)
        cluster = _cluster(2)
        hot_column = _random_column(rng, 8, 400)
        hot_shard = cluster.router.replicas(hot_column)[0]
        for c in range(4):
            cluster.offer(ScanRequest(column=hot_column, kind="less_than", constants=(c,)))
        from repro.service import CopyRequest

        record = cluster.offer(CopyRequest(num_bytes=4096))
        assert record.shard_ids[0] == 1 - hot_shard
        cluster.drain()
        assert record.completed

    def test_scatter_admission_is_all_or_nothing(self):
        rng = np.random.default_rng(7)
        index = _bitmap_index(rng)
        # Place each indexed column on its own shard, then fill one shard's
        # queue: the scattered conjunction must be rejected everywhere.
        cluster = _cluster(3, max_queue_depth=2, router=ShardRouter(3, strategy="range"))
        cluster.router.register_names(index.indexed_columns())
        columns_by_shard = cluster.router.partition(index.indexed_columns())
        assert all(len(cols) == 1 for cols in columns_by_shard)
        full_shard = 2
        filler = [_random_column(rng, 6, 200) for _ in range(4)]
        for column in filler:
            cluster.shards[full_shard].offer(
                ScanRequest(column=column, kind="less_than", constants=(10,))
            )
        record = cluster.offer(
            BitmapConjunctionRequest(
                index=index,
                predicates=(("region", (1, 2)), ("status", (0, 1)), ("tier", (0, 1))),
            )
        )
        assert not record.admitted
        assert record.rejected_reason == "queue_full"
        # The siblings offered before the failure were withdrawn.
        cancelled = [p for p in record.parts if p.rejected_reason == "cancelled"]
        assert len(cancelled) == len(record.parts) - 1
        cluster.drain()
        result = cluster.result()
        assert result.metrics.rejected == 1
        assert result.metrics.completed == 0

    def test_cluster_metrics_rollup(self):
        rng = np.random.default_rng(8)
        cluster = _cluster(2)
        columns = [_random_column(rng, 6, 200) for _ in range(8)]
        requests = [
            ScanRequest(column=c, kind="less_than", constants=(12,)) for c in columns
        ]
        result = cluster.run(poisson_schedule(requests, rate_per_s=1e6, seed=8))
        m = result.metrics
        assert m.shards == 2
        assert m.offered == len(requests)
        assert m.admitted + m.rejected == m.offered
        assert m.completed == m.admitted
        assert len(m.per_shard) == 2
        assert sum(s.completed for s in m.per_shard) == m.completed
        assert m.makespan_ns == pytest.approx(
            max(s.makespan_ns for s in m.per_shard)
        )
        assert m.busy_ns == pytest.approx(sum(s.busy_ns for s in m.per_shard))
        assert len(m.utilization) == 2
        assert all(0.0 <= u <= 1.0 for u in m.utilization)
        assert m.imbalance >= 1.0
        assert m.cross_shard_fanout == pytest.approx(1.0)
        assert m.sojourn_p99_ns >= m.sojourn_p50_ns > 0.0
        for record in result.completed():
            assert record.wait_ns >= 0.0
            assert record.sojourn_ns >= record.wait_ns
        # Serial latency/energy roll up from the completed records.
        assert m.energy_j == pytest.approx(
            sum(r.metrics.energy_j for r in result.completed())
        )

    def test_single_shard_cluster_matches_plain_frontend(self):
        """A 1-shard cluster is the single-device pipeline with extra
        bookkeeping: identical values, waits, and sojourns."""
        from repro.service import ServiceFrontend

        rng = np.random.default_rng(9)
        columns = [_random_column(rng, 6, 200) for _ in range(5)]
        make_requests = lambda: [
            ScanRequest(column=c, kind="less_equal", constants=(9,)) for c in columns
        ]
        plain = ServiceFrontend(
            PipelineConfig(policy=BatchPolicy(max_batch=3)),
            engine=_engine_factory()(),
        )
        plain_result = plain.run(poisson_schedule(make_requests(), rate_per_s=1e6, seed=2))
        cluster = _cluster(1)
        cluster_result = cluster.run(
            poisson_schedule(make_requests(), rate_per_s=1e6, seed=2)
        )
        assert cluster_result.metrics.completed == plain_result.metrics.completed
        for plain_record, record in zip(plain_result.records, cluster_result.records):
            assert np.array_equal(record.value, plain_record.value)
            assert record.wait_ns == pytest.approx(plain_record.wait_ns)
            assert record.sojourn_ns == pytest.approx(plain_record.sojourn_ns)

    def test_deadline_misses_roll_up(self):
        rng = np.random.default_rng(10)
        cluster = _cluster(2)
        column = _random_column(rng, 8, 400)
        impossible = cluster.offer(
            ScanRequest(column=column, kind="less_than", constants=(3,)), deadline_ns=1.0
        )
        generous = cluster.offer(
            ScanRequest(
                column=_random_column(rng, 8, 400), kind="less_than", constants=(3,)
            ),
            deadline_ns=1e12,
        )
        cluster.drain()
        result = cluster.result()
        assert impossible.deadline_missed
        assert not generous.deadline_missed
        assert result.metrics.deadline_misses == 1
