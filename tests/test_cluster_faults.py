"""Tests for fault injection, replica failover, and elastic control.

The load-bearing acceptance property: under any fault schedule with
replication factor >= 2 (and no more than rf-1 concurrently-dead
shards), the cluster's results are bit-exact with a healthy fixed-pool
run, and no request is lost or double-executed — every offered request
terminates exactly once, as completed or as a typed rejection.  Around
it: the FaultPlan schedule semantics, degraded-mode typed
outcomes (ShardUnavailable), drain/retire conservation, the
ElasticController's three actuators (decided from the cluster's own
health, never read back off the obs plane), the deadline-aware retry budget,
the failover-reoffer lint, and the counter-vs-metrics audit.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.metrics import PlanCounts, percentile_or, summarize_envelopes
from repro.api import PimSession, RequestFailed, RequestRejected, ShardUnavailable
from repro.cluster import (
    ClusterFrontend,
    ControllerPolicy,
    ElasticController,
    FaultEvent,
    FaultPlan,
    PlacementUnavailable,
    ShardRouter,
    kill_revive_schedule,
)
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.obs import Observer, Span
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    ScanRequest,
    poisson_schedule,
    trace_schedule,
)
from repro.service.client import BackoffPolicy, RetryClient
from repro.service.frontend import ArrivalEvent
from repro.verify import FailoverError, check_failover_reoffer


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


def _serve(backend, events):
    """Serve a stream through a session over ``backend``: its report and
    the envelopes, in event order."""
    session = PimSession(backend)
    futures = session.submit_stream(events)
    session.drain()
    return session.report(), [future.record for future in futures]


def _bitmap_index(rng, rows: int = 150) -> BitmapIndex:
    table = ColumnTable("t", rows)
    table.add_column("region", rng.integers(0, 8, size=rows), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=rows), cardinality=4)
    table.add_column("tier", rng.integers(0, 3, size=rows), cardinality=3)
    return BitmapIndex(table, ["region", "status", "tier"])


def _conjunctions(rng, index: BitmapIndex, count: int):
    """A burst of conjunction requests touching every indexed column."""
    requests = []
    for _ in range(count):
        predicates = []
        for column, cardinality in (("region", 8), ("status", 4), ("tier", 3)):
            values = tuple(
                sorted(set(int(v) for v in rng.integers(0, cardinality, size=2)))
            )
            predicates.append((column, values))
        requests.append(
            BitmapConjunctionRequest(index=index, predicates=tuple(predicates))
        )
    return requests


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at_ns=0.0, action="explode", shard_id=0)
        with pytest.raises(ValueError):
            FaultEvent(at_ns=-1.0, action="kill", shard_id=0)
        with pytest.raises(ValueError):
            FaultEvent(at_ns=0.0, action="kill")  # kill needs a victim
        FaultEvent(at_ns=0.0, action="join")  # join does not

    def test_schedule_orders_by_time_then_insertion(self):
        plan = FaultPlan(
            events=[
                FaultEvent(at_ns=500.0, action="revive", shard_id=1),
                FaultEvent(at_ns=100.0, action="kill", shard_id=1),
                FaultEvent(at_ns=500.0, action="kill", shard_id=0),
            ]
        )
        assert plan.next_fire_ns() == 100.0
        assert [(e.at_ns, e.action) for e in plan.pending] == [
            (100.0, "kill"),
            (500.0, "revive"),
            (500.0, "kill"),
        ]

    def test_kill_revive_schedule_helper(self):
        plan = kill_revive_schedule([(0, 100.0, 200.0), (1, 50.0, None)])
        assert [(e.at_ns, e.action, e.shard_id) for e in plan.pending] == [
            (50.0, "kill", 1),
            (100.0, "kill", 0),
            (200.0, "revive", 0),
        ]
        with pytest.raises(ValueError):
            kill_revive_schedule([(0, 200.0, 100.0)])

    def test_fire_due_applies_and_logs(self):
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=2))
        plan = kill_revive_schedule([(1, 100.0, 200.0)])
        cluster.faults = plan
        assert plan.fire_due(cluster, 50.0) == 0
        assert plan.fire_due(cluster, 100.0) == 1
        assert not cluster.router.is_alive(1)
        # Killing the dead shard again is a logged no-op.
        plan2 = FaultPlan(events=[FaultEvent(at_ns=150.0, action="kill", shard_id=1)])
        plan2.fire_due(cluster, 150.0)
        assert plan2.log[0].applied is False
        assert plan.fire_due(cluster, 250.0) == 1
        assert cluster.router.is_alive(1)
        assert [(e.action, e.applied) for e in plan.log] == [
            ("kill", True),
            ("revive", True),
        ]


class TestFailoverBitExactness:
    @settings(max_examples=8, deadline=None)
    @given(
        num_shards=st.sampled_from([2, 3, 4]),
        pipeline=st.booleans(),
        kill_ns=st.sampled_from([300.0, 1500.0, 4000.0]),
        revive=st.booleans(),
        victim_offset=st.integers(0, 3),
        seed=st.integers(0, 2**16),
    )
    def test_results_bit_exact_under_fault_schedule(
        self, num_shards, pipeline, kill_ns, revive, victim_offset, seed
    ):
        """Acceptance: any kill/revive schedule with rf=2 and one dead
        shard at a time leaves every request completed, bit-exact with
        the healthy fixed-pool run — nothing lost, nothing doubled."""
        rng = np.random.default_rng(seed)
        index = _bitmap_index(rng)
        requests = _conjunctions(rng, index, count=12)
        events = poisson_schedule(requests, rate_per_s=2e6, seed=seed)

        healthy = _cluster(
            num_shards,
            router=ShardRouter(num_shards, replication_factor=2),
            pipeline=pipeline,
        )
        _, healthy_records = _serve(healthy, poisson_schedule(requests, rate_per_s=2e6, seed=seed))

        victim = victim_offset % num_shards
        plan = kill_revive_schedule(
            [(victim, kill_ns, kill_ns + 3000.0 if revive else None)]
        )
        faulted = _cluster(
            num_shards,
            router=ShardRouter(num_shards, replication_factor=2),
            pipeline=pipeline,
            faults=plan,
        )
        result, records = _serve(faulted, events)

        # Conservation: every request terminates exactly once.
        assert result.offered == len(requests)
        assert result.completed + result.rejected == len(requests)
        assert result.rejected == 0  # rf=2 covers one dead shard
        assert sorted(r.seq for r in records if r.completed) == list(range(len(requests)))

        # Bit-exactness vs the healthy run and vs direct evaluation.
        healthy_by_seq = {r.seq: r for r in healthy_records}
        for record in records:
            expected, _ = index.evaluate_conjunction(list(record.request.predicates))
            assert np.array_equal(record.value, expected)
            assert np.array_equal(record.value, healthy_by_seq[record.seq].value)

        # The schedule was actually exercised when it was due in-window.
        fired = [entry for entry in plan.log if entry.action == "kill"]
        if kill_ns <= result.makespan_ns:
            assert fired and fired[0].applied
            assert result.shard_failures == 1

    def test_mid_burst_kill_migrates_queued_parts(self):
        """A kill landing mid-burst re-offers queued parts to surviving
        replicas: failovers are visible, nothing is lost."""
        rng = np.random.default_rng(42)
        index = _bitmap_index(rng)
        requests = _conjunctions(rng, index, count=24)
        plan = kill_revive_schedule([(1, 600.0, None)])
        cluster = _cluster(
            4,
            router=ShardRouter(4, replication_factor=2),
            faults=plan,
            sanitize=True,  # every re-offer certified by the failover lint
        )
        result, records = _serve(cluster, poisson_schedule(requests, rate_per_s=8e6, seed=42))
        assert result.shard_failures == 1
        assert result.completed == len(requests)
        assert result.rejected == 0
        assert result.failovers > 0
        assert result.failover_failures == 0
        for record in records:
            expected, _ = index.evaluate_conjunction(list(record.request.predicates))
            assert np.array_equal(record.value, expected)
        # No migrated part landed back on the dead shard.
        for record in records:
            if record.failovers:
                assert all(s != 1 for s in record.shard_ids)
                assert record.migrated_parts  # originals kept for audit

    def test_revived_shard_serves_again(self):
        rng = np.random.default_rng(7)
        column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        plan = kill_revive_schedule([(0, 100.0, 5000.0)])
        cluster = _cluster(
            2, router=ShardRouter(2, replication_factor=1), faults=plan
        )
        home = cluster.router.replicas(column)[0]
        # Round-robin object placement puts the first column on shard 0.
        assert home == 0
        cluster.advance_to(200.0)  # kill fires; shard 0 is down
        assert not cluster.router.is_alive(0)
        cluster.advance_to(6000.0)  # revival fires
        assert cluster.router.is_alive(0)
        record = cluster.offer(
            ScanRequest(column=column, kind="less_than", constants=(10,)),
            arrival_ns=6000.0,
        )
        cluster.drain()
        assert record.completed
        assert record.shard_ids[0] == home
        summary = cluster.elastic_summary()
        assert summary["shard_failures"] == 1
        assert summary["shard_revivals"] == 1


class TestDegradedMode:
    def test_unreplicated_key_on_dead_shard_rejects_typed(self):
        """rf=1 + a dead home shard = degraded mode: offers are refused
        with a failure-typed reason, never silently dropped."""
        rng = np.random.default_rng(11)
        column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        home = cluster.router.replicas(column)[0]
        assert cluster.fail_shard(home)
        record = cluster.offer(
            ScanRequest(column=column, kind="less_than", constants=(10,))
        )
        assert not record.admitted
        assert record.rejected_reason == "shard_unavailable"
        cluster.drain()
        assert cluster.rejected == 1

    def test_stranded_queued_request_fails_typed(self):
        """Work already queued on the victim with no surviving replica
        fails its record (all-or-nothing) instead of vanishing."""
        rng = np.random.default_rng(12)
        column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        record = cluster.offer(
            ScanRequest(column=column, kind="less_than", constants=(10,))
        )
        assert record.admitted
        home = record.shard_ids[0]
        assert cluster.fail_shard(home)
        assert not record.admitted
        assert record.rejected_reason == "shard_unavailable"
        cluster.drain()
        summary = cluster.elastic_summary()
        assert summary["failover_failures"] == 1

    def test_session_raises_shard_unavailable(self):
        """The typed outcome surfaces through the unified client API and
        still satisfies legacy `except RequestRejected` handlers."""
        assert issubclass(ShardUnavailable, RequestFailed)
        assert issubclass(RequestFailed, RequestRejected)
        rng = np.random.default_rng(13)
        column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        session = PimSession(cluster, name="degraded")
        future = session.submit(
            ScanRequest(column=column, kind="less_than", constants=(10,))
        )
        cluster.fail_shard(future.record.shard_ids[0])
        with pytest.raises(ShardUnavailable) as excinfo:
            future.result()
        assert excinfo.value.reason == "shard_unavailable"
        # Admission refusals stay plain RequestRejected, not the subclass.
        response = future.response()
        assert response.status == "rejected"
        assert response.rejected_reason == "shard_unavailable"

    def test_scatter_skips_dead_holders_and_rejects_uncovered(self):
        """A scattered conjunction is all-or-nothing across health too:
        with a predicate column only on a dead shard, admission refuses
        the whole request up front."""
        rng = np.random.default_rng(14)
        index = _bitmap_index(rng)
        cluster = _cluster(
            3, router=ShardRouter(3, strategy="range", replication_factor=1)
        )
        cluster.router.register_names(index.indexed_columns())
        by_shard = cluster.router.partition(index.indexed_columns())
        victim = next(i for i, cols in enumerate(by_shard) if cols)
        cluster.fail_shard(victim)
        record = cluster.offer(
            BitmapConjunctionRequest(
                index=index,
                predicates=(("region", (1, 2)), ("status", (0, 1)), ("tier", (0, 1))),
            )
        )
        assert not record.admitted
        assert record.rejected_reason == "shard_unavailable"


class TestDrainRetireJoin:
    def test_drain_migrates_and_conserves(self):
        rng = np.random.default_rng(21)
        index = _bitmap_index(rng)
        requests = _conjunctions(rng, index, count=16)
        plan = FaultPlan(events=[FaultEvent(at_ns=500.0, action="drain", shard_id=0)])
        cluster = _cluster(
            3, router=ShardRouter(3, replication_factor=2), faults=plan
        )
        result, records = _serve(cluster, poisson_schedule(requests, rate_per_s=8e6, seed=21))
        assert result.completed == len(requests)
        assert result.rejected == 0
        assert cluster.router.is_alive(0)
        assert not cluster.router.is_routable(0)
        for record in records:
            expected, _ = index.evaluate_conjunction(list(record.request.predicates))
            assert np.array_equal(record.value, expected)

    def test_retire_moves_sole_replicas_and_charges_copies(self):
        rng = np.random.default_rng(22)
        index = _bitmap_index(rng)
        cluster = _cluster(3, router=ShardRouter(3, replication_factor=1))
        cluster.router.register_names(index.indexed_columns())
        # Materialize shard views so replica byte-counts see the planes.
        record = cluster.offer(
            BitmapConjunctionRequest(
                index=index,
                predicates=(("region", (1,)), ("status", (0,)), ("tier", (1,))),
            )
        )
        cluster.drain()
        assert record.completed
        victim = 2
        keys_before = cluster.router.placed_keys(victim)
        assert cluster.retire_shard(victim)
        assert cluster.router.is_retired(victim)
        assert cluster.router.placed_keys(victim) == []
        # Every key the victim solely held survives on a live shard.
        for key in keys_before:
            replicas = cluster.router.replicas(key)
            assert replicas and all(s != victim for s in replicas)
        summary = cluster.elastic_summary()
        assert summary["shards_retired"] == 1
        if keys_before:
            assert summary["replications"] >= len(keys_before)
            assert summary["copied_bytes"] > 0
        # Retired shards never come back, and offers keep completing.
        assert not cluster.revive_shard(victim)
        after = cluster.offer(
            BitmapConjunctionRequest(
                index=index, predicates=(("region", (2, 3)), ("tier", (0,)))
            )
        )
        cluster.drain()
        assert after.completed
        assert all(s != victim for s in after.shard_ids)

    def test_join_grows_pool_and_serves(self):
        rng = np.random.default_rng(23)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        new_id = cluster.join_shard(at_ns=1000.0)
        assert new_id == 2
        assert cluster.num_shards == 3
        assert cluster.shards[new_id].clock_ns >= 1000.0
        assert cluster.router.is_routable(new_id)
        # A key first seen after the join can land on the new shard.
        columns = [BitWeavingColumn(rng.integers(0, 64, size=100), 6) for _ in range(6)]
        homes = {cluster.router.replicas(c)[0] for c in columns}
        assert new_id in homes
        records = [
            cluster.offer(
                ScanRequest(column=c, kind="less_than", constants=(9,)),
                arrival_ns=1000.0,
            )
            for c in columns
        ]
        cluster.drain()
        assert all(r.completed for r in records)
        assert cluster.elastic_summary()["shards_joined"] == 1


class TestElasticController:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ControllerPolicy(interval_ns=0.0)
        with pytest.raises(ValueError):
            ControllerPolicy(imbalance_threshold=0.5)
        with pytest.raises(ValueError):
            ControllerPolicy(min_shards=4, max_shards=2)
        with pytest.raises(ValueError):
            ControllerPolicy(max_replication=0)

    def test_replicates_hot_key_to_cold_shard(self):
        """Sustained skew on one column re-replicates it to the idle
        shard, with the copy bytes charged there — and results stay
        bit-exact."""
        rng = np.random.default_rng(31)
        index = _bitmap_index(rng)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        controller = ElasticController(
            cluster,
            ControllerPolicy(
                interval_ns=2_000.0,
                imbalance_threshold=1.2,
                overload_backlog_ns=1e12,  # isolate the replicate actuator
                replicate_per_tick=2,
            ),
        )
        assert cluster.controller is controller
        # Hammer one column so its home shard backlogs.
        requests = [
            BitmapConjunctionRequest(index=index, predicates=(("region", (1, 2)),))
            for _ in range(30)
        ]
        result, records = _serve(cluster, poisson_schedule(requests, rate_per_s=20e6, seed=31))
        assert result.completed == len(requests)
        replicate_events = [e for e in controller.events if e.action == "replicate"]
        assert replicate_events
        assert replicate_events[0].key == "region"
        assert len(cluster.router.replicas("region")) == 2
        assert result.replications >= 1
        assert result.copied_bytes > 0
        expected, _ = index.evaluate_conjunction([("region", (1, 2))])
        for record in records:
            assert np.array_equal(record.value, expected)

    def test_joins_under_sustained_overload(self):
        rng = np.random.default_rng(32)
        columns = [BitWeavingColumn(rng.integers(0, 64, size=400), 6) for _ in range(4)]
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        ElasticController(
            cluster,
            ControllerPolicy(
                interval_ns=1_000.0,
                overload_backlog_ns=100.0,
                overload_windows=2,
                imbalance_threshold=1e9,  # isolate the join actuator
                max_shards=3,
            ),
        )
        requests = [
            ScanRequest(column=columns[i % 4], kind="less_than", constants=(9,))
            for i in range(40)
        ]
        result, _ = _serve(cluster, poisson_schedule(requests, rate_per_s=20e6, seed=32))
        assert cluster.num_shards == 3  # grew to max_shards, not past it
        assert result.shards_joined == 1
        assert result.completed == len(requests)

    def test_retires_when_idle(self):
        cluster = _cluster(3, router=ShardRouter(3, replication_factor=1))
        controller = ElasticController(
            cluster,
            ControllerPolicy(
                interval_ns=1_000.0,
                idle_windows=3,
                min_shards=2,
                imbalance_threshold=1e9,
            ),
        )
        cluster.advance_to(20_000.0)  # idle ticks accumulate
        retire_events = [e for e in controller.events if e.action == "retire"]
        assert retire_events
        assert retire_events[0].shard_id == 2  # youngest routable first
        assert len(cluster.router.routable_shards()) == 2  # floor respected
        assert cluster.elastic_summary()["shards_retired"] == 1

    def test_missed_ticks_collapse(self):
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        controller = ElasticController(
            cluster, ControllerPolicy(interval_ns=1_000.0, idle_windows=10**6)
        )
        controller.run_due(500.0)
        assert controller.ticks == 0
        controller.run_due(10_500.0)  # 10 periods due; one cumulative tick
        assert controller.ticks == 1
        assert controller.next_tick_ns() == 11_000.0


class TestControllerDecidesFromTheCluster:
    """The controller reads the cluster's own health, never the plane: a
    shared plane cannot leak a neighbour's signals in, and no plane is
    needed (or forced) at all."""

    @staticmethod
    def _idle_cluster_beside_a_rejecting_one(observe_a, observe_b):
        rng = np.random.default_rng(0)
        column = BitWeavingColumn(rng.integers(0, 64, size=4096), 6)
        # A: one shard, a queue of two, 200 simultaneous scans -> 198 rejected.
        a = PimSession.over_cluster(
            num_shards=1,
            max_queue_depth=2,
            policy=BatchPolicy(max_batch=2, window_ns=None),
            observe=observe_a,
        )
        for _ in range(200):
            a.scan(column, "less_than", 9, at_ns=0.0)
        assert sum(1 for f in a.futures if not f.record.admitted) == 198
        # B: healthy and nearly idle, under an elastic controller.
        b = PimSession.over_cluster(num_shards=2, router=ShardRouter(2), observe=observe_b)
        controller = ElasticController(
            b.backend,
            ControllerPolicy(interval_ns=1_000.0, idle_windows=10**6, max_shards=4),
        )
        for i in range(20):
            b.scan(column, "less_than", 9, at_ns=1000.0 * (i + 1))
        b.drain()
        report = b.report()
        assert report.rejected == 0
        return (
            b.backend.num_shards,
            [event.action for event in controller.events],
            report.completed / report.makespan_ns * 1e6,  # modeled kreq/s
        )

    def test_a_neighbours_rejections_do_not_scale_an_idle_cluster(self):
        """On one shared plane B's controller used to compute
        ``cluster.rejected / cluster.offered`` from A's counters and fire
        join, replicate, join, replicate (4 shards, 396.16 kreq/s)."""
        own = self._idle_cluster_beside_a_rejecting_one(True, True)
        plane = Observer()
        shared = self._idle_cluster_beside_a_rejecting_one(plane, plane)
        unobserved = self._idle_cluster_beside_a_rejecting_one(False, False)
        assert shared == own == unobserved
        shards, actions, krps = shared
        assert (shards, actions) == (2, [])
        assert krps == pytest.approx(186.74, abs=0.005)

    def test_controller_forces_no_recording_plane(self):
        """The controller used to bind a recording plane to any cluster
        that had none — a span tree per request nobody asked for."""
        rng = np.random.default_rng(33)
        index = _bitmap_index(rng)
        cluster = _cluster(2, router=ShardRouter(2, replication_factor=1))
        before = Span.allocated
        controller = ElasticController(
            cluster,
            ControllerPolicy(
                interval_ns=2_000.0, imbalance_threshold=1.2, overload_backlog_ns=1e12
            ),
        )
        requests = [
            BitmapConjunctionRequest(index=index, predicates=(("region", (1, 2)),))
            for _ in range(30)
        ]
        result, _ = _serve(cluster, poisson_schedule(requests, rate_per_s=20e6, seed=33))
        assert result.completed == len(requests)
        assert controller.ticks > 0
        assert [e.action for e in controller.events].count("replicate") >= 1  # it did decide
        assert not cluster.obs.enabled
        assert Span.allocated == before

    def test_recorded_signals_equal_the_clusters_own(self):
        """With a plane recording, the heat counters and health gauges are
        copies of what the cluster owns (and the controller decided from)."""
        rng = np.random.default_rng(34)
        index = _bitmap_index(rng)
        cluster = _cluster(
            2,
            router=ShardRouter(2, replication_factor=1),
            max_queue_depth=2,
            policy=BatchPolicy(max_batch=4, window_ns=600.0),  # closes on the window only
            observe=True,
        )
        controller = ElasticController(
            cluster, ControllerPolicy(interval_ns=1_000.0, imbalance_threshold=1.2)
        )
        requests = _conjunctions(rng, index, count=30)
        result, _ = _serve(cluster, poisson_schedule(requests, rate_per_s=8e6, seed=34))
        assert result.rejected > 0 and result.completed > 0
        assert controller.ticks > 0
        snapshot = cluster.obs.snapshot()
        counters = snapshot["counters"]
        prefix = "cluster.key_reads."
        recorded = {n[len(prefix):]: v for n, v in counters.items() if n.startswith(prefix)}
        assert recorded == {label: float(reads) for label, reads in cluster.key_reads.items()}
        assert set(recorded) == {"region", "status", "tier"}
        assert counters["cluster.rejected"] == cluster.rejected == result.rejected
        assert counters["cluster.offered"] == cluster._seq == result.offered
        health = cluster.publish_gauges()
        assert health == cluster.health()
        gauges = cluster.obs.snapshot()["gauges"]
        assert gauges["cluster.imbalance"] == health.imbalance
        assert gauges["cluster.rejection_rate"] == health.rejection_rate
        assert health.rejection_rate == cluster.rejected / cluster._seq
        assert gauges["cluster.shards_routable"] == len(health.backlogs)
        for shard, backlog in health.backlogs.items():
            assert gauges[f"cluster.backlog_ns.shard{shard}"] == backlog == cluster.shard_load(shard)


class TestRetryClientDeadlineBudget:
    def test_keyed_jitter_is_deterministic_and_order_independent(self):
        policy = BackoffPolicy(base_ns=1000.0, multiplier=2.0, jitter=0.5)
        first = policy.delay_ns(2, seed=7, key=3)
        assert policy.delay_ns(2, seed=7, key=3) == first
        assert policy.delay_ns(2, seed=7, key=4) != first
        assert policy.delay_ns(2, seed=8, key=3) != first
        base = 1000.0 * 2.0
        assert base * 0.5 <= first <= base * 1.5

    def test_retry_budget_capped_by_remaining_slack(self):
        """A retry whose backoff lands past the deadline is not offered:
        the attempt budget is the remaining slack."""
        rng = np.random.default_rng(41)
        columns = [BitWeavingColumn(rng.integers(0, 64, size=200), 6) for _ in range(6)]
        make_events = lambda deadline: [
            ArrivalEvent(
                request=ScanRequest(column=c, kind="less_than", constants=(9,)),
                arrival_ns=0.0,
                deadline_ns=deadline,
            )
            for c in columns
        ]
        # Batch size 1 drains the queue between retry waves, so each wave
        # admits exactly one re-offer.
        make_cluster = lambda: _cluster(
            1, router=ShardRouter(1), max_queue_depth=1, policy=BatchPolicy(max_batch=1)
        )
        policy = BackoffPolicy(base_ns=50_000.0, multiplier=2.0, max_attempts=4)

        tight = RetryClient(make_cluster(), policy=policy, seed=1)
        tight_outcome = tight.run(make_events(deadline=10_000.0))
        assert tight.deadline_exhausted > 0
        # Doomed retries were cut: rejected requests stopped at one attempt.
        assert all(
            len(r.attempts) == 1 for r in tight_outcome.records if r.gave_up
        )

        slack = RetryClient(make_cluster(), policy=policy, seed=1)
        slack_outcome = slack.run(make_events(deadline=1e9))
        assert slack.deadline_exhausted == 0
        assert slack_outcome.delivered_after_retry > 0


class TestFailoverLintAndAudit:
    def test_check_failover_reoffer_rejects_bad_targets(self):
        router = ShardRouter(3, replication_factor=2)
        router.mark_down(1)
        check_failover_reoffer(router, failed_shard=1, target_shards=[0, 2])
        with pytest.raises(FailoverError):
            check_failover_reoffer(router, failed_shard=1, target_shards=[1])
        router.mark_down(2)
        with pytest.raises(FailoverError):
            check_failover_reoffer(router, failed_shard=1, target_shards=[2])

    def test_placement_unavailable_carries_key(self):
        router = ShardRouter(2, replication_factor=1)
        router.mark_down(0)
        router.mark_down(1)
        with pytest.raises(PlacementUnavailable) as excinfo:
            router.route("orphan", lambda shard: 0.0)
        assert excinfo.value.key == "orphan"

    def test_counters_match_cluster_metrics(self):
        """The cluster.failover.* / cluster.scale.* counter taxonomy and
        the ClusterMetrics roll-up tell one story."""
        rng = np.random.default_rng(51)
        index = _bitmap_index(rng)
        requests = _conjunctions(rng, index, count=20)
        plan = kill_revive_schedule([(0, 400.0, 6000.0)])
        cluster = _cluster(
            3,
            router=ShardRouter(3, replication_factor=2),
            faults=plan,
            observe=True,
        )
        result, _ = _serve(cluster, poisson_schedule(requests, rate_per_s=8e6, seed=51))
        metrics = result
        counters = cluster.obs.snapshot()["counters"]
        assert counters.get("cluster.failover.kills", 0.0) == metrics.shard_failures
        assert counters.get("cluster.failover.revives", 0.0) == metrics.shard_revivals
        assert (
            counters.get("cluster.failover.migrated_parts", 0.0) == metrics.failovers
        )
        assert (
            counters.get("cluster.failover.records_failed", 0.0)
            == metrics.failover_failures
        )
        assert counters.get("cluster.scale.joins", 0.0) == metrics.shards_joined
        assert counters.get("cluster.scale.retires", 0.0) == metrics.shards_retired
        assert counters.get("cluster.scale.replications", 0.0) == metrics.replications
        assert counters.get("cluster.scale.copied_bytes", 0.0) == metrics.copied_bytes
        assert metrics.shard_failures == 1
        assert metrics.completed == len(requests)

    def test_gauges_published_for_controller(self):
        cluster = _cluster(
            2, router=ShardRouter(2, replication_factor=1), observe=True
        )
        rng = np.random.default_rng(52)
        column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        cluster.offer(ScanRequest(column=column, kind="less_than", constants=(9,)))
        cluster.publish_gauges()
        gauges = cluster.obs.snapshot()["gauges"]
        assert gauges["cluster.shards_alive"] == 2.0
        assert gauges["cluster.shards_routable"] == 2.0
        assert gauges["cluster.imbalance"] >= 1.0
        assert "cluster.backlog_ns.shard0" in gauges
        assert "cluster.queue_depth.shard1" in gauges
        assert 0.0 <= gauges["cluster.rejection_rate"] <= 1.0


# ----------------------------------------------------------------------
# One accounting path: every envelope settles once, every roll-up folds once
# ----------------------------------------------------------------------
def _reference_summary(records):
    """The roll-up as it stood before it became one pass: one expression
    per number, kept here as the reference the fold must equal."""
    records = list(records)
    completed = [r for r in records if r.completed]
    return dict(
        offered=len(records),
        admitted=sum(1 for r in records if r.admitted),
        rejected=sum(1 for r in records if not r.admitted),
        shed=sum(1 for r in records if r.rejected_reason == "shed"),
        completed=len(completed),
        deadline_misses=sum(1 for r in completed if r.deadline_missed),
        wait_p50_ns=percentile_or([r.wait_ns for r in completed], 50),
        wait_p99_ns=percentile_or([r.wait_ns for r in completed], 99),
        sojourn_p50_ns=percentile_or([r.sojourn_ns for r in completed], 50),
        sojourn_p99_ns=percentile_or([r.sojourn_ns for r in completed], 99),
        serial_latency_ns=sum(r.metrics.latency_ns for r in completed),
        energy_j=sum(r.metrics.energy_j for r in completed),
        host_merge_ns=sum(r.host_merge_ns for r in completed),
        ops_eliminated=sum(r.ops_eliminated for r in completed),
        shared_subchains=sum(r.shared_subchains for r in completed),
        cache_hits=sum(r.cache_hits for r in completed),
        cache_misses=sum(r.cache_misses for r in completed),
        cache_invalidations=sum(r.cache_invalidations for r in completed),
    )


def _sum_counts(holders):
    total = PlanCounts()
    for holder in holders:
        total.add_counts(holder)
    return total.plan_counts()


def _two_shard_stream(observe=True):
    """Two shards, index column "a" and a scan column on shard 0, "b" on
    shard 1; queues two deep, shedding on, batches that close only on a
    50 µs window — so what is offered stays queued until the test says."""
    rng = np.random.default_rng(3)
    table = ColumnTable("t", 150)
    table.add_column("a", rng.integers(0, 8, size=150), cardinality=8)
    table.add_column("b", rng.integers(0, 4, size=150), cardinality=4)
    column = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
    router = ShardRouter(2)
    router.set_replicas("a", [0])
    router.set_replicas("b", [1])
    router.set_replicas(column, [0])
    cluster = _cluster(
        2,
        router=router,
        observe=observe,
        max_queue_depth=2,
        shed_low_priority=True,
        policy=BatchPolicy(max_batch=64, window_ns=50_000.0),
    )
    return cluster, BitmapIndex(table, ["a", "b"]), column


class TestSettledWhereItHappens:
    """A cluster record goes terminal at its part's settle door — the
    instant the part is lost or the last one completes — not at the next
    ``drain()`` / ``result()``."""

    def test_a_part_shed_after_admission_sinks_its_record_at_once(self):
        cluster, index, column = _two_shard_stream()
        session = PimSession(cluster)
        future = session.conjunction(index, [("a", (1, 2)), ("b", (0, 1))], at_ns=5.0)
        record = future.record
        assert record.shard_ids == [0, 1] and future.status == "queued"
        for k, at in enumerate((10.0, 11.0, 12.0)):  # the second sheds the part
            session.scan(column, "less_than", 10 + k, priority=1, at_ns=at)

        # Right after the shedding offer — no drain, no advance.
        assert (record.admitted, record.rejected_reason) == (False, "shed")
        assert future.status == "rejected" and not future.done()
        assert [p.rejected_reason for p in record.parts] == ["shed", "cancelled"]
        assert record.trace.end_ns == record.parts[0].trace.end_ns == 11.0
        assert cluster.rejected == 2  # with the third scan, refused queue_full
        assert cluster.health().rejection_rate == 0.5
        counters = cluster.obs.metrics.snapshot()["counters"]
        assert counters["cluster.rejected"] == 2
        assert all(p.parent is None for p in record.parts)
        with pytest.raises(RequestRejected, match="shed"):
            future.result()
        # The withdrawn sibling never runs.
        session.advance_to(200_000.0)
        assert cluster.shards[1].batches == []

    def test_done_means_finished_on_every_surface(self):
        cluster, index, _ = _two_shard_stream(observe=False)
        session = PimSession(cluster)
        future = session.conjunction(index, [("a", (1, 2)), ("b", (0, 1))], at_ns=5.0)
        assert not future.done() and math.isnan(future.sojourn_ns)
        assert all(p.parent is future.record for p in future.record.parts)
        session.advance_to(200_000.0)  # serves both parts; nobody polls
        assert future.done() and future.status == "completed"
        assert math.isfinite(future.sojourn_ns) and future.metrics is not None
        record = future.record
        assert record.finish_ns == max(p.finish_ns for p in record.parts) + record.host_merge_ns
        assert record.value is not None and all(p.parent is None for p in record.parts)
        assert session.report().completed == 1

    def test_an_idle_drain_touches_no_record(self):
        """The cluster keeps no record list to walk: its health counts
        offers, and an idle drain leaves a settled record as it was."""
        cluster, index, _ = _two_shard_stream(observe=False)
        record = cluster.offer(
            BitmapConjunctionRequest(index=index, predicates=(("a", (1,)), ("b", (0,)))),
            arrival_ns=5.0,
        )
        cluster.drain()
        settled = (record.finish_ns, record.value)
        assert not hasattr(cluster, "records") and record.completed
        cluster.drain()
        cluster.advance_to(cluster.clock_ns + 1_000.0)
        cluster.gather()
        assert (record.finish_ns, record.value) == settled
        assert cluster._seq == 1 and cluster.health().rejection_rate == 0.0


class TestOneAccountingPath:
    KNOBS = dict(
        policy=BatchPolicy(max_batch=3, window_ns=600.0),
        max_queue_depth=3,
        shed_low_priority=True,
        optimize=True,
        cache=True,
    )

    @settings(max_examples=25, deadline=None)
    @given(tier=st.sampled_from(["service", "cluster"]), seed=st.integers(0, 2**16))
    def test_every_envelope_settles_exactly_once(self, tier, seed):
        """Shedding, cancellation, a mid-stream shard kill and a key no
        routable replica holds: after the drain every envelope is
        completed or rejected-with-a-reason, never both or neither, and
        every tally that describes them agrees."""
        rng = np.random.default_rng(seed)
        index = _bitmap_index(rng)
        lonely = BitWeavingColumn(rng.integers(0, 64, size=200), 6)
        requests = _conjunctions(rng, index, count=18)
        for i in range(2, len(requests), 4):
            requests[i] = ScanRequest(
                column=lonely, kind="less_than", constants=(int(rng.integers(1, 60)),)
            )
        events = poisson_schedule(
            requests,
            rate_per_s=6e6,
            seed=seed,
            priorities=[int(p) for p in rng.integers(0, 3, size=len(requests))],
        )
        if tier == "service":
            session = PimSession.over_service(engine=_engine_factory()(), **self.KNOBS)
            backend = session.backend
        else:
            backend = _cluster(3, router=ShardRouter(3, replication_factor=2), **self.KNOBS)
            session = PimSession(backend)
            # `lonely` keeps one home, so killing it strands the column.
            home, spare = backend.router.replicas(lonely)
            backend.router.drop_replica(lonely, spare)
            # Count every walk through a cluster door, per record.
            doors = Counter()
            for name in ("_gather", "_reject_record"):

                def counted(record, *args, _door=getattr(backend, name), **kwargs):
                    doors[record.seq] += 1
                    return _door(record, *args, **kwargs)

                setattr(backend, name, counted)

        half = len(events) // 2
        offered = [future.record for future in session.submit_stream(events[:half])]
        if tier == "service":
            queued = [q for q in offered if q.admitted and not q.completed]
            assert not queued or backend.cancel(queued[0])
        else:
            assert backend.fail_shard(home)
            # Settled where it happened, not at the drain below: no admitted
            # record holds a lost part, and only a live record is pointed at.
            for record in offered:
                assert not record.admitted or all(p.admitted for p in record.parts)
                live = record.admitted and not record.completed
                assert all((p.parent is record) == live for p in record.parts)
                assert all(p.parent is None for p in record.migrated_parts)
        offered += [future.record for future in session.submit_stream(events[half:])]
        session.drain()
        metrics = session.report()

        envelopes = list(offered)
        if tier == "cluster":
            envelopes += [part for r in offered for part in r.parts + r.migrated_parts]
        for envelope in envelopes:
            assert envelope.completed != (not envelope.admitted)
            assert envelope.admitted == (envelope.rejected_reason == "")
            assert math.isnan(envelope.finish_ns) == (not envelope.admitted)
        assert backend._seq == len(offered)
        rejected = [r for r in offered if not r.admitted]
        assert metrics.offered == len(offered) == metrics.completed + metrics.rejected
        assert metrics.rejected == len(rejected)
        assert metrics.shed == sum(r.rejected_reason == "shed" for r in rejected)
        assert {k: getattr(metrics, k) for k in PlanCounts().plan_counts()} == _sum_counts(
            r for r in offered if r.completed
        )
        if tier == "cluster":
            assert doors == Counter(record.seq for record in offered)  # one door, once
            assert backend.rejected == len(rejected)
            assert metrics.failover_failures == sum(
                r.rejected_reason == "shard_unavailable" and bool(r.parts) for r in rejected
            )
            for record in offered:
                # Counts are taken at the completion door, whole.
                parts = record.parts if record.completed else []
                assert record.plan_counts() == _sum_counts(parts)
                assert record.merge_ops == max(0, record.fanout - 1)
            assert any(r.rejected_reason == "shard_unavailable" for r in rejected)

    def test_a_refused_replacement_rejects_its_record_at_the_kill(self):
        """The one outcome only the old poll caught: a failover replacement
        refused at its target's door.  The record sinks there — the target's
        reason, the kill instant — and never reaches the drain in no state."""
        cluster, index, column = _two_shard_stream()
        conj = cluster.offer(
            BitmapConjunctionRequest(index=index, predicates=(("a", (1, 2)), ("b", (0, 1)))),
            arrival_ns=5.0,
        )
        filler = cluster.offer(
            ScanRequest(column=column, kind="less_than", constants=(10,)), arrival_ns=6.0
        )
        assert conj.shard_ids == [0, 1] and cluster.shards[0].queue_depth == 2  # full
        cluster.router.add_replica("b", 0)  # the only place shard 1's part can go
        assert cluster.fail_shard(1, at_ns=7.0)

        assert (conj.admitted, conj.rejected_reason) == (False, "queue_full")
        assert [p.rejected_reason for p in conj.parts] == ["cancelled", "queue_full"]
        assert [p.rejected_reason for p in conj.migrated_parts] == ["shard_failed"]
        assert conj.trace.end_ns == 7.0
        assert all(p.parent is None for p in conj.parts + conj.migrated_parts)
        assert cluster.rejected == 1 and cluster.elastic.failover_failures == 0
        served = [len(shard.batches) for shard in cluster.shards]
        cluster.drain()
        summary, _ = summarize_envelopes([conj, filler])
        assert (summary["offered"], summary["completed"], summary["rejected"]) == (2, 1, 1)
        assert filler.completed and cluster.rejected == 1
        assert len(cluster.shards[1].batches) == served[1]  # nothing of the record ran

    def test_one_pass_fold_equals_the_expression_by_expression_rollup(self):
        """`summarize_envelopes` — one walk, each series sorted once —
        returns exactly (floats included) what seventeen separate
        expressions did, on an optimizer+cache service stream and on a
        faulted cluster stream with rejections."""
        rng = np.random.default_rng(77)
        index = _bitmap_index(rng)
        requests = _conjunctions(rng, index, count=30)
        requests += requests[:10]  # duplicates: shared sub-chains, cache hits
        priorities = [int(p) for p in rng.integers(0, 3, size=len(requests))]

        def events():
            return poisson_schedule(
                requests, rate_per_s=2e7, seed=77, priorities=priorities, deadline_slack_ns=1200.0
            )

        service = PimSession.over_service(engine=_engine_factory()(), **self.KNOBS).backend
        service_report, service_records = _serve(service, events())
        cluster = _cluster(
            3,
            router=ShardRouter(3, replication_factor=2),
            faults=kill_revive_schedule([(1, 400.0, None)]),
            **self.KNOBS,
        )
        cluster_report, cluster_records = _serve(cluster, events())
        windows = [(service_report, service_records), (cluster_report, cluster_records)]
        for shard_id, shard_metrics in enumerate(cluster_report.per_shard):
            parts = [
                part
                for record in cluster_records
                for shard, part in zip(record.shard_ids, record.parts)
                if shard == shard_id
            ]
            windows.append((shard_metrics, parts))

        for metrics, records in windows:
            summary, completed = summarize_envelopes(records)
            assert summary == _reference_summary(records)
            assert completed == [r for r in records if r.completed]
            for name, value in summary.items():
                assert getattr(metrics, name) == value
        # Both streams exercise every number the fold produces.
        for metrics in (service_report, cluster_report):
            assert metrics.completed and metrics.shed and metrics.deadline_misses
            assert metrics.rejected > metrics.shed
            assert metrics.shared_subchains and metrics.cache_hits and metrics.host_merge_ns
        assert cluster_report.failovers
        assert cluster_report.merge_ops == sum(r.merge_ops for r in cluster_records if r.completed)
        assert summarize_envelopes([]) == (_reference_summary([]), [])
