"""Tests for the unified client API (`repro.api`).

The load-bearing acceptance property: one seeded mixed workload (scans +
conjunctions + range counts) submitted through :class:`PimSession`
returns bit-exact results and a consistent :class:`Response` shape
whether the backend is a single-device :class:`ServiceFrontend`, an
N-shard :class:`ClusterFrontend`, or the serial :class:`HostBackend`.
Around it: the ``Backend`` protocol surface, future semantics
(rejection, windowed sessions, lazy drain), the host-side gather merge
cost, and responses pricing exactly as the ``QueryEngine`` cost model.
"""

import copy
import dataclasses
import gc
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.metrics import ClusterMetrics, PlanCounts, QueueMetrics
from repro.api import (
    Backend,
    ClusterDetails,
    Future,
    HostBackend,
    HostDetails,
    PimSession,
    RequestRejected,
    ServiceDetails,
    lower_conjunction_steps,
)
from repro.api.plans import CompiledChain
from repro.cache import ResultCache
from repro.cluster import ClusterFrontend, ClusterRecord, ShardRouter
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.queries import QueryEngine, ScanBackend
from repro.database.sharding import BitmapIndexShardView
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.rowclone.engine import CopyMode
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    BulkOpRequest,
    CopyRequest,
    PipelineConfig,
    RequestResult,
    RetryClient,
    ScanRequest,
    ServiceFrontend,
    poisson_schedule,
)
from repro.service.config import MERGE_NS_PER_OP
from repro.service.frontend import ArrivalEvent
from repro.service.planner import CHAIN_INTERN_CAPACITY
from repro.service.requests import BoundChain, QueuedRequest
from repro.storage import DeleteRequest, MaintenancePolicy, UpdateRequest
from repro.storage.requests import check_row_ids
from repro.verify import VerifyError


def _device(banks: int = 4) -> DramDevice:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=banks,
        subarrays_per_bank=2,
        rows_per_subarray=32,
        row_size_bytes=64,
    )
    return DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )


def _engine(banks: int = 4) -> AmbitEngine:
    return AmbitEngine(
        _device(banks), AmbitConfig(banks_parallel=banks, vectorized_functional=True)
    )


def _service_session(**kwargs) -> PimSession:
    return PimSession.over_service(engine=_engine(), name="session", **kwargs)


def _cluster_session(num_shards: int, **kwargs) -> PimSession:
    kwargs.setdefault("engine_factory", lambda: _engine())
    kwargs.setdefault("policy", BatchPolicy(max_batch=3))
    return PimSession.over_cluster(num_shards=num_shards, name="session", **kwargs)


def _random_column(rng, num_bits: int = 6, rows: int = 200) -> BitWeavingColumn:
    return BitWeavingColumn(rng.integers(0, 1 << num_bits, size=rows), num_bits)


def _bitmap_index(rng, rows: int = 400) -> BitmapIndex:
    table = ColumnTable("t", rows)
    table.add_column("region", rng.integers(0, 8, size=rows), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=rows), cardinality=4)
    table.add_column("tier", rng.integers(0, 3, size=rows), cardinality=3)
    return BitmapIndex(table, ["region", "status", "tier"])


def _mixed_workload(session: PimSession, columns, index, constants, num_bits):
    """Submit the canonical seeded mix: scans + range counts + conjunctions."""
    kinds = ["less_than", "less_equal", "equal"]
    futures = []
    for i, constant in enumerate(constants):
        constant %= 1 << num_bits
        column = columns[i % len(columns)]
        if i % 3 == 2:
            high = max(constant, (1 << num_bits) - 1 - constant)
            futures.append(session.range_count(column, min(constant, high), high))
        else:
            futures.append(session.scan(column, kinds[i % len(kinds)], constant))
    futures.append(
        session.conjunction(index, [("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (0, 2))])
    )
    futures.append(session.conjunction(index, [("region", (0,)), ("tier", (1,))]))
    return futures


class TestBackendProtocol:
    def test_all_tiers_speak_the_protocol(self):
        assert isinstance(ServiceFrontend(engine=_engine()), Backend)
        assert isinstance(
            ClusterFrontend(num_shards=2, engine_factory=lambda: _engine()), Backend
        )
        assert isinstance(HostBackend(), Backend)

    @settings(max_examples=10, deadline=None)
    @given(
        num_shards=st.sampled_from([1, 2, 4]),
        num_bits=st.integers(2, 6),
        rows=st.integers(20, 300),
        seed=st.integers(0, 2**16),
        constants=st.lists(st.integers(0, 63), min_size=1, max_size=5),
    )
    def test_service_and_cluster_sessions_bit_exact(
        self, num_shards, num_bits, rows, seed, constants
    ):
        """Acceptance: the same seeded mixed workload through PimSession
        over a ServiceFrontend and over an N-shard ClusterFrontend returns
        bit-exact values and consistent Response metadata."""
        rng = np.random.default_rng(seed)
        columns = [_random_column(rng, num_bits, rows) for _ in range(3)]
        index = _bitmap_index(rng, rows=rows)

        service = _service_session(policy=BatchPolicy(max_batch=3))
        cluster = _cluster_session(
            num_shards, router=ShardRouter(num_shards, replication_factor=1)
        )
        service_futures = _mixed_workload(service, columns, index, constants, num_bits)
        cluster_futures = _mixed_workload(cluster, columns, index, constants, num_bits)

        for sf, cf in zip(service_futures, cluster_futures):
            sr, cr = sf.result(), cf.result()
            assert sr.status == cr.status == "completed"
            assert sr.kind == cr.kind
            assert np.array_equal(sr.value, cr.value)
            assert sr.matching_rows == cr.matching_rows
            # The host epilogue prices identically on both tiers; the scan
            # side may differ only for scattered conjunctions (device ANDs
            # replaced by host merges).
            assert sr.breakdown["epilogue_ns"] == pytest.approx(cr.breakdown["epilogue_ns"])
            if sr.kind != "conjunction":
                assert sr.breakdown["scan_ns"] == pytest.approx(cr.breakdown["scan_ns"])
                assert sr.energy_j == pytest.approx(cr.energy_j)
            assert isinstance(sr.details, ServiceDetails)
            assert isinstance(cr.details, ClusterDetails)
            assert 1 <= cr.details.fanout <= num_shards

        service_report = service.report()
        cluster_report = cluster.report()
        assert service_report.tier == "service"
        assert cluster_report.tier == "cluster"
        assert service_report.completed == cluster_report.completed == len(service_futures)
        assert service_report.rejected == cluster_report.rejected == 0
        assert cluster_report.details.shards == num_shards

    def test_host_session_matches_service_values(self):
        rng = np.random.default_rng(3)
        columns = [_random_column(rng) for _ in range(3)]
        index = _bitmap_index(rng)
        host = PimSession.over_host()
        service = _service_session()
        for session in (host, service):
            _mixed_workload(session, columns, index, [5, 17, 40], 6)
        for hf, sf in zip(host.futures, service.futures):
            hr, sr = hf.response(), sf.response()
            assert np.array_equal(hr.value, sr.value)
            assert hr.matching_rows == sr.matching_rows
            assert isinstance(hr.details, HostDetails)
        assert host.report().tier == "host"
        assert host.report().completed == len(host.futures)


class TestFutureSemantics:
    def test_result_drains_lazily(self):
        rng = np.random.default_rng(4)
        session = _service_session(policy=BatchPolicy(max_batch=8))
        future = session.scan(_random_column(rng), "less_than", 9)
        assert not future.done()
        assert future.status == "queued"
        response = future.result()  # drains the backend
        assert future.done() and future.status == "completed"
        expected, _ = future.request.column.scan("less_than", 9)
        assert np.array_equal(response.value, expected)
        assert response.latency_ns == pytest.approx(
            response.breakdown["scan_ns"] + response.breakdown["epilogue_ns"]
        )
        assert response.sojourn_ns == pytest.approx(future.sojourn_ns)

    def test_rejected_future_raises(self):
        rng = np.random.default_rng(5)
        session = _service_session(max_queue_depth=1)
        kept = session.scan(_random_column(rng), "less_than", 3)
        refused = session.scan(_random_column(rng), "less_than", 3)
        assert refused.status == "rejected"
        with pytest.raises(RequestRejected) as excinfo:
            refused.result()
        assert excinfo.value.reason == "queue_full"
        assert refused.response().status == "rejected"
        assert kept.result().status == "completed"

    def test_windowed_reports_on_a_shared_backend(self):
        """Two sessions over one frontend report only their own traffic —
        counts AND time-based fields (makespan, busy, batches)."""
        rng = np.random.default_rng(6)
        frontend = ServiceFrontend(engine=_engine())
        first = PimSession(frontend, name="first")
        first.scan(_random_column(rng), "less_than", 7)
        first.drain()
        first_report = first.report()
        second = PimSession(frontend, name="second")
        for _ in range(4):
            second.scan(_random_column(rng), "equal", 7)
        second.drain()
        assert first_report.offered == 1
        assert second.report().offered == 4
        assert second.report().completed == 4
        assert sum(batch.requests for batch in frontend.batches) == 5
        # Session B's traffic never leaks into A's time-based fields: a
        # report taken *after* B ran equals the one taken before.
        late_first_report = first.report()
        assert late_first_report.busy_ns == pytest.approx(first_report.busy_ns)
        assert late_first_report.makespan_ns == pytest.approx(first_report.makespan_ns)
        assert late_first_report.details.batches == first_report.details.batches == 1
        # And B's window starts at its own clock origin, excluding A.
        own_record = second.futures[0].record
        assert second.report().busy_ns == pytest.approx(
            sum(
                frontend.batches[i].latency_ns
                for i in {f.record.batch_index for f in second.futures}
            )
        )
        assert second.report().makespan_ns == pytest.approx(
            max(f.record.finish_ns for f in second.futures) - own_record.arrival_ns
        )

    def test_interleaved_sessions_apportion_shared_batches(self):
        """Two sessions whose requests land in ONE batch split its busy
        time instead of each counting the batch in full."""
        rng = np.random.default_rng(61)
        frontend = ServiceFrontend(
            PipelineConfig(policy=BatchPolicy(max_batch=64)),
            engine=_engine(),
        )
        first = PimSession(frontend, name="first")
        second = PimSession(frontend, name="second")
        for _ in range(2):
            first.scan(_random_column(rng), "less_than", 9)
            second.scan(_random_column(rng), "equal", 3)
        frontend.drain()  # one shared batch serves all four scans
        assert len(frontend.batches) == 1
        total = frontend.batches[0].busy_ns
        split = first.report().busy_ns + second.report().busy_ns
        assert split == pytest.approx(total)
        assert 0.0 < first.report().busy_ns < total

    def test_windowed_reports_on_a_shared_cluster(self):
        """The cluster tier windows both report ends too: another
        session's traffic moves neither makespan nor busy time."""
        rng = np.random.default_rng(60)
        cluster = ClusterFrontend(
            num_shards=2,
            config=PipelineConfig(policy=BatchPolicy(max_batch=2)),
            engine_factory=lambda: _engine(),
        )
        first = PimSession(cluster, name="first")
        first.scan(_random_column(rng), "less_than", 9)
        first.drain()
        first_report = first.report()
        second = PimSession(cluster, name="second")
        for _ in range(4):
            second.scan(_random_column(rng), "equal", 3)
        second.drain()
        late_first_report = first.report()
        assert late_first_report.offered == 1
        assert late_first_report.busy_ns == pytest.approx(first_report.busy_ns)
        assert late_first_report.makespan_ns == pytest.approx(first_report.makespan_ns)
        assert second.report().offered == 4
        assert second.report().makespan_ns < cluster.clock_ns

    def test_submit_stream_and_raw_requests(self):
        rng = np.random.default_rng(7)
        session = _service_session(policy=BatchPolicy(max_batch=2))
        requests = [
            ScanRequest(column=_random_column(rng), kind="less_than", constants=(c,))
            for c in (3, 9, 30)
        ]
        futures = session.submit_stream(poisson_schedule(requests, rate_per_s=1e6, seed=7))
        responses = session.responses()
        assert len(responses) == len(futures) == len(requests)
        for request, response in zip(requests, responses):
            expected, _ = request.column.scan(request.kind, *request.constants)
            assert np.array_equal(response.value, expected)
            assert response.kind == "scan"

    def test_retry_client_accepts_a_session(self):
        rng = np.random.default_rng(8)
        session = _service_session(
            max_queue_depth=2, policy=BatchPolicy(max_batch=2)
        )
        requests = [
            ScanRequest(column=_random_column(rng), kind="less_than", constants=(c,))
            for c in range(8)
        ]
        events = poisson_schedule(requests, rate_per_s=1e9, seed=8)
        outcome = RetryClient(session).run(events)
        assert outcome.delivered > 0
        assert outcome.result.completed == outcome.delivered
        # Every attempt is one of the session's requests.
        assert outcome.result.offered == len(session.futures) == outcome.total_attempts


class TestConjunctionValuesAreReadOnly:
    """One immutability contract on every PIM path: the optimizer may
    hand several responses one shared join, so no conjunction value can
    be written through — shared or not, optimized or not."""

    WIDE = [("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (0, 2))]
    NARROW = [("region", (4,))]  # zero bulk ops, one shard

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("tier", ["service", "cluster"])
    def test_writing_through_a_value_raises_and_a_copy_is_private(self, tier, optimize):
        index = _bitmap_index(np.random.default_rng(12))
        if tier == "service":
            session = _service_session(optimize=optimize)
        else:
            session = _cluster_session(
                2, optimize=optimize, router=ShardRouter(2, strategy="range")
            )
        futures = [
            session.conjunction(index, predicates)
            for predicates in (self.WIDE, self.WIDE, self.NARROW)
        ]
        if tier == "cluster":
            assert futures[0].result().details.fanout == 2  # the gather merge path too
        for future in futures:
            value = future.result().value
            expected, _plan = index.evaluate_conjunction(future.request.predicates)
            with pytest.raises(ValueError):
                value[0] ^= 0xFF
            np.testing.assert_array_equal(value, expected)
            mine = np.array(value)
            mine[0] ^= 0xFF  # the documented way to a writable bitmap
            np.testing.assert_array_equal(value, expected)


class TestRetention:
    """A served batch leaves only its roll-up behind: host memory is
    O(in-flight) primitives plus a flat per-request envelope."""

    @staticmethod
    def _serve(count: int):
        """Submit ``count`` plain conjunctions and drain; returns the live
        session and the GC-tracked objects the run left."""
        rng = np.random.default_rng(5)
        index = _bitmap_index(rng, rows=512)  # whole-row planes: the view path
        pool = [
            [("region", (1, 2, 3)), ("status", (0, 1))],
            [("region", (0, 4)), ("status", (2, 3)), ("tier", (0, 1))],
            [("tier", (0, 2)), ("region", (5, 6, 7))],
        ]
        gc.collect()
        before = len(gc.get_objects())
        session = _service_session(max_queue_depth=4096)
        for i in range(count):
            session.conjunction(index, pool[i % len(pool)], at_ns=1000.0 * i)
        session.drain()
        gc.collect()
        return session, len(gc.get_objects()) - before

    @pytest.mark.parametrize("tier", ["service", "cluster"])
    def test_a_frontend_keeps_no_envelope_it_settled(self, tier):
        """The offerer is an envelope's one holder: offered directly and
        dropped, every envelope is garbage once the frontend has drained —
        rejected ones too, and a scattered record's parts.  (The slotted
        envelopes take no weak reference, so they are counted by type.)"""
        index = _bitmap_index(np.random.default_rng(5), rows=512)
        pool = [
            (("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (0, 2))),
            (("region", (0, 4)), ("tier", (0, 1))),
        ]

        def live():
            return sum(type(o) in (QueuedRequest, ClusterRecord) for o in gc.get_objects())

        gc.collect()
        before = live()
        # Overloaded on purpose: most offers are refused, the rest served
        # (scattered over both shards on the cluster tier).
        config = PipelineConfig(max_backlog_ns=10_000.0, policy=BatchPolicy(max_batch=4))
        if tier == "cluster":
            router = ShardRouter(2, strategy="range")
            backend = ClusterFrontend(2, config, router=router, engine_factory=_engine)
        else:
            backend = ServiceFrontend(config, engine=_engine())
        for i in range(200):
            backend.advance_to(50.0 * i)
            backend.offer(
                BitmapConjunctionRequest(index=index, predicates=pool[i % 2]), arrival_ns=50.0 * i
            )
        backend.drain()
        assert not backend.obs.enabled
        gc.collect()
        assert live() == before

    def test_no_primitive_outlives_its_batch(self):
        primitive_types = (BulkBitVector, BulkOpRequest, RequestResult)
        gc.collect()
        before = {id(o) for o in gc.get_objects() if isinstance(o, primitive_types)}
        session, _ = self._serve(300)
        frontend = session.backend
        assert len(frontend.batches) >= 300 // 32
        assert all(f.done() for f in session.futures)
        leaked = [
            o for o in gc.get_objects()
            if isinstance(o, primitive_types) and id(o) not in before
        ]
        assert leaked == []
        # What the roll-ups still answer: the session's busy time.
        assert session.report().busy_ns == pytest.approx(sum(b.busy_ns for b in frontend.batches))

    @pytest.mark.parametrize("tier", ["service", "cluster", "host"])
    def test_a_response_refers_to_its_envelope_not_back_to_its_future(self, tier):
        """A response is a view of its envelope.  It holds the envelope and
        the tier's details builder, never the future that caches it or the
        session that lists that future, so it closes no reference cycle
        only the collector could free."""
        sessions = {
            "service": _service_session,
            "cluster": lambda: _cluster_session(2),
            "host": PimSession.over_host,
        }
        session = sessions[tier]()
        index = _bitmap_index(np.random.default_rng(6))
        future = session.conjunction(index, [("region", (1, 2)), ("status", (0,))])
        response = future.result()
        held = gc.get_referents(response)
        assert future.record in held
        assert not any(isinstance(obj, (Future, PimSession)) for obj in held)
        assert future.response() is response

    def test_retained_objects_per_request_are_flat(self):
        # Slopes, so the session's fixed objects cancel: each of requests
        # 1 000-2 000 leaves what each of requests 500-1 000 left.
        left = {count: self._serve(count)[1] for count in (500, 1000, 2000)}
        early = (left[1000] - left[500]) / 500
        late = (left[2000] - left[1000]) / 1000
        assert late == pytest.approx(early, rel=0.10)


class TestPlanIR:
    def test_requests_validate(self):
        """The request dataclasses are the API boundary: malformed input
        raises at construction, never inside a popped batch."""
        rng = np.random.default_rng(9)
        column = _random_column(rng)
        index = _bitmap_index(rng)
        with pytest.raises(ValueError):
            ScanRequest(column=column, kind="nope", constants=(1,))
        with pytest.raises(ValueError):
            ScanRequest(column=column, kind="between", constants=(1,))
        with pytest.raises(ValueError):
            BitmapConjunctionRequest(index=index, predicates=())
        with pytest.raises(ValueError):
            BitmapConjunctionRequest(index=index, predicates=(("region", ()),))
        with pytest.raises(KeyError):  # unindexed column
            BitmapConjunctionRequest(index=index, predicates=(("nope", (0,)),))
        # A code past the cardinality is one no row holds yet: no refusal.
        absent = BitmapConjunctionRequest(index=index, predicates=(("region", (10**6,)),))
        assert BitmapIndex.count(index.evaluate_conjunction(absent.predicates)[0], 400) == 0
        with pytest.raises(KeyError):  # indexed, but not placed on this shard
            BitmapConjunctionRequest(
                index=index.shard_view(["region"]), predicates=(("status", (0,)),)
            )
        with pytest.raises(ValueError):
            UpdateRequest(
                table=index.table, index=index, column="region", row_ids=(0, 1), values=(1,)
            )

    def test_shared_lowering_matches_evaluate_on_index_and_view(self):
        """One code path: the IR lowers a full index and a shard view
        identically, and the chain's final vector equals evaluate()."""
        rng = np.random.default_rng(11)
        index = _bitmap_index(rng)
        predicates = [("region", (1, 2)), ("status", (0, 1))]
        expected, plan = index.evaluate_conjunction(predicates)
        for source in (index, index.shard_view(["region", "status"])):
            steps, result, lowered_plan = lower_conjunction_steps(
                source, predicates, row_size_bytes=64
            )
            assert lowered_plan.total_operations == plan.total_operations
            for op, a, b, out in steps:
                np_op = np.bitwise_or if op == "or" else np.bitwise_and
                out.data[:] = np_op(a.data, b.data)
            packed = (index.num_rows + 7) // 8
            assert np.array_equal(result.data[:packed], expected)

    def test_view_lowering_stays_local(self):
        rng = np.random.default_rng(12)
        index = _bitmap_index(rng)
        view = index.shard_view(["region"])
        with pytest.raises(KeyError):
            lower_conjunction_steps(view, [("status", (0,))])

    @staticmethod
    def _reference_wiring(predicates):
        """The lowering as one loop, as it was before compile and bind
        were told apart: per predicate the OR chain of its value bitmaps,
        then the AND chain across predicates.  Operands are named
        ``("bitmap", column, value)`` or ``("step", i)``."""
        steps, operations, partials = [], [], []
        for column, values in predicates:
            acc = ("bitmap", column, values[0])
            for value in values[1:]:
                steps.append(("or", acc, ("bitmap", column, value)))
                acc = ("step", len(steps) - 1)
            if len(values) > 1:
                operations.append(("or", len(values) - 1))
            partials.append(acc)
        result = partials[0]
        for partial in partials[1:]:
            steps.append(("and", result, partial))
            result = ("step", len(steps) - 1)
        if len(predicates) > 1:
            operations.append(("and", len(predicates) - 1))
        return steps, result, operations

    @staticmethod
    def _assert_wired(source, label, vector, outputs, packed_bytes):
        if label[0] == "step":
            assert vector is outputs[label[1]]
        else:
            assert all(vector is not out for out in outputs)
            plane = source.bitmap(label[1], label[2])
            np.testing.assert_array_equal(vector.data[:packed_bytes], plane)
            assert not vector.data[packed_bytes:].any()
            assert not vector.data.flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        rows=st.sampled_from([64, 400, 512, 1500]),
        row_size=st.sampled_from([64, 8192]),
        as_view=st.booleans(),
        shape=st.lists(
            st.tuples(
                st.sampled_from(["region", "status", "tier"]),
                st.lists(st.integers(0, 2), min_size=1, max_size=4),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_bind_of_compile_is_the_one_loop_lowering(self, seed, rows, row_size, as_view, shape):
        """Op sequence, operand wiring and plan of ``bind(compile(...))``
        equal the reference loop on a full index and a shard view, and
        executing the chain yields ``evaluate_conjunction``."""
        index = _bitmap_index(np.random.default_rng(seed), rows=rows)
        source = index.shard_view(["region", "status", "tier"]) if as_view else index
        predicates = tuple((column, tuple(values)) for column, values in shape)
        chain = CompiledChain.compile(predicates, source.num_rows, row_size)
        steps, result = chain.bind(source)
        ref_steps, ref_result, ref_operations = self._reference_wiring(predicates)
        assert [op for op, _a, _b, _out in steps] == [op for op, _a, _b in ref_steps]
        outputs = [out for _op, _a, _b, out in steps]
        packed = (rows + 7) // 8
        for (_op, a, b, _out), (_ref_op, ref_a, ref_b) in zip(steps, ref_steps):
            self._assert_wired(source, ref_a, a, outputs, packed)
            self._assert_wired(source, ref_b, b, outputs, packed)
        self._assert_wired(source, ref_result, result, outputs, packed)
        assert chain.plan().operations == ref_operations
        assert chain.plan().result_bits == rows
        assert (chain.rows, chain.packed_bytes) == (result.num_rows, packed)
        # The public one-call form is the same bind over the same shape.
        lowered, _result, plan = lower_conjunction_steps(source, shape, row_size_bytes=row_size)
        assert [op for op, *_ in lowered] == [op for op, *_ in steps]
        assert plan == chain.plan()
        for op, a, b, out in steps:
            (np.bitwise_or if op == "or" else np.bitwise_and)(a.data, b.data, out=out.data)
        expected, evaluated_plan = index.evaluate_conjunction(predicates)
        np.testing.assert_array_equal(result.data[:packed], expected)
        assert chain.plan().total_operations == evaluated_plan.total_operations

    def test_equal_shapes_intern_to_one_chain_per_planner(self):
        index = _bitmap_index(np.random.default_rng(31))
        as_lists = BitmapConjunctionRequest(index, [["region", [1, 2]], ["status", [0]]])
        as_tuples = BitmapConjunctionRequest(index, (("region", (1, 2)), ("status", (0,))))
        planner = _service_session().backend.planner
        def interned(planner, source, predicates=as_tuples.predicates):
            request = BitmapConjunctionRequest(source, predicates)
            return planner._priced_chain(request.predicates, source.num_rows).chain

        chain = planner._priced_chain(as_lists.predicates, index.num_rows).chain
        assert planner._priced_chain(as_tuples.predicates, index.num_rows).chain is chain
        # Same predicates over a same-sized other source: the shape holds no index.
        assert interned(planner, _bitmap_index(np.random.default_rng(32))) is chain
        assert interned(planner, _bitmap_index(np.random.default_rng(33), rows=200)) is not chain
        # Per planner, never process-wide.
        assert interned(_service_session().backend.planner, index) is not chain

    def test_the_intern_is_bounded_and_holds_structure_only(self):
        """Ten times the bound in distinct templates leave at most the
        bound interned, and nothing reachable from the intern is data: no
        array, no vector, no bitmap source (so a write has nothing to
        invalidate there and nothing can be retained through it)."""
        index = _bitmap_index(np.random.default_rng(34))
        session = _service_session(max_queue_depth=4096)
        planner = session.backend.planner
        for i in range(10 * CHAIN_INTERN_CAPACITY):
            digits = tuple((i >> (3 * k)) & 7 for k in range(5))  # distinct per i
            request = BitmapConjunctionRequest(index, [("region", digits), ("status", (i % 4,))])
            planner._priced_chain(request.predicates, index.num_rows)
            assert len(planner._chains) <= CHAIN_INTERN_CAPACITY
        assert len(planner._chains) == CHAIN_INTERN_CAPACITY
        for i in range(64):  # and serve some, so priced entries are walked too
            session.conjunction(index, [("region", (i % 8, (i + 1) % 8)), ("tier", (0, 1))])
        session.drain()
        assert 0 < len(planner._chains) <= CHAIN_INTERN_CAPACITY
        data_types = (np.ndarray, BulkBitVector, BitmapIndex, BitmapIndexShardView)
        seen, frontier = set(), [planner._chains]
        while frontier:
            node = frontier.pop()
            if id(node) in seen or isinstance(node, (type, type(np), type(len), type(_engine))):
                continue  # classes, modules and functions lead to the whole program
            seen.add(id(node))
            assert not isinstance(node, data_types), type(node)
            frontier.extend(gc.get_referents(node))
        assert len(seen) > CHAIN_INTERN_CAPACITY  # the walk did descend into the chains

    def test_changing_banks_parallel_reprices_admission(self):
        """Prices hang on the shape *and* the engine's cost key: a later
        ``banks_parallel`` change (the bank ablation) re-prices both the
        admission latency and the bank footprint."""
        index = _bitmap_index(np.random.default_rng(35), rows=2048)  # 4 x 64 B rows
        request = BitmapConjunctionRequest(index, [("region", (1, 2, 3)), ("status", (0, 1))])
        engine = _engine(banks=4)
        planner = PimSession.over_service(engine=engine).backend.planner
        wide_ns, wide_banks = planner.modeled_latency_ns(request), planner.modeled_banks(request)
        assert wide_ns == 4 * engine.op_cost("or", 4).latency_ns and len(wide_banks) == 4
        engine.config.banks_parallel = 2
        narrow_ns = planner.modeled_latency_ns(request)
        narrow_banks = planner.modeled_banks(request)
        assert narrow_ns == 4 * engine.op_cost("or", 4).latency_ns == 2 * wide_ns
        assert len(narrow_banks) == 2 and set(narrow_banks) < set(wide_banks)
        # ...and what a served request is charged follows the same key.
        session = PimSession.over_service(engine=_engine(banks=4))
        first = session.conjunction(index, request.predicates)
        session.drain()
        session.backend.executor.engine.config.banks_parallel = 2
        second = session.conjunction(index, request.predicates)
        session.drain()
        assert second.record.metrics.latency_ns == 2 * first.record.metrics.latency_ns
        assert second.record.modeled_ns == second.record.metrics.latency_ns

    def test_priced_roll_up_is_the_sum_over_the_executed_steps(self):
        """A lowered chain's metrics are priced once per shape; they must
        be what summing its executed steps' charges gives, bit for bit —
        each step priced as the engine charges that bound step."""
        index = _bitmap_index(np.random.default_rng(36), rows=1500)
        session = _service_session(policy=BatchPolicy(max_batch=4))
        frontend = session.backend
        engine = frontend.executor.engine
        for predicates in (
            [("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (2,))],
            [("region", (0, 7)), ("tier", (0, 1))],
            [("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (2,))],
            [("status", (3,))],
        ):
            session.conjunction(index, predicates)
        batch = frontend.serve_batch()
        chains = iter(batch.results)
        for record in (future.record for future in session.futures):
            steps = sum(len(v) - 1 for _c, v in record.request.predicates) + (
                len(record.request.predicates) - 1
            )
            own = []
            if steps:  # one chain primitive per conjunction that runs any op
                result = next(chains)
                chain = result.request
                assert isinstance(chain, BoundChain) and len(chain.steps) == steps
                own = [
                    engine.op_cost(op, a.num_rows, a.num_bytes) for op, a, _b, _out in chain.steps
                ]
                assert [
                    (p.name, p.latency_ns, p.energy_j, p.bytes_produced) for p in result.step_prices
                ] == [(p.name, p.latency_ns, p.energy_j, p.bytes_produced) for p in own]
            assert record.metrics.latency_ns == sum(p.latency_ns for p in own)
            assert record.metrics.energy_j == sum(p.energy_j for p in own)
            if own:  # (an identity chain reports the bitmap it hands back)
                assert record.metrics.bytes_produced == sum(p.bytes_produced for p in own)
        assert next(chains, None) is None

    def test_two_sessions_in_one_process_do_the_same_work(self, monkeypatch):
        """No process-global warm state: a second, identical session
        prices, reads and allocates exactly as often as the first — and
        shims attached *after* construction see every call (nothing
        caches a bound method of the engine or the index)."""

        def served():
            counts = {"op_cost": 0, "bitmap": 0, "vectors": 0}
            index = _bitmap_index(np.random.default_rng(37), rows=512)
            engine = _engine()
            session = PimSession.over_service(engine=engine, max_queue_depth=4096)
            op_cost, bitmap, init = engine.op_cost, index.bitmap, BulkBitVector.__init__

            def count(name, call):
                def shim(*args, **kwargs):
                    counts[name] += 1
                    return call(*args, **kwargs)
                return shim

            engine.op_cost = count("op_cost", op_cost)
            index.bitmap = count("bitmap", bitmap)
            monkeypatch.setattr(BulkBitVector, "__init__", count("vectors", init))
            pool = [
                [("region", (1, 2, 3)), ("status", (0, 1))],
                [("region", (0, 4)), ("status", (2, 3)), ("tier", (0, 1))],
            ]
            for i in range(96):
                session.conjunction(index, pool[i % 2], at_ns=500.0 * i)
            session.drain()
            monkeypatch.undo()
            return counts

        first, second = served(), served()
        assert first == second
        assert all(first.values())


class TestGatherMergeCost:
    def test_scattered_conjunction_charges_host_merges(self):
        rng = np.random.default_rng(13)
        index = _bitmap_index(rng)
        # One indexed column per shard: the conjunction must scatter.
        cluster = ClusterFrontend(
            num_shards=3,
            router=ShardRouter(3, strategy="range"),
            engine_factory=lambda: _engine(),
        )
        cluster.router.register_names(index.indexed_columns())
        session = PimSession(cluster)
        future = session.conjunction(
            index, [("region", (1, 2)), ("status", (0, 1)), ("tier", (0,))]
        )
        response = future.result()
        details = response.details
        assert details.fanout == 3
        assert details.host_merge_ns == 2 * MERGE_NS_PER_OP > 0.0
        # The merge is charged into completion: the gathered finish is
        # strictly later than the last shard part's device finish.
        record = future.record
        last_part_finish = max(p.finish_ns for p in record.parts)
        assert record.finish_ns == pytest.approx(last_part_finish + details.host_merge_ns)
        report = session.report()
        assert report.details.merge_ops == 2
        assert report.details.host_merge_ns == pytest.approx(details.host_merge_ns)
        # The stream is not over until the host has merged: the makespan
        # covers the gathered finish, so sojourns never exceed it.
        assert report.makespan_ns >= record.finish_ns
        assert report.sojourn_p99_ns <= report.makespan_ns + 1e-9

    @pytest.mark.parametrize(
        "predicates, levels",
        [
            ([("region", (1, 2))], 0),
            ([("region", (1, 2)), ("tier", (0,))], 1),
        ],
        ids=["one-shard", "two-shards"],
    )
    def test_merge_tree_depth_prices_the_gather(self, predicates, levels):
        """A G-way gather costs ``ceil(log2(G))`` levels of
        ``MERGE_NS_PER_OP``: nothing for a single-shard conjunction, one
        level for a pair of partials."""
        rng = np.random.default_rng(14)
        index = _bitmap_index(rng)
        cluster = ClusterFrontend(
            num_shards=3,
            router=ShardRouter(3, strategy="range"),
            engine_factory=lambda: _engine(),
        )
        cluster.router.register_names(index.indexed_columns())
        future = PimSession(cluster).conjunction(index, predicates)
        expected, _ = index.evaluate_conjunction(predicates)
        assert np.array_equal(future.result().value, expected)
        record = future.record
        assert record.host_merge_ns == levels * MERGE_NS_PER_OP
        if levels:
            assert len(record.parts) == 2
            assert record.finish_ns == max(p.finish_ns for p in record.parts) + MERGE_NS_PER_OP


class TestCostModelReference:
    """Session responses price exactly as the QueryEngine cost model does."""

    def test_host_response_matches_cpu_reference(self):
        query_engine = QueryEngine(ambit=_engine())
        column = _random_column(np.random.default_rng(15), 8, 400)
        response = PimSession.over_host(coster=query_engine).range_count(column, 20, 180).result()
        expected, plan = column.scan_range(20, 180)
        reference = query_engine.execute_scan(
            expected, plan, column.num_rows, ScanBackend.CPU
        )
        assert response.matching_rows == reference.matching_rows
        assert response.latency_ns == pytest.approx(reference.latency_ns)
        assert response.energy_j == pytest.approx(reference.energy_j)

    def test_service_scan_ns_matches_ambit_scan_cost(self):
        rng = np.random.default_rng(17)
        query_engine = QueryEngine(ambit=_engine())
        session = PimSession.over_service(engine=query_engine.ambit, coster=query_engine)
        scans = [(_random_column(rng), "less_than", (c,)) for c in (5, 20, 40)]
        futures = [session.scan(column, kind, *cs) for column, kind, cs in scans]
        for (column, kind, constants), future in zip(scans, futures):
            response = future.result()
            expected, plan = column.scan(kind, *constants)
            assert response.matching_rows == BitmapIndex.count(expected, column.num_rows)
            sequential = query_engine.ambit_scan_cost(plan)
            assert response.breakdown["scan_ns"] == pytest.approx(sequential.latency_ns)
        assert session.report().details.pipeline_speedup >= 1.0


class TestTimeValidation:
    """Non-finite or negative times fail at the API boundary, before any
    record is appended or any clock moves."""

    BACKENDS = {
        "service": lambda: ServiceFrontend(engine=_engine()),
        "cluster": lambda: ClusterFrontend(num_shards=2, engine_factory=lambda: _engine()),
        "host": lambda: HostBackend(),
    }
    bad_times = pytest.mark.parametrize(
        "bad",
        [
            pytest.param({"arrival_ns": float("nan")}, id="arrival=nan"),
            pytest.param({"arrival_ns": float("inf")}, id="arrival=inf"),
            pytest.param({"arrival_ns": -1.0}, id="arrival=-1"),
            pytest.param({"deadline_ns": float("nan")}, id="deadline=nan"),
        ],
    )

    @bad_times
    @pytest.mark.parametrize("tier", sorted(BACKENDS))
    def test_offer_rejects_bad_times_and_leaves_backend_untouched(self, tier, bad):
        backend = self.BACKENDS[tier]()
        column = _random_column(np.random.default_rng(23))
        request = ScanRequest(column=column, kind="less_than", constants=(5,))
        backend.offer(request, arrival_ns=100.0)  # queued (or served) work to disturb
        clock, records = backend.clock_ns, backend._seq
        with pytest.raises(ValueError):
            backend.offer(request, **bad)
        assert backend.clock_ns == clock
        assert backend._seq == records

    @bad_times
    @pytest.mark.parametrize("tier", sorted(BACKENDS))
    def test_session_submit_inherits_the_check(self, tier, bad):
        session = PimSession(self.BACKENDS[tier]())
        column = _random_column(np.random.default_rng(24))
        good = session.scan(column, "less_than", 5, at_ns=100.0)
        clock, records = session.backend.clock_ns, session.backend._seq
        kwargs = {("at_ns" if key == "arrival_ns" else key): value for key, value in bad.items()}
        with pytest.raises(ValueError):
            session.scan(column, "less_than", 5, **kwargs)
        # Not even the pre-arrival advance ran: the queued request is
        # still queued, and the window's percentiles stay finite.
        assert session.backend.clock_ns == clock
        assert session.backend._seq == records
        assert len(session.futures) == 1
        assert good.result().completed
        assert np.isfinite(session.report().sojourn_p99_ns)

    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_an_arrival_behind_the_clock_is_served_from_its_stamp(self, tier):
        """Legal on purpose (``checked_arrival``): a barrier executor's
        clock overshoots the stamps it serves.  The request queues at the
        live clock, which never moves back, and waits from its stamp."""
        session = PimSession(self.BACKENDS[tier]())
        index = _bitmap_index(np.random.default_rng(25))
        session.conjunction(index, [("region", (1, 2))], at_ns=5000.0)
        session.drain()
        clock = session.clock_ns
        assert clock > 5000.0
        response = session.conjunction(index, [("status", (1,))], at_ns=10.0).result()
        assert response.completed and response.arrival_ns == 10.0
        assert response.start_ns >= clock and session.clock_ns >= clock
        assert response.wait_ns == response.start_ns - 10.0

    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_a_deadline_before_its_arrival_is_admitted_and_reported_missed(self, tier):
        """Legal on purpose (``checked_arrival``): admitted, served, and
        counted as a miss in the response and the report."""
        session = PimSession(self.BACKENDS[tier]())
        index = _bitmap_index(np.random.default_rng(27))
        predicates = [("region", (1, 2)), ("status", (0,))]
        response = session.conjunction(index, predicates, at_ns=1000.0, deadline_ns=500.0).result()
        expected, _ = index.evaluate_conjunction(predicates)
        assert response.completed and response.deadline_missed
        assert np.array_equal(response.value, expected)
        assert session.report().deadline_misses == 1

    @pytest.mark.parametrize("window_ns", [-1.0, float("nan")])
    def test_batch_policy_rejects_a_negative_window(self, window_ns):
        with pytest.raises(ValueError):
            BatchPolicy(window_ns=window_ns)
        assert BatchPolicy(window_ns=0.0).window_ns == 0.0


def test_session_report_exposes_every_shared_metric_field():
    """Every tier's metrics are QueueMetrics, and its whole surface —
    dataclass fields and derived rates — reads straight off a
    SessionReport, which also survives copy and pickle (an unguarded
    ``__getattr__`` delegate would recurse there)."""
    surface = {f.name for f in dataclasses.fields(QueueMetrics)} | {
        "rejection_rate",
        "deadline_miss_rate",
        "pipeline_speedup",
    }
    assert surface >= set(PlanCounts().plan_counts())  # inherited, still delegated
    column = _random_column(np.random.default_rng(25))
    for session in (_service_session(), _cluster_session(2), PimSession.over_host()):
        session.scan(column, "less_than", 9).result()
        report = session.report()
        assert isinstance(report.details, QueueMetrics)
        assert isinstance(report.details, ClusterMetrics) == (session.tier == "cluster")
        assert report.batches >= 1 and report.pipeline_speedup > 0.0
        for name in surface:
            assert getattr(report, name) == getattr(report.details, name)
        # What only a cluster's metrics have reads off a cluster report the
        # same way, and is no attribute of the other tiers' reports.
        for name in ("failovers", "shard_failures", "copy_ns", "imbalance", "mean_utilization"):
            assert name not in surface
            if session.tier == "cluster":
                assert getattr(report, name) == getattr(report.details, name)
            else:
                with pytest.raises(AttributeError):
                    getattr(report, name)
        with pytest.raises(AttributeError):
            report.no_such_metric
        assert copy.deepcopy(report) == report
        assert pickle.loads(pickle.dumps(report)) == report


class TestRequestBoundary:
    """A malformed request fails where it is built — it can no longer be
    admitted, popped with its batch, and strand the innocent siblings."""

    BACKENDS = TestTimeValidation.BACKENDS

    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_bad_request_never_reaches_the_queue(self, tier):
        rng = np.random.default_rng(26)
        index = _bitmap_index(rng)
        session = PimSession(self.BACKENDS[tier]())
        good = session.conjunction(index, [("region", (1, 2)), ("status", (0,))])
        records = session.backend._seq
        with pytest.raises(KeyError):
            session.conjunction(index, [("region", (1,)), ("nope", (0,))])
        with pytest.raises(ValueError):
            session.update(index.table, index, "region", row_ids=(0, 1), values=(1,))
        assert session.backend._seq == records
        assert len(session.futures) == 1
        expected, _ = index.evaluate_conjunction([("region", (1, 2)), ("status", (0,))])
        assert np.array_equal(good.result().value, expected)
        # A code past the cardinality is a value no row holds yet: served, empty.
        absent = session.submit(
            BitmapConjunctionRequest(index=index, predicates=(("region", (99,)),))
        )
        assert absent.result().matching_rows == 0

    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_bad_row_ids_are_refused_before_anything_moves(self, tier):
        """An out-of-range (or duplicated) row id used to be admitted and
        then strand its batch at lowering (service) or half-commit the
        scattered write (cluster); it is a typed error at ``submit``."""
        rng = np.random.default_rng(29)
        index = _bitmap_index(rng)
        table = index.table
        predicates = [("region", (1, 2)), ("status", (0,))]
        expected, _ = index.evaluate_conjunction(predicates)
        codes = {name: column.copy() for name, column in table.columns.items()}
        session = PimSession(self.BACKENDS[tier]())
        backend = session.backend
        shards = backend.shards if tier == "cluster" else [backend]
        first = session.conjunction(index, predicates)
        before = (
            backend._seq,
            [shard.queue_depth for shard in shards],
            [shard._seq for shard in shards],
            backend.clock_ns,
        )
        with pytest.raises(ValueError, match="row_ids must be in"):
            session.update(table, index, "region", [999999], [1])
        with pytest.raises(ValueError, match="unique"):
            session.update(table, index, "region", [3, 3], [1, 2])
        with pytest.raises(ValueError, match="row_ids must be in"):
            session.delete(table, index, [-1])
        with pytest.raises(TypeError):
            session.delete(table, index, [0.5])
        assert before == (
            backend._seq,
            [shard.queue_depth for shard in shards],
            [shard._seq for shard in shards],
            backend.clock_ns,
        )
        assert len(session.futures) == 1
        assert table.num_rows == 400
        for name, column in table.columns.items():
            assert np.array_equal(column, codes[name])
        second = session.conjunction(index, predicates)
        session.drain()
        for future in (first, second):
            assert future.status == "completed"
            assert np.array_equal(future.result().value, expected)
        # A well-formed write over the same backend still goes through.
        assert session.update(table, index, "region", [3, 4], [1, 2]).result().value == 2

    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_duplicate_row_ids_in_a_delete_are_refused_before_anything_moves(self, tier):
        """``delete(t, idx, [1, 1, 2])`` used to complete with value 2 while
        admission priced three rows of maintenance traffic; a delete's row
        ids are unique, as an update's are, and it is a typed error at
        ``submit``."""
        index = _bitmap_index(np.random.default_rng(33))
        table = index.table
        predicates = [("region", (1, 2)), ("status", (0,))]
        expected, _ = index.evaluate_conjunction(predicates)
        session = PimSession(self.BACKENDS[tier]())
        backend = session.backend
        shards = backend.shards if tier == "cluster" else [backend]
        first = session.conjunction(index, predicates)

        def state():
            return (
                backend._seq,
                [shard.queue_depth for shard in shards],
                [shard._seq for shard in shards],
                backend.clock_ns,
                table.num_rows,
            )

        before = state()
        with pytest.raises(ValueError, match="unique within one write"):
            session.delete(table, index, [1, 1, 2])
        assert state() == before
        assert len(session.futures) == 1
        assert np.array_equal(first.result().value, expected)
        assert session.delete(table, index, [1, 2]).result().value == 2
        assert table.num_rows == 398

    def test_a_delete_request_refuses_duplicate_row_ids_itself(self):
        """The check each tier's door runs (``check_row_ids``), on the
        request alone: no backend, and the table untouched."""
        index = _bitmap_index(np.random.default_rng(34))
        table = index.table
        codes = {name: column.copy() for name, column in table.columns.items()}
        request = DeleteRequest(table=table, index=index, row_ids=(1, 1, 2))
        with pytest.raises(ValueError, match="unique within one write"):
            check_row_ids(request)
        assert table.num_rows == 400
        for name, column in table.columns.items():
            assert np.array_equal(column, codes[name])

    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_bad_write_values_are_refused_before_anything_moves(self, tier):
        """A negative or fractional code used to pass ``submit`` (only the
        row ids were checked) and raise from the table mutator inside
        ``lower_batch``, after the batch was popped: the write and a
        conjunction closed into the same batch stayed admitted with no
        finish time.  The values get the mutators' typed errors at the
        door."""
        rng = np.random.default_rng(31)
        index = _bitmap_index(rng)
        table = index.table
        predicates = [("region", (1, 2)), ("status", (0,))]
        expected, _ = index.evaluate_conjunction(predicates)
        codes = {name: column.copy() for name, column in table.columns.items()}
        session = PimSession(self.BACKENDS[tier]())
        backend = session.backend
        shards = backend.shards if tier == "cluster" else [backend]
        first = session.conjunction(index, predicates)
        before = (
            backend._seq,
            [shard.queue_depth for shard in shards],
            [shard._seq for shard in shards],
            backend.clock_ns,
        )
        with pytest.raises(ValueError, match="non-negative"):
            session.update(table, index, "region", [3], [-1])
        with pytest.raises(TypeError, match="integers"):
            session.update(table, index, "region", [3, 4], [1.5, 2.0])
        with pytest.raises(KeyError, match="no column"):
            session.update(table, index, "nope", [3], [1])
        whole = {name: [0] for name in table.columns}
        with pytest.raises(ValueError, match="non-negative"):
            session.append(table, index, {**whole, "region": [-1]})
        with pytest.raises(TypeError, match="integers"):
            session.append(table, index, {**whole, "region": [0.5]})
        with pytest.raises(ValueError, match="equal lengths"):
            session.append(table, index, {**whole, "region": [0, 1]})
        with pytest.raises(ValueError, match="cover exactly"):
            session.append(table, index, {"region": [0]})
        assert before == (
            backend._seq,
            [shard.queue_depth for shard in shards],
            [shard._seq for shard in shards],
            backend.clock_ns,
        )
        assert len(session.futures) == 1 and table.num_rows == 400
        for name, column in table.columns.items():
            assert np.array_equal(column, codes[name])
        session.drain()
        assert first.status == "completed"
        assert np.array_equal(first.result().value, expected)
        assert session.append(table, index, whole).result().value == 1

    @pytest.mark.parametrize("tier", sorted(BACKENDS))
    def test_bad_scan_or_priority_is_refused_before_anything_moves(self, tier):
        """A scan constant the column cannot hold, ``between`` with low >
        high, or a priority that is not an int used to pass ``submit`` and
        raise inside ``offer`` — from the admission latency model or the
        queue order — after the envelope was recorded: an admitted record
        in no terminal state on every tier.  Each is refused at the door."""
        rng = np.random.default_rng(35)
        column = _random_column(rng)  # 6 bits
        index = _bitmap_index(rng)
        session = PimSession(self.BACKENDS[tier]())
        backend = session.backend
        shards = backend.shards if tier == "cluster" else [backend]
        first = session.scan(column, "less_than", 9, at_ns=50.0)

        def state():
            return (
                backend._seq,
                [shard._seq for shard in shards],
                backend.clock_ns,
                len(session.futures),
            )

        before = state()
        for constant in (999, 64, -3):
            with pytest.raises(ValueError, match="does not fit in 6 bits"):
                session.scan(column, "less_than", constant, at_ns=500.0)
        for constant in (2.5, True, "7", None):
            with pytest.raises(TypeError, match="scan constants must be ints"):
                session.scan(column, "equal", constant, at_ns=500.0)
        with pytest.raises(ValueError, match="low must be <= high"):
            session.range_count(column, 9, 3, at_ns=500.0)
        predicates = [("region", (1, 2)), ("status", (0,))]
        for priority in ("hi", True, float("nan"), 1.0, None):
            with pytest.raises(TypeError, match="priority must be an int"):
                session.conjunction(index, predicates, priority=priority, at_ns=500.0)
            with pytest.raises(TypeError, match="priority must be an int"):
                backend.offer(first.request, priority=priority, arrival_ns=500.0)
        assert state() == before
        second = session.scan(column, "less_equal", 63, priority=np.int64(2), at_ns=600.0)
        third = session.range_count(column, 5, 5, at_ns=700.0)
        session.drain()
        for future, (kind, constants) in zip(
            (first, second, third),
            (("less_than", (9,)), ("less_equal", (63,)), ("between", (5, 5))),
        ):
            assert future.status == "completed"
            assert np.array_equal(future.result().value, column.scan(kind, *constants)[0])

    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_a_refused_arrival_event_moves_nothing(self, tier):
        """Replaying a stream used to let the backend serve up to the
        event's arrival before ``offer`` refused its priority: a batch
        closed and the clock moved for a request that was never recorded."""
        column = _random_column(np.random.default_rng(37))
        config = PipelineConfig(policy=BatchPolicy(max_batch=16, window_ns=1000.0))
        backend = (
            ClusterFrontend(2, config, engine_factory=_engine)
            if tier == "cluster"
            else ServiceFrontend(config, engine=_engine())
        )
        shards = backend.shards if tier == "cluster" else [backend]
        backend.offer(ScanRequest(column, "less_than", (9,)), arrival_ns=0.0)

        def state():
            return backend.clock_ns, backend._seq, [len(s.batches) for s in shards]

        before = state()
        bad = ArrivalEvent(ScanRequest(column, "less_than", (9,)), 5.0e6, priority="hi")
        with pytest.raises(TypeError, match="priority must be an int"):
            PimSession(backend).submit_stream([bad])
        assert state() == before

    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_out_of_cardinality_write_keeps_table_and_index_one(self, tier):
        """A code at or past a column's cardinality is dictionary growth:
        the write is served, the cardinality widens, and every indexed
        column's bitmaps still partition the rows exactly as the table's
        codes do — eager, lazy and hybrid alike, on both tiers."""
        for maintenance in ("eager", "lazy", "hybrid"):
            index = _bitmap_index(np.random.default_rng(36))
            table = index.table
            session = (
                PimSession.over_cluster(2, maintenance=maintenance)
                if tier == "cluster"
                else PimSession.over_service(maintenance=maintenance)
            )
            updated = session.update(table, index, "status", [3, 7], [7, 4])
            appended = session.append(table, index, {"region": [11], "status": [2], "tier": [5]})
            assert (updated.result().value, appended.result().value) == (2, 1)
            assert table.cardinalities == {"region": 12, "status": 8, "tier": 6}
            rows = table.num_rows
            for column in index.indexed_columns():
                codes = table.column(column)
                covered = np.zeros(rows, dtype=np.int64)
                for value in range(table.cardinalities[column]):
                    bits = np.unpackbits(index.bitmap(column, value), bitorder="little")[:rows]
                    assert np.array_equal(bits.astype(bool), codes == value), (column, value)
                    covered += bits
                assert (covered == 1).all(), column
            grown = session.conjunction(index, [("status", (7,)), ("region", (11,))])
            assert grown.result().matching_rows == int(
                ((table.column("status") == 7) & (table.column("region") == 11)).sum()
            )

    @pytest.mark.parametrize("tier", ["host", "service"])
    def test_a_code_a_queued_write_adds_is_a_value_no_row_holds_yet(self, tier):
        """A conjunction on a code past the column's cardinality used to
        raise ``KeyError`` at construction, though a write queued ahead of
        it adds the code: in submission order the value exists.  It is
        built, answers 0 rows when lowered before the write and 1 after
        it.  (The host tier serves no writes: its write is the table's.)"""
        index = _bitmap_index(np.random.default_rng(39))
        table = index.table
        session = PimSession(self.BACKENDS[tier]())
        assert table.cardinalities["status"] == 4
        before = session.conjunction(index, [("status", [7])])
        if tier == "host":
            assert before.result().matching_rows == 0
            table.update_rows("status", [3], [7])
            index.refresh_columns(["status"])
        else:
            session.update(table, index, "status", [3], [7])
        after = session.conjunction(index, [("status", [7])])
        session.drain()
        assert (before.result().matching_rows, after.result().matching_rows) == (0, 1)
        assert 7 in index.bitmaps["status"] and table.cardinalities["status"] == 8

    def test_an_absent_code_reads_as_one_shared_empty_plane(self):
        index = _bitmap_index(np.random.default_rng(40))
        view = index.shard_view(["status"])
        plane = index.bitmap("status", 4)
        assert plane is index.bitmap("status", 99) is view.bitmap("status", 5)
        assert plane.size == (index.num_rows + 7) // 8 and not plane.any()
        assert not plane.flags.writeable and 4 not in index.bitmaps["status"]
        for column, value in (("status", -1), ("nope", 0)):
            with pytest.raises(KeyError):
                index.bitmap(column, value)

    @pytest.mark.parametrize("tier", sorted(BACKENDS))
    def test_a_malformed_predicate_value_is_refused_before_anything_moves(self, tier):
        """A bool predicate value used to be served as the code 0 or 1, and
        a float as the code it equals.  A value that is not a non-bool int
        is a ``TypeError``, a negative one a ``ValueError``, both at
        construction: nothing is recorded and no clock moves."""
        index = _bitmap_index(np.random.default_rng(41))
        session = PimSession(self.BACKENDS[tier]())
        backend = session.backend
        shards = backend.shards if tier == "cluster" else [backend]
        first = session.conjunction(index, [("region", (1,))], at_ns=50.0)

        def state():
            return (
                backend._seq,
                [shard._seq for shard in shards],
                backend.clock_ns,
                len(session.futures),
            )

        before = state()
        for value in (True, False, 1.0, np.float64(2.0), 2.5, "1", None):
            with pytest.raises(TypeError, match="must be an int"):
                session.conjunction(index, [("region", (1, value))], at_ns=500.0)
        for value in (-1, np.int64(-2)):
            with pytest.raises(ValueError, match="must not be negative"):
                session.conjunction(index, [("status", (value,))], at_ns=500.0)
        assert state() == before
        second = session.conjunction(index, [("region", (np.int64(2), 3))], at_ns=600.0)
        session.drain()
        for future, values in ((first, (1,)), (second, (2, 3))):
            expected, _ = index.evaluate_conjunction([("region", values)])
            assert np.array_equal(future.result().value, expected)

    def test_normalized_predicates_are_kept_as_given(self):
        """A tuple of ``(str, non-empty tuple)`` pairs is the request's own
        ``predicates``; anything looser is rebuilt into one."""
        index = _bitmap_index(np.random.default_rng(42))
        given = (("region", (1, 2)), ("status", (0,)))
        assert BitmapConjunctionRequest(index=index, predicates=given).predicates is given
        for loose in (
            [("region", (1, 2)), ("status", (0,))],
            (["region", (1, 2)], ("status", (0,))),
            (("region", (1, 2)), ("status", [0])),
            (("region", (1, 2)), ("status", (v for v in (0,)))),
        ):
            built = BitmapConjunctionRequest(index=index, predicates=loose).predicates
            assert built == given and built is not loose
            assert all(type(pair) is tuple and type(pair[1]) is tuple for pair in built)

    @pytest.mark.parametrize("tier", sorted(BACKENDS))
    def test_unservable_request_type_is_refused_before_anything_moves(self, tier):
        """A request the backend cannot serve used to raise from the latency
        model *after* ``offer`` recorded the envelope and lifted the clock:
        a record in no terminal state on every tier (and a stranded shard
        part on the cluster).  It is the same ``TypeError`` at the door."""
        session = PimSession(self.BACKENDS[tier]())
        backend = session.backend
        shards = backend.shards if tier == "cluster" else [backend]
        column = _random_column(np.random.default_rng(33))
        first = session.scan(column, "less_than", 9, at_ns=50.0)
        before = (
            backend._seq,
            [shard._seq for shard in shards],
            backend.clock_ns,
            len(session.futures),
        )
        # The host serves scans and conjunctions only; no tier serves this.
        unservable = [object()] + ([CopyRequest(num_bytes=8192)] if tier == "host" else [])
        for work in unservable:
            match = "host backend serves" if tier == "host" else "unknown request type object"
            with pytest.raises(TypeError, match=match):
                session.submit(work, at_ns=500.0)
            with pytest.raises(TypeError, match=match):
                backend.offer(work, arrival_ns=500.0)
        assert before == (
            backend._seq,
            [shard._seq for shard in shards],
            backend.clock_ns,
            len(session.futures),
        )
        second = session.scan(column, "less_than", 9, at_ns=600.0)
        session.drain()
        expected, _ = column.scan("less_than", 9)
        for future in (first, second):
            assert np.array_equal(future.result().value, expected)
        metrics = session.report()
        assert (metrics.offered, metrics.admitted, metrics.rejected, metrics.completed) == (
            2, 2, 0, 2,
        )
        assert backend._seq == 2  # the refused direct offers recorded nothing

    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_dependencies_and_chains_are_planner_internal(self, tier):
        """A lowered chain is the planner's own primitive: a client handing
        one in is refused at the door, before anything is recorded or any
        clock moves, and the requests around it are served."""
        rng = np.random.default_rng(34)
        session = PimSession(self.BACKENDS[tier]())
        backend = session.backend
        shards = backend.shards if tier == "cluster" else [backend]
        vectors = [BulkBitVector(512, 64) for _ in range(3)]
        for vector in vectors:
            vector.data[:] = rng.integers(0, 256, size=vector.storage_bytes, dtype=np.uint8)
        good = [
            session.submit(BulkOpRequest("or", vectors[0], vectors[1], bank_offset=1), at_ns=0.0),
            session.submit(BulkOpRequest("and", vectors[1], vectors[2], bank_offset=1), at_ns=0.0),
        ]
        before = (backend._seq, [s._seq for s in shards], backend.clock_ns)
        chain = BoundChain([("or", vectors[0], vectors[1], vectors[2])], 1, (), (), (), 1)
        with pytest.raises(TypeError, match="unknown request type BoundChain"):
            session.submit(chain, at_ns=0.0)
        with pytest.raises(TypeError, match="unknown request type BoundChain"):
            backend.offer(chain, arrival_ns=0.0)
        assert before == (backend._seq, [s._seq for s in shards], backend.clock_ns)
        session.drain()
        expected = (vectors[0].data | vectors[1].data, vectors[1].data & vectors[2].data)
        for future, bits in zip(good, expected):
            assert future.status == "completed"
            assert np.array_equal(future.result().value.data, bits)
        lanes = [shard.executor.lane_metrics() for shard in shards]
        assert sum(metrics.requests for metrics in lanes) == backend._seq

    @pytest.mark.parametrize(
        "copy, error",
        [
            pytest.param(CopyRequest(num_bytes=-5), ValueError, id="bytes=-5"),
            pytest.param(CopyRequest(num_bytes="8"), TypeError, id="bytes=str"),
            pytest.param(CopyRequest(num_bytes=2.5), TypeError, id="bytes=float"),
            pytest.param(CopyRequest(num_bytes=True), TypeError, id="bytes=bool"),
            pytest.param(CopyRequest(num_bytes=8, mode="fpm"), TypeError, id="mode=str"),
            pytest.param(CopyRequest(num_bytes=None), TypeError, id="bytes=None"),
            pytest.param(CopyRequest(num_bytes=np.float64(8.0)), TypeError, id="bytes=float64"),
            pytest.param(CopyRequest(num_bytes=8, mode=None), TypeError, id="mode=None"),
            pytest.param(CopyRequest(num_bytes=8, mode=0), TypeError, id="mode=int"),
        ],
    )
    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_bad_copy_is_refused_before_anything_is_recorded(self, tier, copy, error):
        """A copy RowClone cannot price is refused at the door with a typed
        error, before an envelope is recorded or the clock moves: raising
        inside ``offer`` would strand an admitted envelope in no terminal
        state.  A zero-byte copy (``add_replica`` can offer one) is served."""
        session = PimSession(self.BACKENDS[tier]())
        backend = session.backend
        shards = backend.shards if tier == "cluster" else [backend]
        before = (backend._seq, [s._seq for s in shards], backend.clock_ns)
        with pytest.raises(error, match="CopyRequest"):
            session.submit(copy, at_ns=100.0)
        with pytest.raises(error, match="CopyRequest"):
            backend.offer(copy, arrival_ns=100.0)
        assert before == (backend._seq, [s._seq for s in shards], backend.clock_ns)
        zero = session.submit(CopyRequest(num_bytes=np.int64(0)), at_ns=100.0)
        session.drain()
        assert zero.status == "completed"

    @pytest.mark.parametrize(
        "copy",
        [
            pytest.param(CopyRequest(num_bytes=8192), id="fpm"),
            pytest.param(CopyRequest(num_bytes=8192, mode=CopyMode.INTER_SUBARRAY), id="lisa"),
            pytest.param(CopyRequest(num_bytes=8192, mode=CopyMode.PSM), id="psm"),
            pytest.param(CopyRequest(num_bytes=8192, fill=True), id="fill"),
            pytest.param(CopyRequest(num_bytes=0), id="bytes=0"),
            pytest.param(CopyRequest(num_bytes=np.int64(8192)), id="bytes=int64"),
        ],
    )
    @pytest.mark.parametrize("tier", ["cluster", "service"])
    def test_good_copy_is_served_at_its_rowclone_price(self, tier, copy):
        """The door refuses only what RowClone cannot price: every mode, a
        fill, a zero-byte copy and a NumPy integer size are admitted and
        charged exactly the engine's ``bulk_copy`` / ``bulk_fill`` cost."""
        session = PimSession(self.BACKENDS[tier]())
        backend = session.backend
        future = session.submit(copy, at_ns=100.0)
        session.drain()
        response = future.result()
        assert (response.status, response.kind, response.value) == ("completed", "request", None)
        shards = backend.shards if tier == "cluster" else [backend]
        rowclone = shards[0].executor.rowclone
        if copy.fill:
            expected = rowclone.bulk_fill(copy.num_bytes)
        else:
            expected = rowclone.bulk_copy(copy.num_bytes, copy.mode)
        assert response.latency_ns == expected.latency_ns
        assert response.energy_j == expected.energy_j
        assert response.finish_ns - response.start_ns == pytest.approx(expected.latency_ns)
        assert session.report().completed == 1

    def test_validation_never_repairs_a_dirty_column(self):
        """The probe is side-effect free: building a request over a
        lazily-dirty column leaves the rebuild (and its charge) to the
        batch that first reads it."""
        index = _bitmap_index(np.random.default_rng(27))
        index.mark_dirty(["region"])
        BitmapConjunctionRequest(index=index, predicates=(("region", (1, 7)),))
        BitmapConjunctionRequest(
            index=index.shard_view(["region"]), predicates=(("region", (0,)),)
        )
        assert index.dirty_columns() == ["region"]
        assert index.rebuilds == 0


def test_cluster_details_sum_cache_counters_over_the_parts():
    """A scattered record's details report the per-part sums, whether the
    record completed or was rejected after its parts were served."""
    index = _bitmap_index(np.random.default_rng(28))
    cluster = ClusterFrontend(
        num_shards=3,
        config=PipelineConfig(cache=True),
        router=ShardRouter(3, strategy="range"),
        engine_factory=lambda: _engine(),
    )
    cluster.router.register_names(index.indexed_columns())
    session = PimSession(cluster)
    predicates = [("region", (1, 2)), ("status", (0, 1)), ("tier", (0,))]
    first = session.conjunction(index, predicates)
    first.result()
    second = session.conjunction(index, predicates)
    for future in (first, second):
        details = future.result().details
        parts = future.record.parts
        assert len(parts) == 3
        assert details.cache_hits == sum(p.cache_hits for p in parts)
        assert details.cache_misses == sum(p.cache_misses for p in parts)
    assert first.result().details.cache_misses > 0
    assert second.result().details.cache_hits > 0
    # A served scatter that a late shed sinks keeps its parts' counters.
    third = session.conjunction(index, predicates)
    session.drain()
    record = third.record
    record.admitted, record.rejected_reason = False, "shed"
    rejected = third.response()
    assert rejected.status == "rejected"
    assert rejected.details.cache_hits == sum(p.cache_hits for p in record.parts) > 0
    assert rejected.details.cache_misses == sum(p.cache_misses for p in record.parts)


# ----------------------------------------------------------------------
# One PipelineConfig: the same knob vocabulary on both tiers
# ----------------------------------------------------------------------
#: A non-default value for every knob.  Keyed by field name, so a new
#: ``PipelineConfig`` field fails ``test_every_knob_has_a_probe_value``
#: until it is exercised here on both tiers.
KNOB_VALUES = {
    "policy": BatchPolicy(max_batch=5),
    "max_queue_depth": 7,
    "max_backlog_ns": 1e6,
    "shed_low_priority": True,
    "functional": True,
    "pipeline": False,
    "sanitize": True,
    "optimize": True,
    "cache": ResultCache(),
    "maintenance": MaintenancePolicy("lazy"),
}
KNOB_NAMES = [f.name for f in dataclasses.fields(PipelineConfig)]


class TestPipelineConfig:
    def test_every_knob_has_a_probe_value(self):
        assert sorted(KNOB_VALUES) == sorted(KNOB_NAMES)

    @pytest.mark.parametrize("knob", KNOB_NAMES)
    def test_both_tiers_accept_every_knob(self, knob):
        value = KNOB_VALUES[knob]
        default = getattr(PipelineConfig(), knob)
        service = PimSession.over_service(engine=_engine(), **{knob: value}).backend
        cluster = PimSession.over_cluster(
            num_shards=2, engine_factory=_engine, **{knob: value}
        ).backend
        for config in (service.config, cluster.config):
            assert getattr(config, knob) == value != default
        assert all(shard.config is cluster.config for shard in cluster.shards)

    def test_knobs_reach_the_stage_that_consumes_them(self):
        knobs = dict(KNOB_VALUES)
        service = PimSession.over_service(engine=_engine(), **knobs).backend
        cluster = PimSession.over_cluster(num_shards=2, engine_factory=_engine, **knobs).backend
        for frontend in [service, *cluster.shards]:
            executor, planner = frontend.executor, frontend.planner
            assert (executor.pipeline, executor.sanitize) == (False, True)
            assert planner.policy is knobs["policy"]
            assert planner.optimizer is not None
            assert planner.maintenance is knobs["maintenance"]
            assert frontend.cache is planner.result_cache is knobs["cache"]
            assert (frontend.max_queue_depth, frontend.max_backlog_ns) == (7, 1e6)
            assert frontend.functional and frontend.shed_low_priority

    def test_sanitize_on_the_service_tier_certifies_dispatches(self):
        """``over_service(sanitize=True)`` used to be a TypeError naming
        ``ServiceFrontend.__init__``; now the race detector is live."""
        rng = np.random.default_rng(30)
        session = PimSession.over_service(engine=_engine(), sanitize=True)
        session.scan(_random_column(rng), "less_than", 9).result()
        session.backend.executor.lanes.busy_union_ns += 11.0  # cook the books
        session.scan(_random_column(rng), "less_than", 9)
        with pytest.raises(VerifyError):
            session.drain()

    def test_loose_spellings(self):
        default = PipelineConfig()
        assert PipelineConfig.from_knobs() == default
        assert PipelineConfig.from_knobs(
            policy=None, optimize=False, cache=None, maintenance=None, max_backlog_ns=None
        ) == default
        assert PipelineConfig.from_knobs(optimize=True).optimize is True
        assert PipelineConfig.from_knobs(maintenance="hybrid").maintenance == "hybrid"
        # ``optimizer=`` is not a knob: the switch is the bool ``optimize``.
        with pytest.raises(TypeError, match="unknown pipeline knob.*optimizer") as caught:
            PipelineConfig.from_knobs(optimizer=True)
        assert all(name in str(caught.value) for name in KNOB_NAMES)

    def test_cache_without_optimizer_turns_on_the_optimizer(self):
        assert PipelineConfig(cache=True).optimize is True
        assert PipelineConfig(cache=ResultCache()).optimize is True
        assert PipelineConfig(cache=True, optimize=True).optimize is True
        assert PipelineConfig().optimize is False
        # ... the one optimizer: ``cache=True`` serves a stream record for
        # record like ``cache=True, optimize=True`` (sub-chains split over
        # lanes, per-predicate consults), across batches that hit.
        index = _bitmap_index(np.random.default_rng(31))
        templates = [
            (("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (0, 2))),
            (("status", (1, 0)), ("region", (3, 1, 2))),
            (("tier", (1,)), ("region", (5, 6))),
        ]
        requests = [
            BitmapConjunctionRequest(index=index, predicates=templates[d])
            for d in (0, 1, 0, 2, 1, 0, 2, 2, 0, 1)
        ]
        served = []
        for knobs in ({"cache": True}, {"cache": True, "optimize": True}):
            frontend = ServiceFrontend(
                PipelineConfig(policy=BatchPolicy(max_batch=3), sanitize=True, **knobs),
                engine=_engine(),
            )
            records = [frontend.offer(request) for request in requests]
            frontend.drain()
            served.append([record for record in records if record.completed])
        implicit, explicit = served
        assert len(implicit) == len(explicit) == len(requests)
        assert sum(record.cache_hits for record in explicit) > 0
        assert sum(record.host_merge_ns for record in explicit) > 0
        for a, b in zip(implicit, explicit):
            assert np.array_equal(a.value, b.value)
            assert (a.start_ns, a.finish_ns, a.host_merge_ns) == (
                b.start_ns, b.finish_ns, b.host_merge_ns
            )
            assert (a.cache_hits, a.cache_misses, a.ops_eliminated, a.shared_subchains) == (
                b.cache_hits, b.cache_misses, b.ops_eliminated, b.shared_subchains
            )
            assert a.metrics == b.metrics

    @pytest.mark.parametrize(
        "bad",
        [
            {"cache": None},
            {"cache": 0},
            {"cache": "no"},
            {"pipeline": "no"},
            {"optimize": 1},
            {"shed_low_priority": None},
            {"functional": "yes"},
            {"sanitize": 0},
        ],
        ids=lambda bad: "{}={!r}".format(*next(iter(bad.items()))),
    )
    def test_switch_knobs_take_only_their_types(self, bad):
        """``cache=None`` / ``cache=0`` used to turn the optimizer on with no
        cache, ``cache="no"`` to build a cache and ``pipeline="no"`` to
        pipeline: a truthy stand-in flipped the switch silently."""
        with pytest.raises(TypeError, match=next(iter(bad))):
            PipelineConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_backlog_ns": -5.0},
            {"max_backlog_ns": float("nan")},
            {"max_backlog_ns": float("inf")},
            {"max_queue_depth": 0},
            {"maintenance": "write-through"},
        ],
        ids=lambda bad: "{}={}".format(*next(iter(bad.items()))),
    )
    def test_bad_knob_values_fail_at_construction(self, bad):
        """``max_backlog_ns=-5.0`` used to build and then reject every
        request as ``bank_occupancy``."""
        with pytest.raises(ValueError):
            PimSession.over_service(engine=_engine(), **bad)
        with pytest.raises(ValueError):
            PimSession.over_cluster(num_shards=2, engine_factory=_engine, **bad)

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: BatchPolicy(max_batch=True), "max_batch"),
            (lambda: BatchPolicy(window_ns=True), "window_ns"),
            (lambda: BatchPolicy(window_ns="5"), "window_ns"),
            (lambda: BatchPolicy(max_batch="32"), "max_batch"),
            (lambda: PipelineConfig(max_queue_depth=True), "max_queue_depth"),
            (lambda: PipelineConfig(max_backlog_ns=True), "max_backlog_ns"),
            (lambda: PipelineConfig(max_backlog_ns="1e6"), "max_backlog_ns"),
        ],
        ids=[
            "batch-True", "window-True", "window-str", "batch-str",
            "depth-True", "backlog-True", "backlog-str",
        ],
    )
    def test_numeric_knobs_refuse_bools_and_non_numbers(self, build, field):
        """``max_batch=True`` used to batch one request, ``window_ns=True``
        to open a 1 ns window and ``max_backlog_ns=True`` to bound
        occupancy at 1 ns; ``window_ns="5"`` died with a bare
        ``'>=' not supported``."""
        with pytest.raises(TypeError, match=field):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: BatchPolicy(window_ns=float("nan")),
            lambda: BatchPolicy(max_batch=2.5),
            lambda: PipelineConfig(max_queue_depth=2.5),
        ],
        ids=["window-nan", "batch-2.5", "depth-2.5"],
    )
    def test_nan_and_fractional_knobs_fail_at_construction(self, build):
        """NaN passes any ``< 0.0`` guard and then stamps NaN clocks: a
        request it reaches never completes, or completes with a NaN
        sojourn."""
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize(
        "knobs",
        [{"window_ns": -1.0}, {"max_batch": 0}],
        ids=lambda knobs: "{}={}".format(*next(iter(knobs.items()))),
    )
    def test_out_of_range_policy_fails_at_construction(self, knobs):
        """A negative window would close every batch on arrival, and a
        zero cap would close empty batches."""
        with pytest.raises(ValueError):
            BatchPolicy(**knobs)

    def test_unknown_knob_names_the_valid_ones(self):
        for build in (PimSession.over_service, PimSession.over_cluster):
            with pytest.raises(TypeError, match="unknown pipeline knob.*sanitise") as caught:
                build(sanitise=True)
            assert all(name in str(caught.value) for name in KNOB_NAMES)
            assert "__init__" not in str(caught.value)

    def test_joined_shard_is_built_from_the_cluster_config(self):
        cluster = PimSession.over_cluster(
            num_shards=2, engine_factory=_engine, pipeline=False, sanitize=True, cache=True
        ).backend
        joined = cluster.shards[cluster.join_shard()]
        assert joined.config is cluster.config
        assert (joined.executor.pipeline, joined.executor.sanitize) == (False, True)
        assert joined.planner.maintenance is cluster.maintenance
        assert joined.cache is not None
        assert all(joined.cache is not shard.cache for shard in cluster.shards[:2])

    def test_cache_true_is_per_shard_and_an_instance_is_shared(self):
        own = PimSession.over_cluster(num_shards=3, engine_factory=_engine, cache=True).backend
        caches = [shard.cache for shard in own.shards]
        assert all(isinstance(cache, ResultCache) for cache in caches)
        assert len({id(cache) for cache in caches}) == 3
        shared = ResultCache()
        one = PimSession.over_cluster(num_shards=3, engine_factory=_engine, cache=shared).backend
        assert all(shard.cache is shared for shard in one.shards)

    def test_a_reused_config_shares_no_live_state(self):
        config = PipelineConfig(cache=True, maintenance="hybrid")
        first = ServiceFrontend(config, engine=_engine())
        second = ServiceFrontend(config, engine=_engine())
        assert first.cache is not second.cache
        assert first.planner.maintenance is not second.planner.maintenance
        first.planner.maintenance.note_read(["region"] * 8)
        assert first.planner.maintenance.is_hot("region")
        assert not second.planner.maintenance.is_hot("region")
        clusters = [ClusterFrontend(2, config, engine_factory=_engine) for _ in range(2)]
        assert clusters[0].maintenance is not clusters[1].maintenance
        for cluster in clusters:
            # ...while one cluster's coordinator and shards share theirs.
            assert all(s.planner.maintenance is cluster.maintenance for s in cluster.shards)
        assert config.maintenance == "hybrid" and config.cache is True
