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
    HostBackend,
    HostDetails,
    PimSession,
    RequestRejected,
    ServiceDetails,
    lower_conjunction_steps,
)
from repro.api.plans import CompiledChain
from repro.cache import ResultCache
from repro.cluster import ClusterFrontend, ShardRouter
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.queries import QueryEngine, ScanBackend
from repro.database.sharding import BitmapIndexShardView
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
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
from repro.service.planner import CHAIN_INTERN_CAPACITY
from repro.optimizer import OptimizerConfig
from repro.storage import MaintenancePolicy, UpdateRequest
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
        assert frontend.result().metrics.completed == 5
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
        total = frontend.busy_ns
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
        assert outcome.result.metrics.completed == outcome.delivered


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
        session and the GC-tracked objects the run left per request."""
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
        return session, (len(gc.get_objects()) - before) / count

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
        assert session.report().busy_ns == pytest.approx(frontend.busy_ns)

    def test_retained_objects_per_request_are_flat(self):
        _, short = self._serve(1000)
        _, long = self._serve(2000)
        assert long == pytest.approx(short, rel=0.10)


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
        with pytest.raises(KeyError):  # value with no bitmap
            BitmapConjunctionRequest(index=index, predicates=(("region", (0, 10**6)),))
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
            return planner._priced_chain(BitmapConjunctionRequest(source, predicates)).chain

        chain = planner._priced_chain(as_lists).chain
        assert planner._priced_chain(as_tuples).chain is chain
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
            planner._priced_chain(
                BitmapConjunctionRequest(index, [("region", digits), ("status", (i % 4,))])
            )
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
        be what summing the batch's own results gives, bit for bit."""
        index = _bitmap_index(np.random.default_rng(36), rows=1500)
        session = _service_session(policy=BatchPolicy(max_batch=4))
        frontend = session.backend
        for predicates in (
            [("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (2,))],
            [("region", (0, 7)), ("tier", (0, 1))],
            [("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (2,))],
            [("status", (3,))],
        ):
            session.conjunction(index, predicates)
        batch = frontend.serve_batch()
        cursor = 0
        for record in frontend.records:
            steps = sum(len(v) - 1 for _c, v in record.request.predicates) + (
                len(record.request.predicates) - 1
            )
            own = batch.results[cursor: cursor + steps]
            cursor += steps
            assert record.metrics.latency_ns == sum(r.metrics.latency_ns for r in own)
            assert record.metrics.energy_j == sum(r.metrics.energy_j for r in own)
            if own:  # (an identity chain reports the bitmap it hands back)
                assert record.metrics.bytes_produced == sum(r.metrics.bytes_produced for r in own)
        assert cursor == len(batch.results)

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
        assert details.host_merge_ns == pytest.approx(2 * cluster.merge_ns_per_op)
        assert cluster.merge_ns_per_op > 0.0
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

    def test_merge_cost_knob_can_be_disabled(self):
        rng = np.random.default_rng(14)
        index = _bitmap_index(rng)
        cluster = ClusterFrontend(
            num_shards=3,
            router=ShardRouter(3, strategy="range"),
            engine_factory=lambda: _engine(),
            merge_ns_per_op=0.0,
        )
        cluster.router.register_names(index.indexed_columns())
        session = PimSession(cluster)
        future = session.conjunction(
            index, [("region", (1,)), ("status", (0,)), ("tier", (0,))]
        )
        future.result()
        record = future.record
        assert record.host_merge_ns == 0.0
        assert record.finish_ns == pytest.approx(max(p.finish_ns for p in record.parts))
        with pytest.raises(ValueError):
            ClusterFrontend(num_shards=2, engine_factory=lambda: _engine(), merge_ns_per_op=-1.0)


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
        clock, records = backend.clock_ns, len(backend.records)
        with pytest.raises(ValueError):
            backend.offer(request, **bad)
        assert backend.clock_ns == clock
        assert len(backend.records) == records

    @bad_times
    @pytest.mark.parametrize("tier", sorted(BACKENDS))
    def test_session_submit_inherits_the_check(self, tier, bad):
        session = PimSession(self.BACKENDS[tier]())
        column = _random_column(np.random.default_rng(24))
        good = session.scan(column, "less_than", 5, at_ns=100.0)
        clock, records = session.backend.clock_ns, len(session.backend.records)
        kwargs = {("at_ns" if key == "arrival_ns" else key): value for key, value in bad.items()}
        with pytest.raises(ValueError):
            session.scan(column, "less_than", 5, **kwargs)
        # Not even the pre-arrival advance ran: the queued request is
        # still queued, and the window's percentiles stay finite.
        assert session.backend.clock_ns == clock
        assert len(session.backend.records) == records
        assert len(session.futures) == 1
        assert good.result().completed
        assert np.isfinite(session.report().sojourn_p99_ns)

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
        records = len(session.backend.records)
        with pytest.raises(KeyError):
            session.conjunction(index, [("region", (1,)), ("nope", (0,))])
        with pytest.raises(KeyError):
            session.submit(
                BitmapConjunctionRequest(index=index, predicates=(("region", (99,)),))
            )
        with pytest.raises(ValueError):
            session.update(index.table, index, "region", row_ids=(0, 1), values=(1,))
        assert len(session.backend.records) == records
        assert len(session.futures) == 1
        expected, _ = index.evaluate_conjunction([("region", (1, 2)), ("status", (0,))])
        assert np.array_equal(good.result().value, expected)

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
            len(backend.records),
            [shard.queue_depth for shard in shards],
            [len(shard.records) for shard in shards],
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
            len(backend.records),
            [shard.queue_depth for shard in shards],
            [len(shard.records) for shard in shards],
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
            len(backend.records),
            [len(shard.records) for shard in shards],
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
            len(backend.records),
            [len(shard.records) for shard in shards],
            backend.clock_ns,
            len(session.futures),
        )
        second = session.scan(column, "less_than", 9, at_ns=600.0)
        session.drain()
        expected, _ = column.scan("less_than", 9)
        for future in (first, second):
            assert np.array_equal(future.result().value, expected)
        metrics = backend.result().metrics
        assert (metrics.offered, metrics.admitted, metrics.rejected, metrics.completed) == (
            2, 2, 0, 2,
        )

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
    "verify_fraction": 0.5,
    "verify_seed": 3,
    "optimizer": OptimizerConfig(split_subchains=False),
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
            assert (executor.verify_fraction, executor.verify_seed) == (0.5, 3)
            assert planner.policy is knobs["policy"]
            assert planner.optimizer.config is knobs["optimizer"]
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
        assert PipelineConfig.from_knobs(optimize=True).optimizer == OptimizerConfig()
        explicit = OptimizerConfig(cse=False)
        assert PipelineConfig.from_knobs(optimize=explicit).optimizer is explicit
        assert PipelineConfig.from_knobs(optimizer=explicit).optimizer is explicit
        assert PipelineConfig.from_knobs(maintenance="hybrid").maintenance == "hybrid"
        with pytest.raises(TypeError, match="not both"):
            PipelineConfig.from_knobs(optimize=True, optimizer=explicit)

    def test_cache_without_optimizer_turns_on_the_unsplit_one(self):
        assert PipelineConfig(cache=True).optimizer == OptimizerConfig(split_subchains=False)
        assert PipelineConfig(cache=ResultCache()).optimizer.split_subchains is False
        split = OptimizerConfig()
        assert PipelineConfig(cache=True, optimizer=split).optimizer is split
        assert PipelineConfig().optimizer is None

    @pytest.mark.parametrize(
        "bad",
        [
            {"max_backlog_ns": -5.0},
            {"max_backlog_ns": float("nan")},
            {"max_backlog_ns": float("inf")},
            {"max_queue_depth": 0},
            {"verify_fraction": 1.5},
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
        "build",
        [
            lambda: OptimizerConfig(merge_ns_per_op=float("nan")),
            lambda: OptimizerConfig(merge_ns_per_op=float("inf")),
            lambda: PimSession.over_cluster(
                num_shards=3, engine_factory=_engine, merge_ns_per_op=float("nan")
            ),
            lambda: BatchPolicy(urgency_slack_ns=float("nan")),
            lambda: BatchPolicy(max_batch=2.5),
            lambda: PipelineConfig(max_queue_depth=2.5),
        ],
        ids=["optimizer-nan", "optimizer-inf", "cluster-nan", "slack-nan", "batch-2.5", "depth-2.5"],
    )
    def test_nan_and_fractional_knobs_fail_at_construction(self, build):
        """A NaN ``merge_ns_per_op`` passed both ``< 0.0`` guards and then
        stamped NaN finish times: the service tier's conjunction "did not
        complete after drain", the cluster's came back with a NaN sojourn."""
        with pytest.raises(ValueError):
            build()

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
