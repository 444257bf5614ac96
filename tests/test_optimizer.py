"""Tests for the batch plan optimizer (cross-request CSE, sub-chain
splitting, horizon-priced urgency).

The optimizer rewrites closed batches between planner and executor, so
the load-bearing properties are:

* **bit-exactness** — optimized lowering computes the identical result
  bitmaps as per-request lowering and host evaluation, across seeded
  repetition-heavy workloads, every optimizer knob combination, both
  pipeline modes, and both the service and the cluster tier, all under
  ``sanitize=True``;
* **the cost ledger balances** — ``ops_eliminated`` is exactly the
  unoptimized plan total net of owned steps and host joins, per request
  and in every roll-up (envelope, batch, queue metrics, session report);
* **the DAG is certifiable** — the extended plan linter accepts every
  optimizer-built batch and rejects hand-built DAGs with dangling shared
  outputs, double-consumed steps, cycles, or drifted cost ledgers;
* **dependency-aware scheduling** — lowered steps carrying ``after``
  never start before their producers finish, even across lanes;
* **horizon urgency** — deadline closing priced off lane busy horizons
  dispatches an endangered request in time where "now"-priced urgency
  misses it under deep pipelining.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api.session import PimSession
from repro.cluster import ClusterFrontend, ShardRouter
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.optimizer import BatchOptimizer, OptimizerConfig, canonical_key, predicate_key
from repro.optimizer.canonical import ConjunctionShape, sort_token
from repro.service import (
    ArrivalEvent,
    BatchExecutor,
    BatchPolicy,
    BitmapConjunctionRequest,
    BulkOpRequest,
    PipelineConfig,
    ServiceFrontend,
)
from repro.service.requests import QueuedRequest
from repro.verify import (
    ChainCycleError,
    CostModelMismatchError,
    DanglingOperandError,
    OptimizedRequestView,
    lint_optimized_batch,
)

ROWS = 500
ROW_SIZE = 64


def _device(banks: int = 4) -> DramDevice:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=banks,
        subarrays_per_bank=2,
        rows_per_subarray=32,
        row_size_bytes=ROW_SIZE,
    )
    return DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )


def _engine(banks: int = 4) -> AmbitEngine:
    return AmbitEngine(
        _device(banks), AmbitConfig(banks_parallel=banks, vectorized_functional=True)
    )


def _build_index(seed: int = 3) -> BitmapIndex:
    rng = np.random.default_rng(seed)
    table = ColumnTable("orders", ROWS)
    table.add_column("region", rng.integers(0, 8, size=ROWS), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=ROWS), cardinality=4)
    table.add_column("channel", rng.integers(0, 4, size=ROWS), cardinality=4)
    return BitmapIndex(table, ["region", "status", "channel"])


INDEX = _build_index()

#: Conjunction templates covering reorderings (0 and 1 are the same
#: conjunction), value-permuted predicates, a wide 3-column shape, and a
#: single-bitmap identity.
TEMPLATES = [
    (("region", (1, 2)), ("status", (0,))),
    (("status", (0,)), ("region", (2, 1))),
    (("region", (3, 0, 5)), ("status", (1, 2)), ("channel", (0,))),
    (("channel", (1,)),),
    (("region", (1, 2)), ("channel", (0, 2)), ("status", (0,))),
]


def _requests(draws):
    return [
        BitmapConjunctionRequest(index=INDEX, predicates=TEMPLATES[d]) for d in draws
    ]


def _serve(requests, optimize, pipeline=True, banks=4, max_batch=4, policy=None):
    frontend = ServiceFrontend(
        PipelineConfig.from_knobs(
            pipeline=pipeline,
            sanitize=True,
            policy=policy or BatchPolicy(max_batch=max_batch, window_ns=None),
            max_queue_depth=1000,
            optimize=optimize,
        ),
        engine=_engine(banks),
    )
    for request in requests:
        frontend.offer(request)
    frontend.drain()
    return frontend, frontend.result()


# ----------------------------------------------------------------------
# Canonical keys
# ----------------------------------------------------------------------
class TestCanonicalKeys:
    def test_predicate_key_sorts_the_value_multiset(self):
        assert predicate_key(INDEX, "region", (2, 1)) == predicate_key(
            INDEX, "region", (1, 2)
        )
        # The multiset is preserved: a duplicated value is not collapsed,
        # so the unoptimized cost model of the chain stays intact.
        assert predicate_key(INDEX, "region", (1, 1, 2)) != predicate_key(
            INDEX, "region", (1, 2)
        )

    def test_predicate_key_is_scoped_by_source(self):
        other = _build_index(seed=4)
        assert predicate_key(INDEX, "region", (1,)) != predicate_key(
            other, "region", (1,)
        )

    def test_commutative_ops_sort_operands(self):
        a = predicate_key(INDEX, "region", (1,))
        b = predicate_key(INDEX, "status", (0,))
        assert canonical_key("and", (a, b)) == canonical_key("and", (b, a))
        assert canonical_key("or", (a, b)) == canonical_key("or", (b, a))

    def test_fused_double_not_collapses(self):
        a = predicate_key(INDEX, "region", (1,))
        assert canonical_key("not", (canonical_key("not", (a,)),)) == a
        assert canonical_key("not", (a,)) != a


# ----------------------------------------------------------------------
# Property: optimized lowering is bit-exact on the service tier
# ----------------------------------------------------------------------
    @pytest.mark.parametrize("template", range(len(TEMPLATES)))
    def test_an_interned_shape_keys_exactly_as_the_per_request_derivation(self, template):
        """``ConjunctionShape`` orders and keys once per template what
        ``predicate_key`` / ``sort_token`` / ``canonical_key`` derive per
        request — for any source, though the shape itself names none."""
        predicates = TEMPLATES[template]
        shape = ConjunctionShape.of(predicates, ROWS, ROW_SIZE)
        for index in (INDEX, _build_index(seed=4)):
            keyed = sorted(
                (predicate_key(index, column, values) for column, values in predicates),
                key=sort_token,
            )
            parts, whole = shape.keys(index)
            assert list(parts) == keyed
            assert whole == canonical_key("and", keyed)
        assert [column for column, _values in shape.predicates] == [key[2] for key in keyed]
        assert shape.plan_total == sum(len(v) - 1 for _c, v in predicates) + len(predicates) - 1
        assert shape.columns == tuple(frozenset((key[2],)) for key in keyed)
        assert shape.prefix_columns[-1] == frozenset(c for c, _v in predicates)
        assert shape.dep_columns == tuple(sorted({c for c, _v in predicates}))
        packed = (ROWS + 7) // 8
        assert (shape.packed_bytes, shape.rows) == (packed, -(-packed // ROW_SIZE))


class TestBitExactness:
    @settings(max_examples=12, deadline=None)
    @given(
        draws=st.lists(st.integers(0, len(TEMPLATES) - 1), min_size=3, max_size=10),
        pipeline=st.booleans(),
        cse=st.booleans(),
        split=st.booleans(),
    )
    def test_service_tier_matches_unoptimized_and_host(
        self, draws, pipeline, cse, split
    ):
        requests = _requests(draws)
        config = OptimizerConfig(cse=cse, split_subchains=split)
        _, base = _serve(requests, optimize=False, pipeline=pipeline)
        _, opt = _serve(requests, optimize=config, pipeline=pipeline)
        assert base.metrics.completed == opt.metrics.completed == len(draws)
        for b, o in zip(base.completed(), opt.completed()):
            expected, _ = INDEX.evaluate_conjunction(list(b.request.predicates))
            assert np.array_equal(b.value, expected)
            assert np.array_equal(o.value, expected)
            assert o.ops_eliminated >= 0
            assert o.shared_subchains >= 0
        # Elimination only ever removes work, never adds it.
        assert opt.metrics.energy_j <= base.metrics.energy_j * (1 + 1e-9)

    @settings(max_examples=8, deadline=None)
    @given(
        draws=st.lists(st.integers(0, len(TEMPLATES) - 1), min_size=3, max_size=8),
        shards=st.integers(1, 3),
    )
    def test_cluster_tier_matches_host(self, draws, shards):
        cluster = ClusterFrontend(
            num_shards=shards,
            config=PipelineConfig.from_knobs(
                policy=BatchPolicy(max_batch=3),
                max_queue_depth=1000,
                sanitize=True,
                optimize=True,
            ),
            router=ShardRouter(shards),
            engine_factory=lambda: _engine(),
        )
        events = [
            ArrivalEvent(request=r, arrival_ns=float(i) * 50.0)
            for i, r in enumerate(_requests(draws))
        ]
        result = cluster.run(events, name="cluster")
        assert result.metrics.completed == len(draws)
        for record in result.completed():
            expected, _ = INDEX.evaluate_conjunction(list(record.request.predicates))
            assert np.array_equal(record.value, expected)
        assert result.metrics.ops_eliminated >= 0


# ----------------------------------------------------------------------
# CSE accounting
# ----------------------------------------------------------------------
class TestCseAccounting:
    def test_duplicate_requests_share_and_balance_the_ledger(self):
        # Two copies of the same conjunction (one value-permuted) plus a
        # distinct one, all in a single batch: the duplicates' chains run
        # once, the copies are charged zero device ops.
        requests = _requests([0, 1, 2])
        frontend, result = _serve(
            requests, optimize=OptimizerConfig(split_subchains=False), max_batch=4
        )
        first, copy, other = result.completed()
        plan_total = sum(len(v) - 1 for _, v in TEMPLATES[0]) + len(TEMPLATES[0]) - 1
        assert first.ops_eliminated == 0
        assert copy.ops_eliminated == plan_total
        assert copy.shared_subchains > 0
        assert result.metrics.ops_eliminated == plan_total
        assert result.metrics.shared_subchains == (
            copy.shared_subchains + other.shared_subchains
        )
        batch = frontend.batches[0]
        assert batch.ops_eliminated == plan_total
        assert batch.shared_subchains == result.metrics.shared_subchains
        # A fully shared request is attributed zero-cost metrics.
        assert copy.metrics.latency_ns == 0.0
        assert copy.metrics.energy_j == 0.0

    def test_optimizer_lint_accepts_its_own_batches(self):
        executor = BatchExecutor(engine=_engine(), sanitize=True)
        optimizer = BatchOptimizer(OptimizerConfig(split_subchains=False))
        optimizer.open_batch(executor)
        primitives = []
        for request in _requests([0, 1, 2]):
            optimizer.lower_conjunction(QueuedRequest(request=request), primitives)
        report = optimizer.lint_batch(row_size_bytes=ROW_SIZE)
        assert report.requests == 3
        assert report.steps == len(primitives)
        assert report.ops_eliminated > 0
        assert report.shared_steps > 0

    def test_sharing_never_crosses_batches(self):
        # Identical requests in *different* batches share nothing: the
        # CSE cache is batch-scoped (result vectors only live while their
        # batch executes).
        requests = _requests([0, 0])
        _, result = _serve(requests, optimize=True, max_batch=1)
        assert result.metrics.ops_eliminated == 0
        assert result.metrics.shared_subchains == 0

    def test_session_report_exposes_the_counters(self):
        session = PimSession(
            ServiceFrontend(
                PipelineConfig.from_knobs(
                    sanitize=True,
                    policy=BatchPolicy(max_batch=4, window_ns=None),
                    max_queue_depth=1000,
                    optimize=True,
                ),
                engine=_engine(),
            ),
            name="optimizer_session",
        )
        events = [
            ArrivalEvent(request=r, arrival_ns=0.0) for r in _requests([0, 1, 0])
        ]
        session.submit_stream(events)
        session.drain()
        report = session.report()
        assert report.ops_eliminated > 0
        assert report.shared_subchains > 0
        assert report.host_merge_ns >= 0.0


# ----------------------------------------------------------------------
# Sub-chain splitting
# ----------------------------------------------------------------------
class TestSubchainSplitting:
    def test_split_overlaps_one_request_with_itself(self):
        # One wide conjunction, alone in its batch: unsplit it serializes
        # its whole chain on one bank set; split, its three predicate
        # sub-chains run on distinct lanes and host-join afterwards.
        request = _requests([2])[0]
        _, serial = _serve(
            [request], optimize=OptimizerConfig(cse=False, split_subchains=False)
        )
        _, split = _serve(
            [request], optimize=OptimizerConfig(cse=False, split_subchains=True)
        )
        (serial_q,) = serial.completed()
        (split_q,) = split.completed()
        expected, _ = INDEX.evaluate_conjunction(list(request.predicates))
        assert np.array_equal(split_q.value, expected)
        # Host joins are charged like the cluster gather tree: 3 parts
        # merge pairwise in ceil(log2(3)) = 2 levels.
        assert split_q.host_merge_ns == pytest.approx(2 * 250.0)
        assert serial_q.host_merge_ns == 0.0
        # The split request's in-service time beats the serialized chain
        # even after paying for the host merge.
        split_service = split_q.finish_ns - split_q.start_ns
        serial_service = serial_q.finish_ns - serial_q.start_ns
        assert split_service < serial_service

    def test_split_mode_unpins_conjunction_admission(self):
        frontend = ServiceFrontend(
            PipelineConfig.from_knobs(sanitize=True, optimize=True),
            engine=_engine(),
        )
        assert frontend.planner.modeled_banks(_requests([0])[0]) == []
        unsplit = ServiceFrontend(
            PipelineConfig.from_knobs(
                sanitize=True,
                optimize=OptimizerConfig(split_subchains=False),
            ),
            engine=_engine(),
        )
        assert unsplit.planner.modeled_banks(_requests([0])[0]) != []

    def test_max_split_lanes_bounds_the_fanout(self):
        with pytest.raises(ValueError):
            OptimizerConfig(max_split_lanes=0)
        with pytest.raises(ValueError):
            OptimizerConfig(merge_ns_per_op=-1.0)
        # max_split_lanes=1 degenerates to the stable offset: every
        # emitted step lands on one bank set.
        executor = BatchExecutor(engine=_engine(), sanitize=True)
        optimizer = BatchOptimizer(OptimizerConfig(cse=False, max_split_lanes=1))
        optimizer.open_batch(executor)
        primitives = []
        optimizer.lower_conjunction(
            QueuedRequest(request=_requests([2])[0]), primitives
        )
        offsets = {p.bank_offset for p in primitives}
        assert len(offsets) == 1


# ----------------------------------------------------------------------
# Dependency-aware executor scheduling
# ----------------------------------------------------------------------
class TestAfterDependencies:
    def _bulk(self, rng, after=(), offset=0):
        a = BulkBitVector(ROWS, ROW_SIZE)
        b = BulkBitVector(ROWS, ROW_SIZE)
        a.data[:] = rng.integers(0, 256, size=a.data.size, dtype=np.uint8)
        b.data[:] = rng.integers(0, 256, size=b.data.size, dtype=np.uint8)
        out = BulkBitVector(ROWS, ROW_SIZE)
        return BulkOpRequest(op="or", a=a, b=b, out=out, bank_offset=offset, after=after)

    def test_consumers_start_after_their_producers(self):
        rng = np.random.default_rng(0)
        executor = BatchExecutor(engine=_engine(), sanitize=True)
        producer = self._bulk(rng, offset=0)
        consumer = self._bulk(rng, after=(0,), offset=1)  # different lane
        batch = executor.run([producer, consumer])
        first, second = batch.results
        assert second.start_ns >= first.start_ns + first.metrics.latency_ns - 1e-9

    def test_forward_references_are_rejected(self):
        rng = np.random.default_rng(0)
        executor = BatchExecutor(engine=_engine(), sanitize=True)
        with pytest.raises(ValueError, match="earlier primitive"):
            executor.run([self._bulk(rng, after=(1,)), self._bulk(rng)])

    def test_deps_disable_lpt_reordering(self):
        rng = np.random.default_rng(0)
        executor = BatchExecutor(engine=_engine(), sanitize=True)
        # Without deps LPT would move the heavier second request first;
        # with a dep present, submission order is preserved.
        light = self._bulk(rng, offset=0)
        heavy = BulkOpRequest(
            op="or",
            a=BulkBitVector(4 * ROWS, ROW_SIZE),
            b=BulkBitVector(4 * ROWS, ROW_SIZE),
            out=BulkBitVector(4 * ROWS, ROW_SIZE),
            bank_offset=0,
            after=(0,),
        )
        batch = executor.run([light, heavy])
        first, second = batch.results
        assert first.request is light
        assert second.start_ns >= first.start_ns + first.metrics.latency_ns - 1e-9


# ----------------------------------------------------------------------
# Extended plan linter
# ----------------------------------------------------------------------
def _vec():
    return BulkBitVector(ROWS, ROW_SIZE)


def _view(**kwargs):
    defaults = dict(
        predicates=(("region", (1, 2)),),
        num_rows=ROWS,
        plan_total=1,
        own_indices=(0,),
        dep_indices=(),
        part_vectors=(),
        host_join_ops=0,
        ops_eliminated=0,
        shared_subchains=0,
    )
    defaults.update(kwargs)
    return OptimizedRequestView(**defaults)


class TestOptimizedBatchLint:
    def test_clean_shared_dag_passes(self):
        s1, s2 = _vec(), _vec()
        out = _vec()
        steps = {0: ("or", s1, s2, out)}
        owner = _view(part_vectors=(out,))
        sharer = _view(
            own_indices=(),
            dep_indices=(0,),
            part_vectors=(out,),
            ops_eliminated=1,
            shared_subchains=1,
        )
        report = lint_optimized_batch(steps, [owner, sharer], row_size_bytes=ROW_SIZE)
        assert report.steps == 1
        assert report.shared_steps == 1
        assert report.ops_eliminated == 1

    def test_dangling_shared_output_is_rejected(self):
        s1, s2 = _vec(), _vec()
        out = _vec()
        steps = {0: ("or", s1, s2, out)}
        owner = _view(part_vectors=(out,))
        dangling = _view(
            own_indices=(), dep_indices=(3,), part_vectors=(out,), ops_eliminated=1
        )
        with pytest.raises(DanglingOperandError, match="no request in the batch"):
            lint_optimized_batch(steps, [owner, dangling], row_size_bytes=ROW_SIZE)

    def test_double_consume_is_rejected(self):
        s1, s2 = _vec(), _vec()
        out = _vec()
        steps = {0: ("or", s1, s2, out)}
        double = _view(own_indices=(0,), dep_indices=(0,), part_vectors=(out,))
        with pytest.raises(DanglingOperandError, match="both owns and depends"):
            lint_optimized_batch(steps, [double], row_size_bytes=ROW_SIZE)

    def test_double_owned_step_is_rejected(self):
        s1, s2 = _vec(), _vec()
        out = _vec()
        steps = {0: ("or", s1, s2, out)}
        a = _view(part_vectors=(out,))
        b = _view(part_vectors=(out,), ops_eliminated=0)
        with pytest.raises(DanglingOperandError, match="owned by both"):
            lint_optimized_batch(steps, [a, b], row_size_bytes=ROW_SIZE)

    def test_unowned_steps_are_rejected(self):
        s1, s2 = _vec(), _vec()
        o1, o2 = _vec(), _vec()
        steps = {0: ("or", s1, s2, o1), 1: ("or", s1, s2, o2)}
        owner = _view(part_vectors=(o1,))
        with pytest.raises(DanglingOperandError, match="charged to no request"):
            lint_optimized_batch(steps, [owner], row_size_bytes=ROW_SIZE)

    def test_cross_request_cycles_are_rejected(self):
        s1, s2 = _vec(), _vec()
        o1, o2 = _vec(), _vec()
        # Step 0 consumes step 1's output: produced-before-consumed is
        # violated across the request boundary.
        steps = {0: ("or", o2, s1, o1), 1: ("or", s1, s2, o2)}
        a = _view(own_indices=(0,), dep_indices=(1,), part_vectors=(o1,), plan_total=1)
        b = _view(own_indices=(1,), part_vectors=(o2,))
        with pytest.raises(ChainCycleError, match="has not executed yet"):
            lint_optimized_batch(steps, [a, b], row_size_bytes=ROW_SIZE)

    def test_cost_ledger_drift_is_rejected(self):
        s1, s2 = _vec(), _vec()
        out = _vec()
        steps = {0: ("or", s1, s2, out)}
        drifted = _view(part_vectors=(out,), ops_eliminated=2)
        with pytest.raises(CostModelMismatchError, match="does not balance"):
            lint_optimized_batch(steps, [drifted], row_size_bytes=ROW_SIZE)

    def test_host_join_mismatch_is_rejected(self):
        s1, s2 = _vec(), _vec()
        out = _vec()
        steps = {0: ("or", s1, s2, out)}
        wrong = _view(part_vectors=(out,), host_join_ops=1)
        with pytest.raises(CostModelMismatchError, match="host"):
            lint_optimized_batch(steps, [wrong], row_size_bytes=ROW_SIZE)


# ----------------------------------------------------------------------
# Horizon-priced urgency
# ----------------------------------------------------------------------
class TestHorizonUrgency:
    def _arena(self, horizon_urgency):
        policy = BatchPolicy(max_batch=8, window_ns=None, horizon_urgency=horizon_urgency)
        frontend = ServiceFrontend(
            PipelineConfig(policy=policy, max_queue_depth=100, sanitize=True),
            engine=_engine(),
        )
        executor = frontend.executor
        # Preload bank 0's lanes: an in-flight chunk occupies them until H.
        heavy = BulkOpRequest(
            op="or",
            a=BulkBitVector(8 * ROW_SIZE * 8, ROW_SIZE),
            b=BulkBitVector(8 * ROW_SIZE * 8, ROW_SIZE),
            out=BulkBitVector(8 * ROW_SIZE * 8, ROW_SIZE),
            bank_offset=0,
        )
        executor.run([heavy])
        horizon = executor.ready_ns()
        assert horizon > 0.0
        policy.urgency_slack_ns = horizon / 4.0
        return frontend, horizon

    def _run_race(self, horizon_urgency):
        frontend, horizon = self._arena(horizon_urgency)
        rng = np.random.default_rng(1)

        def bulk(rows, offset):
            a = BulkBitVector(rows, ROW_SIZE)
            b = BulkBitVector(rows, ROW_SIZE)
            out = BulkBitVector(rows, ROW_SIZE)
            return BulkOpRequest(op="or", a=a, b=b, out=out, bank_offset=offset)

        urgent = bulk(ROWS, 0)
        modeled = frontend.planner.modeled_latency_ns(urgent)
        # The deadline is exactly savable: service must start the moment
        # the preloaded lane drains (latest viable start == the horizon).
        deadline = horizon + modeled
        competitor = bulk(ROWS * 8, 0)
        events = [
            ArrivalEvent(request=urgent, arrival_ns=0.0, deadline_ns=deadline),
            ArrivalEvent(request=competitor, arrival_ns=horizon / 8.0),
        ]
        result = frontend.run(events, name="urgency")
        return result.records[0]

    def test_horizon_urgency_saves_the_deadline(self):
        # Horizon-priced closing sees that the endangered request's lane
        # is busy until its latest viable start and dispatches it alone,
        # ahead of the heavier competitor: the deadline holds.
        record = self._run_race(horizon_urgency=True)
        assert record.completed
        assert not record.deadline_missed

    def test_now_priced_urgency_misses_it(self):
        # "Now"-priced urgency sleeps until deadline-minus-slack, by
        # which time the competitor has joined the batch and is LPT'd
        # ahead on the same lane: the deadline is missed.
        record = self._run_race(horizon_urgency=False)
        assert record.completed
        assert record.deadline_missed
