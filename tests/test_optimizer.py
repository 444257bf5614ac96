"""Tests for the batch plan optimizer (cross-request CSE, sub-chain
splitting).

The optimizer rewrites closed batches between planner and executor, so
the load-bearing properties are:

* **bit-exactness** — optimized lowering computes the identical result
  bitmaps as per-request lowering and host evaluation, across seeded
  repetition-heavy workloads, both pipeline modes, and both the service
  and the cluster tier, all under
  ``sanitize=True``;
* **the cost ledger balances** — ``ops_eliminated`` is exactly the
  unoptimized plan total net of owned steps and host joins, per request
  and in every roll-up (envelope, batch, queue metrics, session report);
* **the DAG is certifiable** — the extended plan linter accepts every
  optimizer-built batch and rejects hand-built DAGs with dangling shared
  outputs, double-consumed steps, cycles, or drifted cost ledgers;
* **sub-chains are runs** — every emitted predicate sub-chain is one
  ``BoundChain``, and a request riding another's sub-chain finishes no
  earlier than that chain's run.
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
from repro.optimizer import predicate_key
from repro.optimizer import passes
from repro.optimizer.canonical import ConjunctionShape, sort_token
from repro.service import (
    ArrivalEvent,
    BatchExecutor,
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ServiceFrontend,
)
from repro.service.config import MERGE_NS_PER_OP
from repro.service.planner import BatchPlanner
from repro.service.requests import BoundChain, QueuedRequest
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
    session = PimSession(frontend)
    futures = [session.submit(request) for request in requests]
    session.drain()
    return frontend, session.report(), [f.record for f in futures if f.record.completed]


def _open_optimizer(executor):
    """The optimizer of a planner over ``executor``, its batch opened."""
    planner = BatchPlanner(executor, PipelineConfig(optimize=True))
    planner.optimizer.open_batch(planner)
    return planner.optimizer


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


# ----------------------------------------------------------------------
# Property: optimized lowering is bit-exact on the service tier
# ----------------------------------------------------------------------
    @pytest.mark.parametrize("template", range(len(TEMPLATES)))
    def test_an_interned_shape_keys_exactly_as_the_per_request_derivation(self, template):
        """``ConjunctionShape`` orders and keys once per template what
        ``predicate_key`` / ``sort_token`` derive per
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
            assert whole == ("and", *keyed)
        assert [column for column, _values in shape.predicates] == [key[2] for key in keyed]
        assert shape.plan_total == sum(len(v) - 1 for _c, v in predicates) + len(predicates) - 1
        assert shape.columns == tuple(frozenset((key[2],)) for key in keyed)
        assert shape.dep_columns == frozenset(c for c, _v in predicates)
        packed = (ROWS + 7) // 8
        assert (shape.packed_bytes, shape.rows) == (packed, -(-packed // ROW_SIZE))


class TestBitExactness:
    @settings(max_examples=12, deadline=None)
    @given(
        draws=st.lists(st.integers(0, len(TEMPLATES) - 1), min_size=3, max_size=10),
        pipeline=st.booleans(),
    )
    def test_service_tier_matches_unoptimized_and_host(self, draws, pipeline):
        requests = _requests(draws)
        _, base, base_done = _serve(requests, optimize=False, pipeline=pipeline)
        _, opt, opt_done = _serve(requests, optimize=True, pipeline=pipeline)
        assert base.completed == opt.completed == len(draws)
        for b, o in zip(base_done, opt_done):
            expected, _ = INDEX.evaluate_conjunction(list(b.request.predicates))
            assert np.array_equal(b.value, expected)
            assert np.array_equal(o.value, expected)
            assert o.ops_eliminated >= 0
            assert o.shared_subchains >= 0
        # Elimination only ever removes work, never adds it.
        assert opt.energy_j <= base.energy_j * (1 + 1e-9)

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
        session = PimSession(cluster, name="cluster")
        futures = session.submit_stream(events)
        session.drain()
        result = session.report()
        assert result.completed == len(draws)
        for future in futures:
            expected, _ = INDEX.evaluate_conjunction(list(future.request.predicates))
            assert np.array_equal(future.record.value, expected)
        assert result.ops_eliminated >= 0


# ----------------------------------------------------------------------
# CSE accounting
# ----------------------------------------------------------------------
class TestCseAccounting:
    def test_duplicate_requests_share_and_balance_the_ledger(self):
        # Two copies of the same conjunction (one value-permuted) plus a
        # distinct one, all in a single batch: the duplicates' chains run
        # once, the copy is charged zero device ops — only the host joins
        # of its parts, which the first pays as well.
        requests = _requests([0, 1, 2])
        frontend, result, (first, copy, other) = _serve(requests, optimize=True, max_batch=4)
        plan_total = sum(len(v) - 1 for _, v in TEMPLATES[0]) + len(TEMPLATES[0]) - 1
        host_joins = len(TEMPLATES[0]) - 1
        assert first.ops_eliminated == 0
        assert copy.ops_eliminated == plan_total - host_joins
        assert copy.host_merge_ns == first.host_merge_ns > 0.0
        assert copy.shared_subchains > 0
        assert result.ops_eliminated == plan_total - host_joins
        assert result.shared_subchains == (
            copy.shared_subchains + other.shared_subchains
        )
        batch = frontend.batches[0]
        assert batch.ops_eliminated == plan_total - host_joins
        assert batch.shared_subchains == result.shared_subchains
        # A fully shared request is attributed zero-cost metrics.
        assert copy.metrics.latency_ns == 0.0
        assert copy.metrics.energy_j == 0.0

    def test_optimizer_lint_accepts_its_own_batches(self):
        optimizer = _open_optimizer(BatchExecutor(engine=_engine(), sanitize=True))
        primitives = []
        for request in _requests([0, 1, 2]):
            optimizer.lower_conjunction(QueuedRequest(request=request), primitives)
        report = optimizer.lint_batch(row_size_bytes=ROW_SIZE)
        assert report.requests == 3
        assert all(isinstance(p, BoundChain) for p in primitives)
        assert report.steps == sum(len(p.steps) for p in primitives) > len(primitives)
        assert report.ops_eliminated > 0
        assert report.shared_steps > 0

    def test_each_predicate_sub_chain_is_one_interned_bound_chain(self):
        # The wide template's region (three values) and status (two)
        # predicates each emit one chain of their OR steps, bound from the
        # planner's interned one-predicate shape; the single channel
        # bitmap is a source and emits nothing.
        executor = BatchExecutor(engine=_engine(), sanitize=True)
        planner = BatchPlanner(executor, PipelineConfig(optimize=True))
        optimizer = planner.optimizer
        optimizer.open_batch(planner)
        request = _requests([2])[0]
        primitives = []
        group = optimizer.lower_conjunction(QueuedRequest(request=request), primitives)
        emitted = [(c, v) for c, v in optimizer.shape(request).predicates if len(v) > 1]
        assert len(primitives) == len(emitted) == 2
        assert group.indices == [0, 1]
        for chain, predicate in zip(primitives, emitted):
            assert isinstance(chain, BoundChain)
            assert chain.prices is planner._priced_chain((predicate,), ROWS).prices
            assert [step[0] for step in chain.steps] == ["or"] * (len(predicate[1]) - 1)
        # The ledger counts steps, not chains: all five plan ops are paid
        # for by three owned steps and two host joins.
        assert (group.ops_eliminated, group.host_join_ops) == (0, 2)
        report = optimizer.lint_batch(row_size_bytes=ROW_SIZE)
        assert report.steps == sum(len(p.steps) for p in primitives) == 3
        # A later batch binds the same interned shapes again.
        optimizer.open_batch(planner)
        again = []
        optimizer.lower_conjunction(QueuedRequest(request=_requests([2])[0]), again)
        assert len(again) == len(primitives)
        assert all(a.prices is b.prices for a, b in zip(again, primitives))

    def test_a_sharer_finishes_no_earlier_than_the_chain_it_reads(self):
        # The second request rides the first's two-step region chain and
        # runs a one-step chain of its own on an idle lane, which ends
        # first: the shared chain's run still bounds its finish.
        first, second = (
            BitmapConjunctionRequest(index=INDEX, predicates=predicates)
            for predicates in (
                (("region", (3, 0, 5)), ("status", (1, 2))),
                (("region", (0, 3, 5)), ("channel", (1, 2))),
            )
        )
        frontend = ServiceFrontend(
            PipelineConfig.from_knobs(
                sanitize=True, policy=BatchPolicy(max_batch=2, window_ns=None), optimize=True
            ),
            engine=_engine(),
        )
        records = [frontend.offer(request) for request in (first, second)]
        batch = frontend.serve_batch()
        (shared,) = [r for r in batch.results if len(r.request.steps) == 2]
        own = batch.results[-1]
        assert own is not shared and own.end_ns < shared.end_ns
        assert records[1].shared_subchains == 1
        assert records[1].finish_ns >= shared.end_ns

    def test_sharing_never_crosses_batches(self):
        # Identical requests in *different* batches share nothing: the
        # CSE cache is batch-scoped (result vectors only live while their
        # batch executes).
        requests = _requests([0, 0])
        _, result, _ = _serve(requests, optimize=True, max_batch=1)
        assert result.ops_eliminated == 0
        assert result.shared_subchains == 0

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
        # One wide conjunction, alone in its batch: the plain path
        # serializes its whole chain on one bank set; the optimizer runs
        # its three predicate sub-chains on distinct lanes and host-joins
        # them afterwards.
        request = _requests([2])[0]
        _, _, (serial_q,) = _serve([request], optimize=False)
        split, split_report, (split_q,) = _serve([request], optimize=True)
        expected, _ = INDEX.evaluate_conjunction(list(request.predicates))
        assert np.array_equal(split_q.value, expected)
        # Host joins are charged like the cluster gather tree: 3 parts
        # merge pairwise in ceil(log2(3)) = 2 levels.
        assert split_q.host_merge_ns == 2 * MERGE_NS_PER_OP
        assert serial_q.host_merge_ns == 0.0
        # The split request's in-service time beats the serialized chain
        # even after paying for the host merge.
        split_service = split_q.finish_ns - split_q.start_ns
        serial_service = serial_q.finish_ns - serial_q.start_ns
        assert split_service < serial_service
        # The stream's makespan runs to the last join, past the executor's
        # lane horizon (where the frontend's clock stops).
        assert split_report.makespan_ns == split_q.finish_ns > split.executor.horizon_ns()

    def test_split_mode_unpins_conjunction_admission(self):
        frontend = ServiceFrontend(
            PipelineConfig.from_knobs(sanitize=True, optimize=True),
            engine=_engine(),
        )
        assert len(frontend.planner.modeled_banks(_requests([0])[0])) == 0
        plain = ServiceFrontend(
            PipelineConfig.from_knobs(sanitize=True, optimize=False),
            engine=_engine(),
        )
        assert plain.planner.modeled_banks(_requests([0])[0]) != []

    def test_max_split_lanes_bounds_the_fanout(self, monkeypatch):
        # One split lane degenerates to the stable offset: every emitted
        # step lands on one bank set.
        monkeypatch.setattr(passes, "MAX_SPLIT_LANES", 1)
        optimizer = _open_optimizer(BatchExecutor(engine=_engine(), sanitize=True))
        primitives = []
        optimizer.lower_conjunction(
            QueuedRequest(request=_requests([2])[0]), primitives
        )
        offsets = {p.bank_offset for p in primitives}
        assert len(offsets) == 1

    def test_split_lanes_stay_within_max_split_lanes(self):
        # Eight banks but seven distinct predicate sub-chains: the split
        # spreads them over the MAX_SPLIT_LANES offsets that start at the
        # index's stable offset, and no further.
        executor = BatchExecutor(engine=_engine(banks=8), sanitize=True)
        optimizer = _open_optimizer(executor)
        primitives = []
        for request in _requests([2, 4, 3]):
            optimizer.lower_conjunction(QueuedRequest(request=request), primitives)
        base = executor.stable_offset(INDEX)
        allowed = {(base + k) % 8 for k in range(passes.MAX_SPLIT_LANES)}
        offsets = {p.bank_offset for p in primitives}
        assert offsets <= allowed
        assert len(offsets) == passes.MAX_SPLIT_LANES < 8


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
