"""Tests for the mutation subsystem (`repro.storage`).

The load-bearing acceptance property: after *any* sequence of appends,
updates, and deletes served through the frontend, every maintenance
strategy — eager, lazy, hybrid — leaves the index bit-exact with a
from-scratch rebuild of the mutated table.  Around it: strategy
resolution and the hybrid hot/cold split, charged write costs visible
in the ledger, the unique-row-id precondition, and the write-plan lint
that certifies each lowered write's charge.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.cluster import ClusterFrontend
from repro.api import PimSession, RequestRejected
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.obs import Observer
from repro.service import (
    BatchExecutor,
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ServiceFrontend,
)
from repro.service.lanes import LaneSchedule
from repro.service.planner import BatchPlanner
from repro.service.requests import BoundChain, BulkOpRequest
from repro.storage import (
    STRATEGIES,
    AppendRequest,
    DeleteRequest,
    MaintenancePolicy,
    UpdateRequest,
    apply_mutation,
    charged_columns,
    check_row_ids,
    is_write_request,
)
from repro.verify import IndexPartitionError, WritePlanError
from repro.verify.plan_lint import lint_index_partition, lint_write_plan

CARDINALITIES = {"region": 6, "status": 4, "tier": 3}


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


def _table_index(rng, rows: int = 240):
    table = ColumnTable("t", rows)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(
            name, rng.integers(0, cardinality, size=rows), cardinality=cardinality
        )
    return table, BitmapIndex(table, list(CARDINALITIES))


def _planner() -> BatchPlanner:
    return BatchPlanner(BatchExecutor(engine=_engine()), PipelineConfig())


def _frontend(maintenance, **kwargs) -> ServiceFrontend:
    kwargs.setdefault("policy", BatchPolicy(max_batch=4, window_ns=None))
    kwargs.setdefault("max_queue_depth", 256)
    session = PimSession.over_service(
        engine=_engine(), sanitize=True, maintenance=maintenance, **kwargs
    )
    return session.backend


def _random_write(rng, table, index):
    """One random mutation valid against the table's *current* rows."""
    kind = rng.choice(("append", "update", "delete"))
    if kind == "append" or table.num_rows < 8:
        count = int(rng.integers(1, 5))
        rows = {
            name: [int(v) for v in rng.integers(0, card, size=count)]
            for name, card in CARDINALITIES.items()
        }
        return AppendRequest(table=table, index=index, rows=rows)
    if kind == "update":
        column = str(rng.choice(list(CARDINALITIES)))
        count = int(rng.integers(1, min(8, table.num_rows)))
        row_ids = rng.choice(table.num_rows, size=count, replace=False)
        values = rng.integers(0, CARDINALITIES[column], size=count)
        return UpdateRequest(
            table=table,
            index=index,
            column=column,
            row_ids=[int(r) for r in row_ids],
            values=[int(v) for v in values],
        )
    count = int(rng.integers(1, min(4, table.num_rows)))
    row_ids = rng.choice(table.num_rows, size=count, replace=False)
    return DeleteRequest(table=table, index=index, row_ids=[int(r) for r in row_ids])


def _random_read(rng, index):
    picked = rng.choice(len(CARDINALITIES), size=2, replace=False)
    predicates = []
    for c in picked:
        name = list(CARDINALITIES)[c]
        values = rng.choice(CARDINALITIES[name], size=2, replace=False)
        predicates.append((name, tuple(int(v) for v in values)))
    return BitmapConjunctionRequest(index=index, predicates=tuple(predicates))


def _assert_rebuild_equivalent(index: BitmapIndex, table: ColumnTable) -> None:
    """The index's planes equal a from-scratch rebuild of the table.

    Reading through :meth:`BitmapIndex.bitmap` repairs lazily-deferred
    dirt first, so this is exactly the user-visible equivalence.
    """
    fresh = BitmapIndex(table, list(CARDINALITIES))
    for column, cardinality in CARDINALITIES.items():
        for value in range(cardinality):
            assert np.array_equal(
                index.bitmap(column, value), fresh.bitmap(column, value)
            ), f"plane {column}={value} diverged from rebuild"


class TestMaintenancePolicy:
    def test_strategy_names_validate(self):
        for strategy in STRATEGIES:
            assert MaintenancePolicy(strategy).strategy == strategy
        with pytest.raises(ValueError):
            MaintenancePolicy("write-through")

    def test_resolve_normalizes(self):
        def resolve_maintenance(maintenance):
            return PipelineConfig.from_knobs(maintenance=maintenance).new_maintenance()

        assert resolve_maintenance(None).strategy == "eager"
        assert resolve_maintenance("lazy").strategy == "lazy"
        policy = MaintenancePolicy("hybrid")
        assert resolve_maintenance(policy) is policy

    def test_hybrid_hot_cold_split_follows_reads(self):
        policy = MaintenancePolicy("hybrid", hot_threshold=2)
        assert policy.column_strategy("region") == "lazy"  # cold until read
        policy.note_read(["region"])
        policy.note_read(["region"])
        assert policy.is_hot("region")
        assert policy.column_strategy("region") == "eager"
        assert policy.column_strategy("status") == "lazy"  # still cold

    def test_estimate_planes_caps_at_cardinality(self):
        rng = np.random.default_rng(0)
        table, index = _table_index(rng)
        policy = MaintenancePolicy("eager")
        update = UpdateRequest(
            table=table, index=index, column="status",
            row_ids=list(range(12)), values=[v % 4 for v in range(12)],
        )
        # clear-old + set-new would be 2 * 4 distinct values = 8 planes,
        # capped at the column's cardinality of 4.
        assert policy.estimate_planes(update, "status") == 4
        append = AppendRequest(table=table, index=index, rows={"region": [0]})
        assert policy.estimate_planes(append, "region") == CARDINALITIES["region"]

    def test_charged_columns_respects_scatter_restriction(self):
        rng = np.random.default_rng(1)
        table, index = _table_index(rng)
        delete = DeleteRequest(table=table, index=index, row_ids=[0])
        assert set(charged_columns(delete)) == set(CARDINALITIES)
        part = DeleteRequest(
            table=table, index=index, row_ids=[0], columns=("status",), apply=False
        )
        assert charged_columns(part) == ("status",)

    def test_unique_row_ids_required(self):
        rng = np.random.default_rng(2)
        table, index = _table_index(rng)
        with pytest.raises(ValueError):
            apply_mutation(
                UpdateRequest(
                    table=table, index=index, column="status",
                    row_ids=[3, 3], values=[1, 2],
                )
            )


class TestRebuildEquivalence:
    """Any write sequence, any strategy: index == from-scratch rebuild."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_strategies_match_rebuild_after_any_write_sequence(self, strategy, seed):
        rng = np.random.default_rng(seed)
        table, index = _table_index(rng, rows=120)
        frontend = _frontend(strategy)
        for _ in range(int(rng.integers(4, 10))):
            if rng.random() < 0.5:
                frontend.offer(_random_write(rng, table, index))
            else:
                frontend.offer(_random_read(rng, index))
            frontend.drain()
        _assert_rebuild_equivalent(index, table)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_batched_writes_match_rebuild(self, strategy):
        """Writes and reads closing in the *same* batch stay equivalent."""
        rng = np.random.default_rng(9)
        table, index = _table_index(rng, rows=120)
        frontend = _frontend(strategy)
        for _ in range(12):
            if rng.random() < 0.5:
                frontend.offer(_random_write(rng, table, index))
            else:
                frontend.offer(_random_read(rng, index))
        frontend.drain()
        _assert_rebuild_equivalent(index, table)


class TestPlaneOwnership:
    """Lowered source operands are zero-copy views of the index planes;
    the index keeps them safe by never mutating a plane in place."""

    @pytest.mark.parametrize("optimize", [False, True])
    def test_same_batch_read_update_read_is_sequentially_consistent(self, optimize):
        rng = np.random.default_rng(21)
        # 512 rows = one whole 64 B device row per plane: the view path.
        table, index = _table_index(rng, rows=512)
        frontend = _frontend("eager", optimize=optimize)
        read = BitmapConjunctionRequest(index=index, predicates=(("status", (0, 1)),))
        before, _ = index.evaluate_conjunction(read.predicates)
        row_ids = tuple(range(0, 512, 2))
        update = UpdateRequest(
            table=table, index=index, column="status",
            row_ids=row_ids, values=(3,) * len(row_ids),
        )
        first = frontend.offer(read)
        frontend.offer(update)
        second = frontend.offer(
            BitmapConjunctionRequest(index=index, predicates=read.predicates)
        )
        frontend.drain()
        assert len(frontend.batches) == 1  # all three closed together
        after, _ = index.evaluate_conjunction(read.predicates)
        assert not np.array_equal(before, after)
        # Lowered before the write, executed after it: still pre-write bits.
        np.testing.assert_array_equal(first.value, before)
        np.testing.assert_array_equal(second.value, after)
        _assert_rebuild_equivalent(index, table)

    @pytest.mark.parametrize("maintenance", ["eager", "lazy"])
    def test_shared_sources_rebind_after_an_in_batch_write(self, maintenance):
        """Reads of one template share their interned shape and, within a
        batch, their source operand vectors — until a write lands between
        them: the later read's ``index.bitmap`` call sees rebound planes
        (copy-on-write under eager maintenance, the rebuild it triggers
        itself under lazy) and binds fresh vectors over post-write bits."""
        rng = np.random.default_rng(23)
        table, index = _table_index(rng, rows=512)
        frontend = _frontend(maintenance, policy=BatchPolicy(max_batch=8, window_ns=None))
        predicates = (("status", (0, 1)), ("region", (2, 3)))
        before, _ = index.evaluate_conjunction(predicates)
        row_ids = tuple(range(0, 512, 2))
        reads = [
            frontend.offer(BitmapConjunctionRequest(index=index, predicates=predicates))
            for _ in range(2)
        ]
        frontend.offer(
            UpdateRequest(
                table=table, index=index, column="status",
                row_ids=row_ids, values=(3,) * len(row_ids),
            )
        )
        reads += [
            frontend.offer(BitmapConjunctionRequest(index=index, predicates=predicates))
            for _ in range(2)
        ]
        planner = frontend.planner
        assert len({
            id(planner._priced_chain(q.request.predicates, index.num_rows).chain) for q in reads
        }) == 1
        rebuilds = index.rebuilds
        batch = frontend.serve_batch()
        assert len(frontend.batches) == 1 and frontend.queue_depth == 0
        assert index.rebuilds == rebuilds + (maintenance == "lazy")
        after, _ = index.evaluate_conjunction(predicates)
        assert not np.array_equal(before, after)
        for read, expected in zip(reads, (before, before, after, after)):
            np.testing.assert_array_equal(read.value, expected)
        # Operand sharing follows plane identity: the two pre-write reads
        # ran over one set of source vectors, the two post-write reads
        # over another for the written column and the same for the other.
        # Each read is one chain primitive; its bound steps are inside it.
        steps = [
            step for r in batch.results if isinstance(r.request, BoundChain)
            for step in r.request.steps
        ]
        producer = {id(out): (a, b) for _op, a, b, out in steps}
        joins = [
            (a, b) for op, a, b, _out in steps
            if op == "and" and {id(a), id(b)} <= set(producer)
        ]
        assert len(joins) == 4  # the reads' AND steps, in lowering order
        status = [producer[id(a)] for a, _b in joins]
        region = [producer[id(b)] for _a, b in joins]
        assert status[0][0] is status[1][0] and status[2][0] is status[3][0]
        assert status[0][0] is not status[2][0] and status[0][1] is not status[2][1]
        assert all(pair[0] is region[0][0] and pair[1] is region[0][1] for pair in region)
        _assert_rebuild_equivalent(index, table)

    def test_apply_update_rebinds_instead_of_mutating(self):
        rng = np.random.default_rng(22)
        table, index = _table_index(rng, rows=512)
        held = {value: index.bitmap("status", value) for value in range(4)}
        snapshot = {value: plane.copy() for value, plane in held.items()}
        frontend = _frontend("eager")
        frontend.offer(
            UpdateRequest(
                table=table, index=index, column="status",
                row_ids=tuple(range(64)), values=(2,) * 64,
            )
        )
        frontend.drain()
        for value, plane in held.items():
            np.testing.assert_array_equal(plane, snapshot[value])
        assert not np.array_equal(index.bitmap("status", 2), snapshot[2])


@st.composite
def _column_update(draw):
    """A column's codes plus one valid update of it: unique row ids of any
    integer dtype, new codes that may equal the old ones or exceed the
    cardinality."""
    cardinality = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 150))
    codes = draw(st.lists(st.integers(0, cardinality - 1), min_size=rows, max_size=rows))
    ids = draw(st.lists(st.integers(0, rows - 1), unique=True, max_size=rows))
    values = draw(
        st.lists(st.integers(0, cardinality + 2), min_size=len(ids), max_size=len(ids))
    )
    dtype = draw(st.sampled_from(["int64", "int32", "uint64"]))
    return cardinality, codes, np.array(ids, dtype=dtype), values


class TestIncrementalUpdate:
    """``BitmapIndex.apply_update`` is a from-scratch rebuild, done as a
    delta: same planes, the charged plane count, and copy-on-write."""

    @settings(max_examples=80, deadline=None)
    @given(case=_column_update())
    # Rows written with their own code (1, 5), codes cleared in one row
    # and set in another (0, 1), a new code (4), several bits per byte.
    @example(
        case=(3, [0, 1, 2, 1, 0, 2, 1, 0, 2, 1], np.array([0, 1, 2, 3, 9, 5]), [1, 1, 4, 0, 2, 2])
    )
    def test_apply_update_equals_a_rebuild(self, case):
        cardinality, codes, ids, values = case
        table = ColumnTable("t", len(codes))
        table.add_column("c", np.array(codes), cardinality=cardinality)
        index = BitmapIndex(table, ["c"])
        held = dict(index.bitmaps["c"])
        snapshot = {value: plane.copy() for value, plane in held.items()}
        new = np.array(values, dtype=np.int64)
        old = table.column("c")[ids]
        table.update_rows("c", ids, new)
        touched = index.apply_update("c", ids, old, new)
        fresh = BitmapIndex(table, ["c"])
        assert index.bitmaps["c"].keys() == fresh.bitmaps["c"].keys()
        for value, plane in fresh.bitmaps["c"].items():
            np.testing.assert_array_equal(index.bitmaps["c"][value], plane)
        changed = old != new
        assert touched == len(set(old[changed].tolist())) + len(set(new[changed].tolist()))
        for value, plane in held.items():
            np.testing.assert_array_equal(plane, snapshot[value])


class TestWriteCosts:
    def test_eager_write_costs_land_in_the_ledger(self):
        rng = np.random.default_rng(3)
        table, index = _table_index(rng)
        frontend = _frontend("eager")
        record = frontend.offer(
            UpdateRequest(
                table=table, index=index, column="status",
                row_ids=[1, 2, 3], values=[0, 1, 2],
            )
        )
        frontend.drain()
        assert record.completed and is_write_request(record.request)
        assert record.value == 3  # rows affected is the response value
        assert record.metrics.latency_ns > 0
        assert record.metrics.energy_j > 0

    def test_lazy_defers_and_the_first_read_repairs(self):
        rng = np.random.default_rng(4)
        table, index = _table_index(rng)
        frontend = _frontend("lazy")
        frontend.offer(
            UpdateRequest(
                table=table, index=index, column="status",
                row_ids=[5], values=[1],
            )
        )
        frontend.drain()
        assert "status" in index.dirty_columns()
        rebuilds_before = index.rebuilds
        frontend.offer(
            BitmapConjunctionRequest(
                index=index, predicates=(("status", (0, 1)), ("region", (0, 1)))
            )
        )
        frontend.drain()
        assert index.dirty_columns() == []
        assert index.rebuilds > rebuilds_before

    def test_append_and_delete_report_rows_affected(self):
        rng = np.random.default_rng(5)
        table, index = _table_index(rng)
        frontend = _frontend("eager")
        append_record = frontend.offer(
            AppendRequest(
                table=table, index=index,
                rows={name: [0, 1] for name in CARDINALITIES},
            )
        )
        delete_record = frontend.offer(DeleteRequest(table=table, index=index, row_ids=[0, 4, 7]))
        frontend.drain()
        assert append_record.completed and delete_record.completed
        assert append_record.value == 2
        assert delete_record.value == 3


def _big_table_index(seed: int, rows: int = 65_536):
    """The table of the shared-plane reproductions (paper device scale)."""
    rng = np.random.default_rng(seed)
    table = ColumnTable("t", rows)
    table.add_column("region", rng.integers(0, 16, size=rows), cardinality=16)
    table.add_column("status", rng.integers(0, 8, size=rows), cardinality=8)
    return table, BitmapIndex(table, ["region", "status"])


class TestHybridHotnessIsThePolicysOwn:
    """Hotness is state the policy owns; the plane only gets a copy.  Each
    case failed while ``MaintenancePolicy`` kept its read counts *in* the
    bound ``MetricsRegistry`` and read them back to decide."""

    @staticmethod
    def _write_after_a_neighbours_reads(plane_a, plane_b):
        _, index_a = _big_table_index(1)
        table_b, index_b = _big_table_index(2)
        a = PimSession.over_service(maintenance="hybrid", observe=plane_a)
        b = PimSession.over_service(maintenance="hybrid", observe=plane_b)
        for _ in range(6):
            a.conjunction(index_a, [("status", (0, 1))])
        a.drain()
        # B never read anything: its own `status` is cold, the write lazy.
        response = b.update(table_b, index_b, "status", [1, 2, 3], [0, 0, 0]).result()
        policy = b.backend.planner.maintenance
        return response.latency_ns, response.energy_j, policy.column_strategy("status")

    def test_a_shared_plane_does_not_share_hotness(self):
        """Two sessions over their own tables share one ``Observer`` (the
        documented ``observe=<Observer>`` use).  With the registry as the
        hotness store, B found A's ``storage.reads.status`` counter,
        maintained eagerly and was charged 1 088.75 ns / 273.49 nJ."""
        own = self._write_after_a_neighbours_reads(True, True)
        plane = Observer()
        shared = self._write_after_a_neighbours_reads(plane, plane)
        assert shared == own
        latency_ns, energy_j, strategy = shared
        assert strategy == "lazy"
        assert latency_ns == pytest.approx(83.75)
        assert energy_j * 1e9 == pytest.approx(19.89, abs=0.005)
        # The display still merges both sessions' reads — it is only a display.
        assert plane.snapshot()["counters"]["storage.reads.status"] == 6.0

    def test_a_late_bound_plane_keeps_the_hotness(self):
        """``PimSession(backend, observe=True)`` binds a fresh plane as
        documented; the policy used to swap its hotness store for the
        empty registry and go cold again."""
        _, index = _big_table_index(1)
        session = PimSession.over_service(maintenance="hybrid")
        for _ in range(6):
            session.conjunction(index, [("status", (0, 1))])
        session.drain()
        policy = session.backend.planner.maintenance
        assert policy.reads_of("status") == 6 and policy.column_strategy("status") == "eager"
        late = PimSession(session.backend, observe=True)
        assert policy.reads_of("status") == 6 and policy.column_strategy("status") == "eager"
        # From the bind on, the plane shows what happens from the bind on.
        late.conjunction(index, [("status", (0, 1))]).result()
        assert policy.reads_of("status") == 7
        assert late.report().obs["counters"]["storage.reads.status"] == 1.0

    def test_recorded_read_counters_equal_the_policys(self):
        rng = np.random.default_rng(9)
        table, index = _table_index(rng)
        session = PimSession.over_service(
            engine=_engine(), maintenance="hybrid", observe=True,
            policy=BatchPolicy(max_batch=4, window_ns=None),
        )
        for i in range(7):
            predicates = [("region", (0, 1))] + ([("tier", (0,))] if i % 2 else [])
            session.conjunction(index, predicates)
        session.update(table, index, "status", [1, 2], [0, 1])  # never read: no counter
        session.drain()
        policy = session.backend.planner.maintenance
        counters = session.report().obs["counters"]
        recorded = {
            name[len("storage.reads."):]: value
            for name, value in counters.items()
            if name.startswith("storage.reads.")
        }
        assert recorded == {"region": 7.0, "tier": 3.0}
        assert all(policy.reads_of(column) == reads for column, reads in recorded.items())
        assert policy.reads_of("status") == 0 and not policy.is_hot("status")
        assert policy.is_hot("region") and not policy.is_hot("tier")


class TestWritePlanLint:
    def test_real_outcomes_certify(self):
        rng = np.random.default_rng(6)
        table, index = _table_index(rng)
        planner = _planner()
        policy = MaintenancePolicy("eager")
        for request in (
            UpdateRequest(
                table=table, index=index, column="tier", row_ids=[2], values=[1]
            ),
            AppendRequest(
                table=table, index=index, rows={n: [0] for n in CARDINALITIES}
            ),
            DeleteRequest(table=table, index=index, row_ids=[1]),
        ):
            outcome = policy.lower_write(request, planner)
            lint_write_plan(outcome, planner.executor)  # must not raise
            assert outcome.invalidate_all == (request.kind in ("append", "delete"))

    def test_misdeclared_charge_is_caught(self):
        rng = np.random.default_rng(7)
        table, index = _table_index(rng)
        planner = _planner()
        outcome = MaintenancePolicy("eager").lower_write(
            UpdateRequest(
                table=table, index=index, column="tier", row_ids=[0], values=[2]
            ),
            planner,
        )
        outcome.planes_charged += 1  # ledger no longer matches the primitives
        with pytest.raises(WritePlanError):
            lint_write_plan(outcome, planner.executor)

    @staticmethod
    def _outcome_with_run(changes):
        """A real eager update's outcome, its plane-charge run edited by
        ``changes(run, planner)``."""
        table, index = _table_index(np.random.default_rng(8), rows=1200)
        planner = _planner()
        outcome = MaintenancePolicy("eager").lower_write(
            UpdateRequest(table=table, index=index, column="tier", row_ids=[0, 5], values=[2, 1]),
            planner,
        )
        run = outcome.primitives[0]
        assert type(run) is BoundChain and not run.steps and outcome.planes_charged
        lint_write_plan(outcome, planner.executor)  # the unedited run certifies
        outcome.primitives[0] = dataclasses.replace(run, **changes(run, planner))
        return outcome, planner.executor

    def test_run_off_the_index_offset_is_caught(self):
        outcome, executor = self._outcome_with_run(
            lambda run, _planner: {"bank_offset": run.bank_offset + 1}
        )
        with pytest.raises(WritePlanError, match="offset"):
            lint_write_plan(outcome, executor)

    def test_run_over_the_wrong_rows_is_caught(self):
        outcome, executor = self._outcome_with_run(lambda run, _planner: {"rows": run.rows + 1})
        with pytest.raises(WritePlanError, match="rows"):
            lint_write_plan(outcome, executor)

    def test_run_priced_as_another_op_is_caught(self):
        def and_priced(run, planner):
            price = planner.executor.engine.op_cost("and", run.rows, run.prices[0].bytes_produced)
            steps = len(run.prices)
            return {"prices": (price,) * steps, "latencies": (price.latency_ns,) * steps}

        outcome, executor = self._outcome_with_run(and_priced)
        with pytest.raises(WritePlanError, match="priced"):
            lint_write_plan(outcome, executor)



def _flip(index: BitmapIndex, column: str, value: int, row: int) -> None:
    """Flip one row's bit of one plane (rebound: planes are copy-on-write)."""
    plane = index.bitmaps[column][value].copy()
    plane[row // 8] ^= 1 << (row % 8)
    index.bitmaps[column][value] = plane


class TestIndexPartitionLint:
    """After a write, each clean written column's planes partition the
    table's rows: pairwise disjoint, covering every row, each equal to the
    rows holding its code."""

    def test_a_built_index_certifies(self):
        _table, index = _table_index(np.random.default_rng(3))
        lint_index_partition(index, list(CARDINALITIES))

    @pytest.mark.parametrize(
        "plant, message",
        [
            ("another_codes_row", "shares rows"),  # a row set in two planes
            ("own_row_cleared", "differs from the table"),
            ("plane_dropped", "cover [0-9]+ of 240 rows"),  # code 0's rows are in none
        ],
    )
    def test_a_planted_defect_raises(self, plant, message):
        table, index = _table_index(np.random.default_rng(4))
        codes = table.column("status")
        if plant == "another_codes_row":
            row = int(np.flatnonzero(codes == 0)[0])
            _flip(index, "status", 3, row)
        elif plant == "own_row_cleared":
            row = int(np.flatnonzero(codes == 2)[0])
            _flip(index, "status", 2, row)
        else:
            del index.bitmaps["status"][0]
        lint_index_partition(index, ["region", "tier"])  # the other columns still certify
        with pytest.raises(IndexPartitionError, match=message) as caught:
            lint_index_partition(index, ["status"])
        assert caught.value.rule == "index-partition"

    def test_a_dirty_column_is_skipped(self):
        table, index = _table_index(np.random.default_rng(5))
        _flip(index, "tier", 1, int(np.flatnonzero(table.column("tier") == 1)[0]))
        index.mark_dirty(["tier"])  # lazily deferred: rebuilt from the table on its next read
        lint_index_partition(index, list(CARDINALITIES))

    @pytest.mark.parametrize("tier", ["service", "cluster"])
    def test_a_sanitized_write_over_a_corrupt_column_raises(self, tier):
        table, index = _table_index(np.random.default_rng(6))
        _flip(index, "status", 1, int(np.flatnonzero(table.column("status") == 0)[0]))
        update = UpdateRequest(table=table, index=index, column="status", row_ids=[0], values=[3])
        with pytest.raises(IndexPartitionError):
            if tier == "service":
                frontend = _frontend("eager")
                frontend.offer(update)
                frontend.drain()
            else:  # the coordinator commits, and checks, at the offer
                ClusterFrontend(2, PipelineConfig(sanitize=True)).offer(update)

    @pytest.mark.parametrize("tier", ["service", "cluster"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_a_write_heavy_sanitized_stream_stays_silent(self, tier, strategy, monkeypatch):
        checked = []

        def counted(index, columns):
            checked.append(tuple(columns))
            lint_index_partition(index, columns)

        monkeypatch.setattr("repro.verify.plan_lint.lint_index_partition", counted)
        rng = np.random.default_rng(12)
        table, index = _table_index(rng, rows=160)
        if tier == "service":
            frontend = _frontend(strategy)
        else:
            frontend = ClusterFrontend(
                2, PipelineConfig(sanitize=True, maintenance=strategy, max_queue_depth=256)
            )
        for step in range(40):
            if rng.random() < 0.7:
                frontend.offer(_random_write(rng, table, index))
            else:
                frontend.offer(_random_read(rng, index))
            if step % 3 == 2:
                frontend.drain()
        frontend.drain()
        assert len(checked) >= 20  # every applied write was certified
        lint_index_partition(index, list(CARDINALITIES))
        _assert_rebuild_equivalent(index, table)

def _unfold_charges(planner: BatchPlanner) -> None:
    """Make ``planner`` emit every maintenance charge the way it was once
    charged: one executed ``or`` bulk op per plane, over a zeroed operand
    of the index's shape, pinned to the run's bank offset — N one-step
    runs where the folded charge places one run of N."""
    lower = planner.lower_batch
    row_size = planner.executor.engine.device.geometry.row_size_bytes

    def unfolded(batch):
        primitives, groups = lower(batch)
        out, spans = [], []
        for primitive in primitives:
            start = len(out)
            if type(primitive) is BoundChain and primitive.serial[0] == "storage_maintenance":
                zero = BulkBitVector(8 * primitive.prices[0].bytes_produced, row_size)
                out.extend(
                    BulkOpRequest("or", zero, zero, zero, bank_offset=primitive.bank_offset)
                    for _ in primitive.prices
                )
            else:
                out.append(primitive)
            spans.append(range(start, len(out)))
        for group in groups:
            group.indices = [i for j in group.indices for i in spans[j]]
            group.dep_indices = [i for j in group.dep_indices for i in spans[j]]
        return out, groups

    planner.lower_batch = unfolded


def _charge_stream(rng, table, index):
    """Reads and writes (updates, appends, deletes) over ``index``; every
    row id stays valid however the batches close."""
    stream = []
    for i in range(28):
        if i % 4 in (0, 2):
            stream.append(_random_read(rng, index))
        elif i % 4 == 1:
            column = str(rng.choice(list(CARDINALITIES)))
            row_ids = rng.choice(1000, size=int(rng.integers(1, 6)), replace=False)
            values = rng.integers(0, CARDINALITIES[column], size=row_ids.size)
            stream.append(UpdateRequest(
                table=table, index=index, column=column,
                row_ids=tuple(int(r) for r in row_ids), values=tuple(int(v) for v in values),
            ))
        elif i % 8 == 3:
            rows = {name: [int(rng.integers(card))] for name, card in CARDINALITIES.items()}
            stream.append(AppendRequest(table=table, index=index, rows=rows))
        else:
            row_ids = (int(rng.integers(1000)),)
            stream.append(DeleteRequest(table=table, index=index, row_ids=row_ids))
    return stream


def _serve_charges(tier, maintenance, banks, folded, **knobs):
    """Serve :func:`_charge_stream` with the charges folded (as lowered) or
    unfolded; returns the backend's envelopes, each service frontend with
    its own (in offer order), and how many charge runs and lazy rebuilds
    the lowering emitted."""
    table, index = _table_index(np.random.default_rng(41), rows=1200)
    policy = BatchPolicy(max_batch=4, window_ns=None)
    config = PipelineConfig(policy=policy, maintenance=maintenance, max_queue_depth=256, **knobs)
    if tier == "cluster":
        backend = ClusterFrontend(2, config, engine_factory=lambda: _engine(banks))
        shards = backend.shards
    else:
        backend = ServiceFrontend(config, engine=_engine(banks))
        shards = [backend]
    seen = {"runs": 0, "rebuilds": 0}
    for shard in shards:
        # A hand-built schedule keeps its whole interval log.
        shard.executor.lanes = LaneSchedule(shard.executor.active_bank_keys())
        lower = shard.planner.lower_batch

        def counted(batch, lower=lower):
            primitives, groups = lower(batch)
            seen["runs"] += sum(
                type(p) is BoundChain and p.serial[0] == "storage_maintenance" for p in primitives
            )
            seen["rebuilds"] += sum(len(group.rebuild_columns) for group in groups)
            return primitives, groups

        shard.planner.lower_batch = counted
        if not folded:
            _unfold_charges(shard.planner)
    stream = _charge_stream(np.random.default_rng(43), table, index)
    records = [backend.offer(request, arrival_ns=40.0 * t) for t, request in enumerate(stream)]
    backend.drain()
    if tier == "cluster":
        parts = [
            [p for r in records for s, p in zip(r.shard_ids, r.parts) if s == shard_id]
            for shard_id in range(len(shards))
        ]
    else:
        parts = [records]
    return records, list(zip(shards, parts)), seen


def _charged(record):
    """What a record was charged: name, latency, energy, bytes."""
    metrics = record.metrics
    if metrics is None:
        return None
    return (metrics.name, metrics.latency_ns, metrics.energy_j, metrics.bytes_produced)


class TestFoldedChargePlacesLikeItsOps:
    """A maintenance charge is one priced-only run of N ``or`` steps; it
    must place, cost and roll up exactly as N executed one-op requests at
    the same bank offset did."""

    CASES = [
        ("service", "eager", {}),
        ("service", "hybrid", {"optimize": True, "cache": True}),
        ("service", "lazy", {}),
        ("cluster", "eager", {}),
    ]

    @pytest.mark.parametrize("banks", [1, 2, 8])
    @pytest.mark.parametrize("tier,maintenance,knobs", CASES)
    def test_folded_charge_equals_per_op_placement(self, tier, maintenance, knobs, banks):
        folded, folded_shards, seen = _serve_charges(tier, maintenance, banks, True, **knobs)
        ops, ops_shards, _ = _serve_charges(tier, maintenance, banks, False, **knobs)
        assert seen["runs"] > 0
        assert (seen["rebuilds"] > 0) == (maintenance != "eager")
        for (mine, mine_parts), (theirs, their_parts) in zip(folded_shards, ops_shards):
            # One LanePlacement per step, at the same instants on the same lanes.
            assert mine.executor.lanes.log == theirs.executor.lanes.log
            assert mine.batches == theirs.batches
            for a, b in zip(mine_parts, their_parts, strict=True):
                assert (a.start_ns, a.finish_ns, _charged(a)) == (
                    b.start_ns, b.finish_ns, _charged(b)
                )
        for a, b in zip(folded, ops, strict=True):
            assert (a.finish_ns, _charged(a)) == (b.finish_ns, _charged(b))
            assert np.array_equal(a.value, b.value)


def _small_table_index(rows: int = 64):
    table = ColumnTable("t", rows)
    table.add_column("c", np.arange(rows) % 4, cardinality=4)
    return table, BitmapIndex(table, ["c"])


class TestStaleRowIds:
    """Row ids valid at ``offer`` can be left past the table's end by a
    delete lowered before them; that write alone is refused at lowering,
    and everything else in its batch completes."""

    @pytest.mark.parametrize("max_batch", [1, 4])  # a later batch, the same batch
    @pytest.mark.parametrize("second", ["update", "delete"])
    def test_stale_write_is_refused_and_its_batch_completes(self, second, max_batch):
        table, index = _small_table_index()
        frontend = ServiceFrontend(
            PipelineConfig(policy=BatchPolicy(max_batch=max_batch, window_ns=None))
        )
        delete = DeleteRequest(table=table, index=index, row_ids=(0, 1, 2, 3))
        delete = frontend.offer(delete, arrival_ns=0)
        if second == "update":
            stale = UpdateRequest(table=table, index=index, column="c", row_ids=(63,), values=(1,))
        else:
            stale = DeleteRequest(table=table, index=index, row_ids=(62,))
        stale = frontend.offer(stale, arrival_ns=1)
        read = frontend.offer(
            BitmapConjunctionRequest(index=index, predicates=(("c", (1, 2)),)), arrival_ns=2
        )
        frontend.drain()
        assert delete.completed and delete.value == 4 and table.num_rows == 60
        assert not stale.admitted and stale.rejected_reason == "stale_row_ids"
        assert not stale.completed and stale.metrics is None
        expected, _ = index.evaluate_conjunction([("c", (1, 2))])
        assert read.completed and np.array_equal(read.value, expected)
        fresh = BitmapIndex(table, ["c"])
        for value in range(4):
            assert np.array_equal(index.bitmap("c", value), fresh.bitmap("c", value))

    def test_session_future_raises_the_typed_rejection(self):
        table, index = _small_table_index()
        session = PimSession.over_service(policy=BatchPolicy(max_batch=4, window_ns=None))
        delete = session.delete(table, index, (0, 1, 2, 3), at_ns=0)
        update = session.update(table, index, "c", (63,), (1,), at_ns=1)
        session.drain()
        assert delete.result().value == 4
        with pytest.raises(RequestRejected) as refused:
            update.result()
        assert refused.value.reason == "stale_row_ids"


class TestRowIdsCheckedOnce:
    """A write's row ids and codes are shape-checked once per binding, and
    the check still refuses bad input wherever it enters."""

    def test_offer_lowering_and_mutator_share_one_check(self):
        table, index = _small_table_index()
        checks = []
        update_arrays = table.update_arrays
        table.update_arrays = lambda *args: checks.append(args) or update_arrays(*args)
        frontend = _frontend("eager")
        request = UpdateRequest(table=table, index=index, column="c", row_ids=[5, 9], values=[3, 0])
        frontend.offer(request)
        assert len(checks) == 1
        frontend.drain()
        assert len(checks) == 1 and table.column("c")[[5, 9]].tolist() == [3, 0]

    def test_bad_write_still_fails_at_offer(self):
        table, index = _small_table_index()
        frontend = _frontend("eager")
        def update(row_ids, values):
            return UpdateRequest(
                table=table, index=index, column="c", row_ids=row_ids, values=values
            )

        with pytest.raises(ValueError, match="row_ids must be in"):
            frontend.offer(update([64], [1]))
        with pytest.raises(ValueError, match="unique"):
            frontend.offer(update([3, 3], [1, 2]))
        with pytest.raises(TypeError, match="integers"):
            frontend.offer(DeleteRequest(table=table, index=index, row_ids=[0.5]))
        assert frontend._seq == 0 and table.num_rows == 64

    def test_reassigned_rows_are_checked_afresh(self):
        table, index = _small_table_index()
        frontend = _frontend("eager")
        ids = np.array([1, 2])
        update = UpdateRequest(table=table, index=index, column="c", row_ids=ids, values=[0, 1])
        check_row_ids(update)
        stored, codes, top = update.checked_rows()
        assert (stored.dtype, codes.dtype, top) == (np.int64, np.int64, 2)
        assert not stored.flags.writeable and not codes.flags.writeable
        assert ids.flags.writeable  # the caller's array is copied, not frozen
        update.row_ids = [64, 1]
        with pytest.raises(ValueError, match="row_ids must be in"):
            frontend.offer(update)
        update.row_ids = [2, 2]
        with pytest.raises(ValueError, match="unique"):
            check_row_ids(update)
        update.row_ids = [2, 3]
        update.values = [1, -1]
        with pytest.raises(ValueError, match="non-negative"):
            check_row_ids(update)
        delete = DeleteRequest(table=table, index=index, row_ids=[0])
        check_row_ids(delete)
        delete.row_ids = [-1]
        with pytest.raises(ValueError, match="row_ids must be in"):
            check_row_ids(delete)
        assert frontend._seq == 0

    def test_table_mutators_keep_their_own_guard(self):
        table, _index = _small_table_index()
        codes = table.column("c").copy()
        with pytest.raises(ValueError, match="row_ids must be in"):
            table.update_rows("c", [64], [1])
        with pytest.raises(ValueError, match="unique"):
            table.update_rows("c", [3, 3], [1, 2])
        with pytest.raises(ValueError, match="non-negative"):
            table.update_rows("c", [3], [-1])
        with pytest.raises(KeyError, match="no column"):
            table.update_rows("nope", [3], [1])
        with pytest.raises(ValueError, match="row_ids must be in"):
            table.delete_rows([64])
        with pytest.raises(ValueError, match="row_ids must be in"):
            table.overwrite("c", *table.update_arrays("c", [0, 70], [1, 1]))
        assert table.num_rows == 64 and np.array_equal(table.column("c"), codes)
        assert table.update_rows("c", [3], [0]) == 1 and table.delete_rows([0, 0]) == 1
