"""Tests for the mutation subsystem (`repro.storage`).

The load-bearing acceptance property: after *any* sequence of appends,
updates, and deletes served through the frontend, every maintenance
strategy — eager, lazy, hybrid — leaves the index bit-exact with a
from-scratch rebuild of the mutated table.  Around it: strategy
resolution and the hybrid hot/cold split, charged write costs visible
in the ledger, the unique-row-id precondition, and the write-plan lint
that certifies each lowered write's charge.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
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
from repro.service.requests import BoundChain
from repro.storage import (
    STRATEGIES,
    AppendRequest,
    DeleteRequest,
    MaintenancePolicy,
    UpdateRequest,
    apply_mutation,
    charged_columns,
    is_write_request,
)
from repro.verify import WritePlanError
from repro.verify.plan_lint import lint_write_plan

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
        frontend.offer(
            UpdateRequest(
                table=table, index=index, column="status",
                row_ids=[1, 2, 3], values=[0, 1, 2],
            )
        )
        frontend.drain()
        (record,) = frontend.result().completed()
        assert is_write_request(record.request)
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
        frontend.offer(
            AppendRequest(
                table=table, index=index,
                rows={name: [0, 1] for name in CARDINALITIES},
            )
        )
        frontend.offer(DeleteRequest(table=table, index=index, row_ids=[0, 4, 7]))
        frontend.drain()
        append_record, delete_record = frontend.result().completed()
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
        executor = BatchExecutor(engine=_engine())
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
            outcome = policy.lower_write(request, executor)
            lint_write_plan(outcome)  # must not raise
            assert outcome.invalidate_all == (request.kind in ("append", "delete"))

    def test_misdeclared_charge_is_caught(self):
        rng = np.random.default_rng(7)
        table, index = _table_index(rng)
        executor = BatchExecutor(engine=_engine())
        outcome = MaintenancePolicy("eager").lower_write(
            UpdateRequest(
                table=table, index=index, column="tier", row_ids=[0], values=[2]
            ),
            executor,
        )
        outcome.planes_charged += 1  # ledger no longer matches the primitives
        with pytest.raises(WritePlanError):
            lint_write_plan(outcome)
