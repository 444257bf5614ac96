"""One answer per distinct question per write generation.

A conjunction's result array is shared across batches for as long as its
index's planes for the conjunction's columns are unchanged: the planner's
interned shape keeps a weak slot ``(index, generation, value)`` and a
repeated question returns the array it returned before.  These tests pin:

* the generation itself — every :class:`BitmapIndex` mutator bumps exactly
  its columns, and a shard view reads its parent's;
* sharing on both lowering paths (``optimize`` off and on) — across
  batches, never across a write to one of the question's columns (eager,
  lazy then read, append), kept across a write to another column, never
  between two indexes of equal shape, and never pinning a value the
  caller dropped;
* the sanitizer's certificate — a handed-out answer is compared with the
  batch's own result, and a forged slot generation is caught;
* a property over random read/write interleavings across batches.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import BatchPolicy, BitmapConjunctionRequest
from repro.storage import AppendRequest, UpdateRequest
from repro.verify import SharedAnswerError

CARDINALITIES = {"region": 6, "status": 4, "tier": 3}
ROWS = 200
PREDICATES = (("status", (0, 1)), ("region", (0, 1, 2)))
COLUMNS = ["status", "region"]


def _engine() -> AmbitEngine:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=4,
        subarrays_per_bank=2,
        rows_per_subarray=32,
        row_size_bytes=64,
    )
    device = DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )
    return AmbitEngine(device, AmbitConfig(banks_parallel=4, vectorized_functional=True))


def _table_index(seed: int = 7):
    rng = np.random.default_rng(seed)
    table = ColumnTable("t", ROWS)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(name, rng.integers(0, cardinality, size=ROWS), cardinality=cardinality)
    return table, BitmapIndex(table, list(CARDINALITIES))


def _frontend(optimize: bool, maintenance: str = "eager", sanitize: bool = True, cache=False):
    session = PimSession.over_service(
        engine=_engine(),
        optimize=optimize,
        cache=cache,
        maintenance=maintenance,
        sanitize=sanitize,
        policy=BatchPolicy(max_batch=4, window_ns=None),
        max_queue_depth=256,
    )
    return session.backend


def _serve(frontend, *requests):
    """Offer ``requests`` as one batch; their envelopes."""
    records = [frontend.offer(request) for request in requests]
    frontend.drain()
    return records


def _read(index, predicates=PREDICATES):
    return BitmapConjunctionRequest(index=index, predicates=predicates)


def _expected(index, predicates=PREDICATES):
    value, _plan = index.evaluate_conjunction(predicates)
    return value


def _update(table, index, column, rows=range(0, 40, 2)):
    """Move ``rows`` of ``column`` to the next code (always a change)."""
    rows = [int(r) for r in rows]
    values = (table.column(column)[rows] + 1) % CARDINALITIES[column]
    return UpdateRequest(
        table=table, index=index, column=column, row_ids=rows, values=[int(v) for v in values]
    )


# ----------------------------------------------------------------------
# The write generation
# ----------------------------------------------------------------------
class TestGeneration:
    def _generations(self, index):
        return {column: index.generation([column]) for column in CARDINALITIES}

    def _bumped(self, index, mutate):
        before = self._generations(index)
        mutate()
        after = self._generations(index)
        assert all(after[c] >= before[c] for c in CARDINALITIES)  # only ever up
        return {c for c in CARDINALITIES if after[c] != before[c]}

    def test_each_mutator_bumps_exactly_its_columns(self):
        table, index = _table_index()
        assert self._bumped(index, lambda: index.rebuild_column("tier")) == {"tier"}
        assert self._bumped(index, lambda: index.refresh_columns(["status", "region"])) == {
            "status", "region",
        }
        assert self._bumped(index, lambda: index.mark_dirty(["region"])) == {"region"}
        # The lazy repair on first read rebinds the planes: another bump.
        assert self._bumped(index, lambda: index.bitmap("region", 0)) == {"region"}
        assert self._bumped(index, lambda: index.bitmap("region", 1)) == set()  # clean now
        ids = np.arange(0, 20)
        old = table.column("status")[ids]
        new = (old + 1) % CARDINALITIES["status"]
        table.update_rows("status", ids, new)
        assert self._bumped(index, lambda: index.apply_update("status", ids, old, new)) == {
            "status",
        }
        # Dictionary growth rebinds planes too.
        grown = np.full(ids.size, CARDINALITIES["tier"])
        old = table.column("tier")[ids]
        table.update_rows("tier", ids, grown)
        assert self._bumped(index, lambda: index.apply_update("tier", ids, old, grown)) == {
            "tier",
        }
        assert self._bumped(index, lambda: index.check_predicates(PREDICATES)) == set()
        assert self._bumped(index, lambda: index.evaluate_conjunction(PREDICATES)) == set()

    def test_a_multi_column_generation_moves_with_any_of_its_columns(self):
        _table, index = _table_index()
        both = index.generation(COLUMNS)
        assert both == index.generation(["status"]) + index.generation(["region"])
        index.mark_dirty(["region"])
        assert index.generation(COLUMNS) > both
        with pytest.raises(KeyError):
            index.generation(["missing"])

    def test_the_shard_view_reads_its_parents_generation(self):
        _table, index = _table_index()
        view = index.shard_view(["status", "tier"])
        before = view.generation(["status"])
        index.refresh_columns(["status"])
        assert view.generation(["status"]) == index.generation(["status"]) == before + 1
        assert view.generation(["status", "tier"]) == index.generation(["status", "tier"])


# ----------------------------------------------------------------------
# Sharing across batches, on both lowering paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("optimize", [False, True])
class TestSharingAcrossBatches:
    def test_a_repeated_question_in_a_later_batch_returns_the_same_array(self, optimize):
        _table, index = _table_index()
        frontend = _frontend(optimize)
        (first,) = _serve(frontend, _read(index))
        (second,) = _serve(frontend, _read(index))
        assert len(frontend.batches) == 2
        assert second.value is first.value
        assert not second.value.flags.writeable
        np.testing.assert_array_equal(second.value, _expected(index))

    @pytest.mark.parametrize("write", ["eager_update", "lazy_update_then_read", "append"])
    def test_a_write_to_one_of_its_columns_yields_a_fresh_correct_array(self, optimize, write):
        table, index = _table_index()
        maintenance = "lazy" if write.startswith("lazy") else "eager"
        frontend = _frontend(optimize, maintenance=maintenance)
        (first,) = _serve(frontend, _read(index))
        before = np.array(first.value)
        if write == "append":
            rows = {name: [1] * 24 for name in CARDINALITIES}
            writer = AppendRequest(table=table, index=index, rows=rows)
        else:
            writer = _update(table, index, "status")
        _serve(frontend, writer)
        if write.startswith("lazy"):
            assert index.dirty_columns() == ["status"]
        (second,) = _serve(frontend, _read(index))
        assert second.value is not first.value
        np.testing.assert_array_equal(second.value, _expected(index))
        assert not np.array_equal(second.value, before)
        np.testing.assert_array_equal(first.value, before)  # the old answer is untouched
        (third,) = _serve(frontend, _read(index))
        assert third.value is second.value  # and the new one is shared from now on

    def test_a_write_landing_in_the_same_batch_splits_the_answer(self, optimize):
        table, index = _table_index()
        frontend = _frontend(optimize)
        (warm,) = _serve(frontend, _read(index))
        early, _write, late = _serve(
            frontend, _read(index), _update(table, index, "region"), _read(index)
        )
        assert early.value is warm.value  # lowered before the write
        assert late.value is not early.value
        np.testing.assert_array_equal(late.value, _expected(index))

    def test_a_write_to_an_unrelated_column_keeps_the_sharing(self, optimize):
        table, index = _table_index()
        frontend = _frontend(optimize)
        (first,) = _serve(frontend, _read(index))
        _serve(frontend, _update(table, index, "tier"))
        (second,) = _serve(frontend, _read(index))
        assert second.value is first.value
        np.testing.assert_array_equal(second.value, _expected(index))

    def test_the_slot_pins_no_value_the_caller_dropped(self, optimize):
        _table, index = _table_index()
        frontend = _frontend(optimize)
        (first,) = _serve(frontend, _read(index))
        dropped = weakref.ref(first.value)
        del first
        frontend.records.clear()
        (second,) = _serve(frontend, _read(index))
        gc.collect()
        assert dropped() is None  # nothing kept the first answer alive
        np.testing.assert_array_equal(second.value, _expected(index))
        (third,) = _serve(frontend, _read(index))
        assert third.value is second.value

    def test_two_indexes_of_equal_shape_never_share(self, optimize):
        table, index_a = _table_index()
        index_b = BitmapIndex(table, list(CARDINALITIES))  # the very same bits
        frontend = _frontend(optimize)
        a1, b1 = _serve(frontend, _read(index_a), _read(index_b))
        b2, a2 = _serve(frontend, _read(index_b), _read(index_a))
        np.testing.assert_array_equal(a1.value, b1.value)
        a_values = {id(record.value) for record in (a1, a2)}
        assert a_values.isdisjoint(id(record.value) for record in (b1, b2))
        assert b2.value is b1.value  # each still shares with itself


# ----------------------------------------------------------------------
# The sanitizer certifies a handed-out answer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("optimize", [False, True])
def test_a_forged_slot_generation_is_caught_under_sanitize(optimize):
    """Forge the slot so a stale answer looks current: the sanitizer's
    comparison with the batch's own result raises; without it the forged
    answer would have been handed out."""
    for sanitize in (True, False):
        table, index = _table_index()
        frontend = _frontend(optimize, sanitize=sanitize)
        (stale,) = _serve(frontend, _read(index))
        _serve(frontend, _update(table, index, "status"))
        priced = frontend.planner._priced_chain(PREDICATES, index.num_rows)
        owner, _generation, value = priced.answer
        assert value() is stale.value
        priced.answer = (owner, index.generation(COLUMNS), value)  # the forgery
        if sanitize:
            with pytest.raises(SharedAnswerError) as caught:
                _serve(frontend, _read(index))
            assert caught.value.rule == "shared-answer"
        else:
            (forged,) = _serve(frontend, _read(index))
            assert forged.value is stale.value
            assert not np.array_equal(forged.value, _expected(index))


# ----------------------------------------------------------------------
# Random read/write interleavings across batches
# ----------------------------------------------------------------------
TEMPLATES = (
    PREDICATES,
    (("tier", (0,)),),
    (("region", (1, 4)), ("tier", (0, 2))),
    (("status", (2,)), ("tier", (1,))),
)

# One step asks a question, maybe writes, and asks it again, with a batch
# boundary drawn after each half: a stale answer needs exactly that.
_STEPS = st.lists(
    st.tuples(
        st.integers(0, len(TEMPLATES) - 1),
        st.one_of(
            st.none(),
            st.tuples(st.just("update"), st.sampled_from(sorted(CARDINALITIES)),
                      st.integers(0, 2**16)),
            st.tuples(st.just("append"), st.integers(1, 9)),
        ),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


def _concrete(steps):
    """The drawn steps as one op stream, rows and codes materialized
    (replayed identically on every table copy)."""
    stream = []
    for template, write, drain_before, drain_after in steps:
        stream.append(("read", template))
        if drain_before:
            stream.append(("drain",))
        if write is not None and write[0] == "update":
            rng = np.random.default_rng(write[2])
            rows = rng.choice(ROWS, size=8, replace=False)
            # Codes up to the cardinality itself: dictionary growth too.
            codes = rng.integers(0, CARDINALITIES[write[1]] + 1, size=8)
            stream.append(("update", write[1], [int(r) for r in rows], [int(c) for c in codes]))
        elif write is not None:
            rows = {name: [i % c for i in range(write[1])] for name, c in CARDINALITIES.items()}
            stream.append(("append", rows))
        if drain_after:
            stream.append(("drain",))
        stream.append(("read", template))
    return stream


def _play(stream, optimize, maintenance, cache=False):
    """Serve ``stream`` on a fresh table; each read's value, in order."""
    table, index = _table_index()
    frontend = _frontend(optimize, maintenance=maintenance, cache=cache)
    reads = []
    for op in stream:
        if op[0] == "read":
            reads.append(frontend.offer(_read(index, TEMPLATES[op[1]])))
        elif op[0] == "update":
            frontend.offer(UpdateRequest(
                table=table, index=index, column=op[1], row_ids=op[2], values=op[3]
            ))
        elif op[0] == "append":
            frontend.offer(AppendRequest(table=table, index=index, rows=op[1]))
        else:
            frontend.drain()
    frontend.drain()
    return [record.value for record in reads]


def _oracle(stream):
    """Each read evaluated straight off an eagerly refreshed index."""
    table, index = _table_index()
    values = []
    for op in stream:
        if op[0] == "read":
            values.append(_expected(index, TEMPLATES[op[1]]))
        elif op[0] == "update":
            table.update_rows(op[1], op[2], op[3])
            index.refresh_columns([op[1]])
        elif op[0] == "append":
            table.append_rows(op[1])
            index.refresh_columns(list(CARDINALITIES))
    return values


@settings(max_examples=40, deadline=None)
@given(
    steps=_STEPS,
    maintenance=st.sampled_from(["eager", "lazy", "hybrid"]),
    arm=st.sampled_from([(True, False), (True, True), (False, False)]),
)
def test_shared_answers_are_right_and_never_span_a_write_to_their_columns(steps, maintenance, arm):
    optimize, cache = arm
    stream = _concrete(steps)
    served = _play(stream, optimize, maintenance, cache)
    reference = _play(stream, optimize=False, maintenance=maintenance)
    expected = _oracle(stream)
    for value, same, truth in zip(served, reference, expected):
        np.testing.assert_array_equal(value, same)
        np.testing.assert_array_equal(value, truth)
    # Positions of the reads in the stream, and the columns each write moves.
    reads = [(at, op[1]) for at, op in enumerate(stream) if op[0] == "read"]
    written = {
        at: {op[1]} if op[0] == "update" else set(CARDINALITIES)
        for at, op in enumerate(stream)
        if op[0] in ("update", "append")
    }
    for values in (served, reference):
        for i, (at_i, template_i) in enumerate(reads):
            for j in range(i + 1, len(reads)):
                if values[j] is not values[i]:
                    continue
                at_j, template_j = reads[j]
                assert template_i == template_j
                columns = {column for column, _values in TEMPLATES[template_i]}
                assert not any(
                    written[at] & columns for at in range(at_i + 1, at_j) if at in written
                )
