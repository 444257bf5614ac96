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
* binding nothing for a current answer — a repeated plain question lowers
  to a priced-only chain charged and placed exactly as its bound twin,
  while a functional or sanitized batch, a write to one of its columns
  and a dropped answer still bind;
* a property over random read/write interleavings across batches, on both
  tiers, against a sanitized arm that always binds;
* the cluster's gathered answer — shared per shape only while no write
  moved its columns since the record was offered (a gather that straddles
  a write keeps its own merge), checked by the sanitizer over streams with
  writes, a shard kill and re-placements.
"""

import hashlib

import gc
import weakref
from types import SimpleNamespace

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
from repro.cluster import ClusterFrontend, ShardRouter
from repro.service import BatchPolicy, BitmapConjunctionRequest, PipelineConfig
from repro.service.requests import BoundChain
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


def _session(
    optimize: bool,
    maintenance: str = "eager",
    sanitize: bool = True,
    cache=False,
    functional: bool = False,
    tier: str = "service",
):
    knobs = dict(
        optimize=optimize,
        cache=cache,
        maintenance=maintenance,
        sanitize=sanitize,
        functional=functional,
        policy=BatchPolicy(max_batch=4, window_ns=None),
        max_queue_depth=256,
    )
    if tier == "cluster":
        return PimSession.over_cluster(num_shards=2, engine_factory=_engine, **knobs)
    return PimSession.over_service(engine=_engine(), **knobs)


def _frontend(
    optimize: bool,
    maintenance: str = "eager",
    sanitize: bool = True,
    cache=False,
    functional: bool = False,
):
    return _session(optimize, maintenance, sanitize, cache, functional).backend


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
# A current answer binds nothing
# ----------------------------------------------------------------------
def _ask_again(case, sanitize=False):
    """Ask ``PREDICATES``, do ``case`` in between, and ask again in a later
    batch on the plain path: what the second batch lowered and ran."""
    table, index = _table_index()
    frontend = _frontend(
        False,
        maintenance="lazy" if case == "lazy_update_then_read" else "eager",
        sanitize=sanitize or case == "sanitize",
        functional=case == "functional",
    )
    lowered, ran = [], []
    lower, run = frontend.planner.lower_batch, frontend.executor.run

    def lower_batch(batch):
        primitives, groups = lower(batch)
        lowered.append(primitives)
        return primitives, groups

    def run_batch(primitives, **kwargs):
        ran.append(run(primitives, **kwargs))
        return ran[-1]

    frontend.planner.lower_batch, frontend.executor.run = lower_batch, run_batch
    (first,) = _serve(frontend, _read(index))
    if case in ("eager_update", "lazy_update_then_read"):
        _serve(frontend, _update(table, index, "status"))
    elif case == "unrelated_write":
        _serve(frontend, _update(table, index, "tier"))
    elif case == "dropped_answer":
        first = None
        gc.collect()
    (second,) = _serve(frontend, _read(index))
    return SimpleNamespace(
        frontend=frontend, index=index, first=first, second=second,
        primitives=lowered[-1], chain=lowered[-1][0], result=ran[-1].results[0],
    )


def _charged(asked):
    """What the second question was charged, where, and what it got."""
    record, result = asked.second, asked.result
    return (record.start_ns, record.finish_ns, record.metrics, result.bank_ids,
            record.value.tobytes())


def test_a_current_answer_lowers_to_a_priced_only_chain_charged_as_its_bound_twin():
    asked = _ask_again("repeat")
    bound = _ask_again("repeat", sanitize=True)  # the sanitizer always binds
    chain, twin = asked.chain, bound.chain
    assert type(chain) is BoundChain and chain.steps == [] and asked.result.value is None
    assert len(twin.steps) == len(chain.prices) == 4
    assert (chain.prices, chain.latencies, chain.serial, chain.bank_offset, chain.rows) == (
        twin.prices, twin.latencies, twin.serial, twin.bank_offset, twin.rows
    )
    assert _charged(asked) == _charged(bound)
    assert asked.second.value is asked.first.value
    np.testing.assert_array_equal(asked.second.value, _expected(asked.index))


@pytest.mark.parametrize(
    "case",
    ["functional", "sanitize", "lazy_update_then_read", "eager_update", "dropped_answer"],
)
def test_a_question_without_a_current_answer_still_binds(case):
    asked = _ask_again(case)
    bound = _ask_again(case, sanitize=True)
    assert len(asked.chain.steps) == 4
    assert _charged(asked) == _charged(bound)  # rebuild charge included
    assert len(asked.primitives) == len(bound.primitives)
    if case == "lazy_update_then_read":
        assert len(asked.primitives) > 1  # the read paid for the repair
    if case == "functional":
        assert asked.frontend.executor.functional_executed == 2 * 4
    np.testing.assert_array_equal(asked.second.value, _expected(asked.index))


def test_a_write_to_an_unrelated_column_keeps_the_priced_only_chain():
    asked = _ask_again("unrelated_write")
    assert asked.chain.steps == []
    assert asked.second.value is asked.first.value
    np.testing.assert_array_equal(asked.second.value, _expected(asked.index))


def test_an_answer_dropped_between_lowering_and_running_still_reaches_its_request():
    """The lowered group holds a current answer strongly: every response
    dropped and collected after lowering, the request still gets it."""
    _table, index = _table_index()
    frontend = _frontend(False, sanitize=False)
    (first,) = _serve(frontend, _read(index))
    answer, expected = weakref.ref(first.value), np.array(first.value)
    run = frontend.executor.run

    def run_batch(primitives, **kwargs):
        nonlocal first
        assert primitives[0].steps == []
        first = None
        gc.collect()
        return run(primitives, **kwargs)

    frontend.executor.run = run_batch
    second = frontend.offer(_read(index))
    frontend.drain()
    assert first is None and second.value is answer()
    np.testing.assert_array_equal(second.value, expected)


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


def _play(stream, optimize, maintenance, cache=False, sanitize=True, tier="service"):
    """Serve ``stream`` on a fresh table: every op's record, in order, and
    the session."""
    table, index = _table_index()
    session = _session(optimize, maintenance=maintenance, cache=cache, sanitize=sanitize, tier=tier)
    futures = []
    for op in stream:
        if op[0] == "read":
            futures.append(session.submit(_read(index, TEMPLATES[op[1]])))
        elif op[0] == "update":
            futures.append(session.submit(UpdateRequest(
                table=table, index=index, column=op[1], row_ids=op[2], values=op[3]
            )))
        elif op[0] == "append":
            futures.append(session.submit(AppendRequest(table=table, index=index, rows=op[1])))
        else:
            session.drain()
    session.drain()
    return [future.record for future in futures], session


def _read_values(stream, records):
    ops = [op for op in stream if op[0] != "drain"]
    return [record.value for op, record in zip(ops, records) if op[0] == "read"]


def _outcomes(records, session):
    """Each record's timestamps, metrics and value bytes; the session's
    report and every executor's lane metrics."""
    backend = session.backend
    executors = [shard.executor for shard in getattr(backend, "shards", [backend])]
    return (
        [(r.start_ns, r.finish_ns, r.metrics, np.asarray(r.value).tobytes()) for r in records],
        repr(session.report()),
        [repr(executor.lane_metrics()) for executor in executors],
    )


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
    tier=st.sampled_from(["service", "cluster"]),
)
def test_shared_answers_are_right_and_never_span_a_write_to_their_columns(
    steps, maintenance, arm, tier
):
    optimize, cache = arm
    stream = _concrete(steps)
    records, session = _play(stream, optimize, maintenance, cache, sanitize=False, tier=tier)
    # The sanitizer binds every chain: a priced-only one is charged,
    # placed and answered exactly as its bound twin.
    checked = _play(stream, optimize, maintenance, cache, sanitize=True, tier=tier)
    assert _outcomes(records, session) == _outcomes(*checked)
    served = _read_values(stream, records)
    reference = _read_values(stream, _play(stream, False, maintenance, tier=tier)[0])
    for value, same in zip(served, reference):
        np.testing.assert_array_equal(value, same)
    if tier == "cluster":
        # A cluster write commits at its coordinator when offered, ahead
        # of reads still queued on the shards: the stream-order oracle
        # and write positions below describe the service tier alone.
        return
    for value, truth in zip(served, _oracle(stream)):
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


# ----------------------------------------------------------------------
# The cluster's gathered answer
# ----------------------------------------------------------------------
def _cluster(sanitize: bool) -> ClusterFrontend:
    config = PipelineConfig(
        sanitize=sanitize, policy=BatchPolicy(max_batch=4, window_ns=None), max_queue_depth=256
    )
    return ClusterFrontend(2, config, engine_factory=_engine)


@pytest.mark.parametrize("sanitize", [False, True])
def test_a_gather_that_straddles_a_write_is_never_handed_out_again(sanitize):
    """Part A is lowered over ``status``, a write to ``status`` commits (a
    cluster commits a write at its offer), part B is lowered over
    ``region``, and the record gathers the old ``status`` AND ``region``.
    That merge is no answer at the new generation: the records asked after
    the write get their own current merge, and share it with each other."""
    table, index = _table_index()
    cluster = _cluster(sanitize)
    cluster.router.set_replicas("status", [0])
    cluster.router.set_replicas("region", [1])
    predicates = (("status", (0, 1)), ("region", (0, 1)))
    before = _expected(index, predicates)
    straddler = cluster.offer(_read(index, predicates))
    assert straddler.shard_ids == [0, 1]
    cluster.shards[0].serve_batch()  # part A lowers over the old status planes
    # Five rows the answer holds, moved out of it by the write.
    rows = [int(r) for r in np.flatnonzero(np.unpackbits(before, bitorder="little"))[:5]]
    assert rows
    cluster.offer(UpdateRequest(table=table, index=index, column="status",
                                row_ids=rows, values=[2] * len(rows)))
    cluster.drain()  # part B lowers over region; the gather
    after = _expected(index, predicates)
    np.testing.assert_array_equal(straddler.value, before)
    assert not np.array_equal(before, after)
    later = [cluster.offer(_read(index, predicates)) for _ in range(2)]
    cluster.drain()
    for record in later:
        np.testing.assert_array_equal(record.value, after)
    assert later[1].value is later[0].value


def _cluster_session(sanitize: bool) -> PimSession:
    return PimSession.over_cluster(
        num_shards=3,
        router=ShardRouter(3, replication_factor=2),
        engine_factory=_engine,
        sanitize=sanitize,
        policy=BatchPolicy(max_batch=4, window_ns=None),
        max_queue_depth=256,
    )


#: Scattered questions (two or three columns each) the cluster streams repeat.
SCATTERED = (
    PREDICATES,
    (("region", (1, 4)), ("tier", (0, 2))),
    (("status", (2,)), ("tier", (1,)), ("region", (0, 5))),
)

# One step asks a question, lets one shard lower ahead of the others, maybe
# writes, kills a shard or re-places a column, and asks again: a gather
# that straddles a write needs exactly that.
_CLUSTER_STEPS = st.lists(
    st.tuples(
        st.integers(0, len(SCATTERED) - 1),
        st.integers(1, 2),
        st.one_of(st.none(), st.integers(0, 2)),
        st.one_of(
            st.none(),
            st.tuples(st.just("update"), st.sampled_from(sorted(CARDINALITIES)),
                      st.integers(0, 2**16)),
            st.tuples(st.just("kill"), st.integers(0, 2)),
            st.tuples(st.just("replace"), st.sampled_from(sorted(CARDINALITIES)),
                      st.integers(0, 2)),
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


def _play_cluster(steps, sanitize: bool) -> str:
    """Serve ``steps`` on a fresh table and 3-shard cluster; a digest of
    every response (status, reason, times, value bytes, details)."""
    table, index = _table_index()
    session = _cluster_session(sanitize)
    cluster = session.backend
    for template, repeats, ahead, event, drain in steps:
        for _ in range(repeats):
            session.submit(_read(index, SCATTERED[template]))
        if ahead is not None:
            cluster.shards[ahead].serve_batch()
        if event is not None and event[0] == "update":
            rng = np.random.default_rng(event[2])
            rows = rng.choice(ROWS, size=8, replace=False)
            codes = rng.integers(0, CARDINALITIES[event[1]], size=8)
            session.submit(UpdateRequest(table=table, index=index, column=event[1],
                                         row_ids=[int(r) for r in rows],
                                         values=[int(c) for c in codes]))
        elif event is not None and event[0] == "kill":
            cluster.fail_shard(event[1])
        elif event is not None:
            cluster.add_replica(event[1], event[2])
        for _ in range(repeats):
            session.submit(_read(index, SCATTERED[template]))
        if drain:
            session.drain()
    digest = hashlib.sha256()
    for response in session.responses():
        value = np.asarray(response.value)
        digest.update(repr((
            response.status, response.rejected_reason, response.finish_ns,
            value.dtype.str, value.tobytes(), response.details,
        )).encode())
    return digest.hexdigest()


@settings(max_examples=30, deadline=None)
@given(steps=_CLUSTER_STEPS)
def test_gathered_answers_hold_under_writes_a_kill_and_re_placement(steps):
    """The sanitizer merges afresh behind every held gather answer and
    raises :class:`SharedAnswerError` on a difference; the unchecked run
    answers every request identically."""
    assert _play_cluster(steps, sanitize=False) == _play_cluster(steps, sanitize=True)


class TestOneCountPerAnswer:
    """A session counts a shared answer once: a read-only array that owns
    its bytes is looked up by identity, held weakly, in a bounded table.
    The lookup must never hand out the count of a different, dead or
    rewritten array."""

    @staticmethod
    def _bits(seed: int, read_only: bool) -> np.ndarray:
        bits = np.random.default_rng(seed).integers(0, 256, size=64, dtype=np.uint8)
        bits.setflags(write=not read_only)
        return bits

    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(["new", "drop", "write", "reread"]),
                st.booleans(),
                st.integers(0, 10**6),
            ),
            max_size=40,
        )
    )
    def test_a_count_is_never_stale(self, script):
        """Arrays are made (each counted over its own row count), dropped
        (so a new one may take a dead one's ``id``) and, when writable,
        rewritten; every live array is counted after each step against a
        fresh popcount."""
        session = PimSession.over_host()
        live = []
        for op, read_only, n in script:
            if op == "new":
                live.append((self._bits(n, read_only), 512 - n % 9))
            elif op == "drop" and live:
                del live[n % len(live)]
            elif op == "write" and live:
                bits = live[n % len(live)][0]
                if bits.flags.writeable:
                    bits[n % bits.size] ^= 1 << (n % 8)
            for bits, num_rows in live:
                assert session._count(bits, num_rows) == BitmapIndex.count(bits, num_rows)

    def test_a_recycled_id_is_not_served_the_dead_answers_count(self):
        """Deterministically, whatever the allocator does: the entry a
        dead answer left is moved under a new answer's ``id``."""
        session = PimSession.over_host()
        dead = self._bits(1, read_only=True)
        assert session._count(dead, 512) == BitmapIndex.count(dead, 512)
        entry = session._counts.pop(id(dead))
        del dead
        fresh = np.zeros(64, dtype=np.uint8)
        fresh.setflags(write=False)
        session._counts[id(fresh)] = entry
        assert session._count(fresh, 512) == 0

    def test_one_answer_shares_one_count_and_the_table_is_bounded(self):
        from repro.api.session import COUNTS_HELD

        session = PimSession.over_host()
        answer = self._bits(2, read_only=True)
        first = session._count(answer, 512)
        assert first > 256 and session._count(answer, 512) is first
        # The count is of the answer's first `num_rows` bits.
        assert session._count(answer, 300) == BitmapIndex.count(answer, 300) < first
        # Writable arrays and views are counted every time, never held.
        for bits in (self._bits(3, read_only=False), answer[:32]):
            session._count(bits, 256)
            assert id(bits) not in session._counts
        held = [self._bits(seed, read_only=True) for seed in range(COUNTS_HELD + 40)]
        for bits in held:
            session._count(bits, 512)
        assert len(session._counts) == COUNTS_HELD
        assert id(held[-1]) in session._counts and id(answer) not in session._counts

    def test_the_responses_of_one_answer_share_its_count(self):
        index = _table_index()[1]
        session = _session(optimize=True, cache=True)
        futures = [session.conjunction(index, PREDICATES, at_ns=10.0 * i) for i in range(6)]
        responses = [future.result() for future in futures]
        assert all(r.value is responses[0].value for r in responses)
        assert all(r.matching_rows is responses[0].matching_rows for r in responses)
        assert responses[0].matching_rows == BitmapIndex.count(_expected(index), ROWS)
