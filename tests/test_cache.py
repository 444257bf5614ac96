"""Tests for the repetition-aware result cache (`repro.cache`).

The load-bearing acceptance property: a cache-on frontend is bit-exact
with a cache-off frontend on any mixed read/write stream — on the
single-device service tier and the sharded cluster tier, both under
``sanitize=True``.  Around it: the ResultCache unit surface (LRU
eviction, copy-out alias safety, column-level invalidation, write
epochs), the same-batch write hazard regressions (the optimizer's
batch-local CSE table and the epoch-guarded fills), end-to-end
accounting through ``Response.details`` and ``SessionReport``, and the
``cache.*`` observability counters.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.cache import ResultCache
from repro.cluster import ClusterFrontend
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ServiceFrontend,
)
from repro.storage import AppendRequest, UpdateRequest, is_write_request
from repro.verify import CacheConsistencyError
from repro.verify.plan_lint import lint_cache_consistency

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


def _table_index(rng, rows: int = 200):
    table = ColumnTable("t", rows)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(
            name, rng.integers(0, cardinality, size=rows), cardinality=cardinality
        )
    return table, BitmapIndex(table, list(CARDINALITIES))


def _frontend(cache, **kwargs) -> ServiceFrontend:
    kwargs.setdefault("policy", BatchPolicy(max_batch=4, window_ns=None))
    kwargs.setdefault("max_queue_depth", 256)
    kwargs.setdefault("maintenance", "eager")
    session = PimSession.over_service(engine=_engine(), sanitize=True, cache=cache, **kwargs)
    return session.backend


def _mixed_stream(rng, table, index, count: int = 24):
    """A repetition-heavy mixed stream against one table/index pair."""
    templates = []
    for _ in range(4):
        picked = rng.choice(len(CARDINALITIES), size=2, replace=False)
        predicates = []
        for c in picked:
            name = list(CARDINALITIES)[c]
            values = rng.choice(CARDINALITIES[name], size=2, replace=False)
            predicates.append((name, tuple(int(v) for v in values)))
        templates.append(tuple(predicates))
    requests = []
    for _ in range(count):
        if rng.random() < 0.25:
            row_ids = rng.choice(table.num_rows, size=6, replace=False)
            values = rng.integers(0, CARDINALITIES["status"], size=6)
            requests.append(
                UpdateRequest(
                    table=table, index=index, column="status",
                    row_ids=[int(r) for r in row_ids],
                    values=[int(v) for v in values],
                )
            )
        else:
            requests.append(
                BitmapConjunctionRequest(
                    index=index,
                    predicates=templates[int(rng.integers(0, len(templates)))],
                )
            )
    return requests


def _replay(rng_seed: int, build):
    """Serve the same seeded stream through ``build(table, index)``."""
    rng = np.random.default_rng(rng_seed)
    table, index = _table_index(rng)
    frontend = build(table, index)
    for request in _mixed_stream(rng, table, index):
        frontend.offer(request)
        if rng.random() < 0.5:
            frontend.drain()  # cross-batch boundaries exercise the cache
    frontend.drain()
    return frontend


class TestResultCacheUnit:
    def test_capacities_validate(self):
        with pytest.raises(ValueError):
            ResultCache(capacity_bytes=0)
        with pytest.raises(ValueError):
            ResultCache(capacity_entries=0)

    def test_resolve_normalizes(self):
        def resolve_cache(cache):
            return PipelineConfig.from_knobs(cache=cache).new_cache()

        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert isinstance(resolve_cache(True), ResultCache)
        cache = ResultCache()
        assert resolve_cache(cache) is cache

    def test_hits_return_copies_never_the_stored_buffer(self):
        cache = ResultCache()
        index = object()
        cache.put(("k",), index, ("status",), np.arange(8, dtype=np.uint8), 64)
        first = cache.get(("k",), index, 64)
        first[:] = 0  # a consumer scribbling on its hit...
        second = cache.get(("k",), index, 64)
        assert np.array_equal(second, np.arange(8, dtype=np.uint8))  # ...harms nobody
        assert cache.hits == 2

    def test_lru_eviction_counts(self):
        cache = ResultCache(capacity_entries=2)
        index = object()
        for i in range(3):
            cache.put((i,), index, ("c",), np.zeros(4, dtype=np.uint8), 32)
        assert cache.live_entries == 2
        assert cache.evictions == 1
        assert cache.get((0,), index, 32) is None  # oldest went first

    def test_invalidation_drops_only_dependent_entries(self):
        cache = ResultCache()
        index = object()
        cache.put(("a",), index, ("status",), np.zeros(4, dtype=np.uint8), 32)
        cache.put(("b",), index, ("region",), np.zeros(4, dtype=np.uint8), 32)
        cache.put(("c",), index, ("region", "status"), np.zeros(4, dtype=np.uint8), 32)
        assert cache.invalidate_columns(index, ["status"]) == 2
        assert cache.entries_for(index) == [("b",)]
        assert cache.invalidations == 2

    def test_invalidate_index_drops_everything_for_that_index(self):
        cache = ResultCache()
        index, other = object(), object()
        cache.put(("a",), index, ("status",), np.zeros(4, dtype=np.uint8), 32)
        cache.put(("b",), other, ("status",), np.zeros(4, dtype=np.uint8), 32)
        assert cache.invalidate_index(index) == 1
        assert cache.entries_for(other) == [("b",)]

    def test_write_epochs_advance_on_invalidation(self):
        cache = ResultCache()
        index = object()
        before = cache.write_epoch(index, ["status"])
        cache.invalidate_columns(index, ["status"])
        assert cache.write_epoch(index, ["status"]) > before
        untouched = cache.write_epoch(index, ["region"])
        cache.invalidate_index(index)  # appends/deletes bump index-wide
        assert cache.write_epoch(index, ["region"]) > untouched

    def test_row_count_mismatch_is_dropped_defensively(self):
        cache = ResultCache()
        index = object()
        cache.put(("k",), index, ("c",), np.zeros(4, dtype=np.uint8), 32)
        assert cache.get(("k",), index, 40) is None
        assert cache.live_entries == 0


    @settings(max_examples=25, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 1), st.sets(st.sampled_from("abcd"), min_size=1)),
            max_size=12,
        ),
        owner=st.integers(0, 1),
        written=st.sets(st.sampled_from("abcde")),
    )
    def test_invalidate_columns_drops_exactly_the_dependents(self, entries, owner, written):
        """The reference rule, spelled out: an entry goes iff it belongs
        to the written index and depends on a written column; exactly the
        written columns' epochs (of that index only) advance."""
        cache = ResultCache()
        indexes = (object(), object())
        for i, (which, columns) in enumerate(entries):
            cache.put((i,), indexes[which], sorted(columns), np.zeros(4, dtype=np.uint8), 32)
        expected = [
            (i,) for i, (which, columns) in enumerate(entries)
            if which == owner and columns & written
        ]
        survivors = [(i,) for i in range(len(entries)) if (i,) not in expected]
        epochs = {
            (which, c): cache.write_epoch(indexes[which], [c]) for which in (0, 1) for c in "abcde"
        }
        assert cache.invalidate_columns(indexes[owner], written) == len(expected)
        assert cache.invalidations == len(expected)
        live = cache.entries_for(indexes[0]) + cache.entries_for(indexes[1])
        assert sorted(live) == survivors
        for (which, c), before in epochs.items():
            bumped = which == owner and c in written
            assert cache.write_epoch(indexes[which], [c]) == before + bumped

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "put", "put", "get", "columns", "index", "clear"]),
                st.integers(0, 1),  # which index
                st.integers(0, 5),  # which key (re-put replaces)
                st.sets(st.sampled_from("abc"), min_size=1),
            ),
            max_size=30,
        )
    )
    def test_reverse_maps_track_the_entries_through_every_mutation(self, ops):
        """Invalidation walks ``(source, column) -> keys`` instead of
        every entry, so those maps must equal a scan of the entries after
        any mix of fills, replacements (also across sources and column
        sets), LRU evictions, defensive drops, invalidations and clears —
        with the byte count and the counters exact."""
        cache = ResultCache(capacity_entries=4)
        indexes = (object(), object())
        model = {}  # key -> (which, columns), in LRU order
        evictions = invalidations = 0
        for op, which, k, columns in ops:
            key, index = (k,), indexes[which]
            if op == "put":
                model.pop(key, None)
                model[key] = (which, columns)
                cache.put(key, index, sorted(columns), np.zeros(4, dtype=np.uint8), 32)
                while len(model) > 4:
                    del model[next(iter(model))]
                    evictions += 1
            elif op == "get":
                hit = key in model and model[key][0] == which
                assert (cache.get(key, index, 32) is not None) == hit
                if hit:
                    model[key] = model.pop(key)
            else:
                stale = [
                    key for key, (owner, deps) in model.items()
                    if op == "clear" or (owner == which and (op == "index" or deps & columns))
                ]
                dropped = {
                    "columns": lambda: cache.invalidate_columns(index, columns),
                    "index": lambda: cache.invalidate_index(index),
                    "clear": cache.clear,
                }[op]()
                assert dropped in (len(stale), None)
                invalidations += len(stale)
                for key in stale:
                    del model[key]
            by_index, by_column = {}, {}
            for key, entry in cache._entries.items():
                by_index.setdefault(entry.index_id, set()).add(key)
                for column in entry.columns:
                    by_column.setdefault((entry.index_id, column), set()).add(key)
            assert {i: set(keys) for i, keys in cache._index_keys.items()} == by_index
            assert {c: set(keys) for c, keys in cache._column_keys.items()} == by_column
            assert list(cache._entries) == list(model)
            assert cache.live_bytes == 4 * len(model)
            assert (cache.evictions, cache.invalidations) == (evictions, invalidations)
            for which, index in enumerate(indexes):
                assert sorted(cache.entries_for(index)) == sorted(
                    key for key, (owner, _deps) in model.items() if owner == which
                )


class TestSourceLiveness:
    """``id(index)`` scopes entries, epochs and canonical keys, and an id
    is unique only among live objects: a shared cache must never let a
    dead index's state answer for a new one at the recycled address."""

    PREDICATES = [("region", (1, 2)), ("status", (0, 1))]

    @staticmethod
    def _session(cache) -> PimSession:
        return PimSession.over_service(engine=_engine(), optimize=True, cache=cache)

    @pytest.fixture(autouse=True)
    def _populated_size_class(self):
        """The recycled-address tests free one wide index and wait for the
        allocator to hand its block back.  A block that was alone in its
        pool goes back to the arena instead and may not return for
        megabytes — how often depends on everything the process ran
        before.  So pin a few pools of that size class half full for the
        test's duration: the wide index then always lives, and dies,
        beside live neighbours, and its block is the next one handed out."""

        class Wide(BitmapIndex):
            __slots__ = tuple(f"_pad{i}" for i in range(40))

        neighbours = [Wide.__new__(Wide) for _ in range(64)]  # > one 16 KiB pool of 384 B blocks
        del neighbours[1::2]
        yield
        del neighbours

    def test_a_recycled_id_never_serves_the_dead_indexs_bitmaps(self):
        class WideIndex(BitmapIndex):
            """An index in an allocator size class almost nothing else
            uses, so a freed instance's address comes straight back."""

            __slots__ = tuple(f"_pad{i}" for i in range(40))

        cache = ResultCache()
        table, _plain = _table_index(np.random.default_rng(1))
        index = WideIndex(table, list(CARDINALITIES))
        session = self._session(cache)
        session.conjunction(index, self.PREDICATES).result()
        assert cache.fills > 0 and cache.entries_for(index)
        dead_id = id(index)
        table, _plain = _table_index(np.random.default_rng(2))  # different data
        del session, index
        gc.collect()
        # Same-shaped indexes over the other data until one lands on the
        # dead one's address (the misses stay pinned: they walk the
        # allocator's free list instead of recycling one block).
        hits_before = cache.hits
        misses = []
        for _ in range(10_000):
            index = WideIndex(table, list(CARDINALITIES))
            if id(index) == dead_id:
                break
            misses.append(index)
        else:
            pytest.skip("the allocator never reused the dead index's id")
        response = self._session(cache).conjunction(index, self.PREDICATES).result()
        expected, _plan = index.evaluate_conjunction(self.PREDICATES)
        np.testing.assert_array_equal(response.value, expected)
        assert cache.hits == hits_before  # nothing of the dead index answered

    def test_an_interned_shape_never_answers_for_another_index(self):
        """The planner interns what a conjunction derives from its shape
        alone — one entry for every index of that shape — so the entry
        must carry no source identity: two equal-shaped indexes in ONE
        batch share nothing, and nothing reachable from the intern is
        (or names) an index."""
        _table, index_a = _table_index(np.random.default_rng(3))
        _table, index_b = _table_index(np.random.default_rng(4))
        session = self._session(cache=True)
        planner = session.backend.planner
        futures = [
            session.conjunction(index, self.PREDICATES)
            for index in (index_a, index_b, index_a, index_b)
        ]
        session.drain()
        assert len(session.backend.batches) == 1
        for future, index in zip(futures, (index_a, index_b, index_a, index_b)):
            expected, _plan = index.evaluate_conjunction(self.PREDICATES)
            np.testing.assert_array_equal(future.result().value, expected)
        assert not np.array_equal(futures[0].result().value, futures[1].result().value)
        # Each index's duplicate rode its own first request, never the other's.
        assert [f.record.shared_subchains for f in futures] == [0, 0, 2, 2]
        assert futures[0].result().value is futures[2].result().value
        assert futures[1].result().value is futures[3].result().value
        (priced,) = planner._chains.values()  # one shape for both indexes
        assert priced.canonical is not None
        seen, frontier, ids = set(), [priced], {id(index_a), id(index_b)}
        while frontier:
            node = frontier.pop()
            if id(node) in seen or isinstance(node, type):
                continue
            seen.add(id(node))
            assert not isinstance(node, (BitmapIndex, np.ndarray)), type(node)
            assert not (isinstance(node, int) and node in ids)
            frontier.extend(gc.get_referents(node))

    def test_a_recycled_id_never_rides_an_interned_shape(self):
        """Same planner, same interned shape, a new index at a collected
        one's address: it is lowered from its own planes (the batch CSE
        tables die with their batch, the shape names no index, and the
        cache answers only for the live object it was filled from)."""

        class WideIndex(BitmapIndex):
            __slots__ = tuple(f"_pad{i}" for i in range(41))

        frontend = self._session(cache=True).backend
        cache = frontend.cache

        def serve(index):
            records = [
                frontend.offer(
                    BitmapConjunctionRequest(index=index, predicates=tuple(self.PREDICATES))
                )
                for _ in range(2)
            ]
            frontend.drain()
            values = [record.value for record in records]
            frontend.records.clear()  # the envelopes pin their request's index
            return values

        table, _plain = _table_index(np.random.default_rng(5))
        index = WideIndex(table, list(CARDINALITIES))
        old_values = serve(index)
        assert cache.fills > 0 and len(frontend.planner._chains) == 1
        dead_id = id(index)
        table, _plain = _table_index(np.random.default_rng(6))  # different data
        del index
        gc.collect()
        hits_before = cache.hits
        misses = []
        for _ in range(10_000):
            index = WideIndex(table, list(CARDINALITIES))
            if id(index) == dead_id:
                break
            misses.append(index)
        else:
            pytest.skip("the allocator never reused the dead index's id")
        expected, _plan = index.evaluate_conjunction(self.PREDICATES)
        for value in serve(index):
            np.testing.assert_array_equal(value, expected)
        assert not np.array_equal(old_values[0], expected)
        assert cache.hits == hits_before and len(frontend.planner._chains) == 1

    @pytest.mark.parametrize("as_view", [False, True])
    def test_entries_and_epochs_die_with_their_source(self, as_view):
        cache = ResultCache()
        _table, index = _table_index(np.random.default_rng(2))
        source = index.shard_view(["region", "status"]) if as_view else index
        cache.put(("k",), source, ("status",), np.zeros(4, dtype=np.uint8), 32)
        cache.invalidate_columns(source, ["region"])
        cache.invalidate_index(source)  # drops the entry, bumps the index epoch
        cache.put(("k",), source, ("status",), np.zeros(4, dtype=np.uint8), 32)
        other = object()
        cache.put(("o",), other, ("status",), np.zeros(4, dtype=np.uint8), 32)
        assert cache.write_epoch(source, ["region"]) == 2
        del source, index, _table
        gc.collect()
        assert cache.live_entries == 1 and cache.live_bytes == 4
        assert cache.entries_for(other) == [("o",)]
        assert not cache._index_epochs and not cache._column_epochs
        assert list(cache._owners) == [id(other)]


class TestBitExactness:
    """Cache on == cache off, under sanitize, on both tiers."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_service_tier(self, seed):
        on = _replay(seed, lambda t, i: _frontend(cache=True))
        off = _replay(seed, lambda t, i: _frontend(cache=None))
        on_records = on.result().completed()
        off_records = off.result().completed()
        assert len(on_records) == len(off_records)
        for ours, ref in zip(on_records, off_records):
            if is_write_request(ref.request):
                assert ours.value == ref.value
            else:
                assert np.array_equal(ours.value, ref.value)
        assert on.cache is not None and on.cache.hits > 0

    @pytest.mark.parametrize("seed", [3, 17])
    def test_cluster_tier(self, seed):
        def serve(cache):
            rng = np.random.default_rng(seed)
            table, index = _table_index(rng)
            cluster = ClusterFrontend(
                num_shards=2,
                config=PipelineConfig.from_knobs(
                    policy=BatchPolicy(max_batch=4, window_ns=None),
                    sanitize=True,
                    cache=cache,
                    maintenance="eager",
                ),
                engine_factory=lambda: _engine(),
            )
            records = []
            for request in _mixed_stream(rng, table, index, count=16):
                records.append(cluster.offer(request))
                if rng.random() < 0.5:
                    cluster.drain()
            cluster.drain()
            return records, cluster

        on_records, on_cluster = serve(cache=True)
        off_records, _ = serve(cache=None)
        assert len(on_records) == len(off_records)
        for ours, ref in zip(on_records, off_records):
            if is_write_request(ref.request):
                assert ours.value == ref.value
            else:
                assert np.array_equal(ours.value, ref.value)
        metrics = on_cluster.result().metrics
        assert metrics.cache_hits > 0
        assert metrics.cache_invalidations > 0


class TestSameBatchWriteHazards:
    """Writes landing mid-batch must not leak pre-write state."""

    PREDICATES = (("status", (0, 1)), ("region", (0, 1, 2)))

    def _read(self, index):
        return BitmapConjunctionRequest(index=index, predicates=self.PREDICATES)

    def _update_out_of_result(self, rng, table, index):
        """Move matching rows to status=3, shrinking the read's result."""
        status = table.column("status")
        matching = np.flatnonzero((status == 0) | (status == 1))[:40]
        return UpdateRequest(
            table=table, index=index, column="status",
            row_ids=[int(r) for r in matching],
            values=[3] * len(matching),
        )

    def test_batch_local_cse_is_invalidated_by_writes(self):
        """Regression: read / write / read closing in ONE batch.  The
        second read must re-emit from the mutated planes instead of
        riding the first read's CSE'd sub-chain vector."""

        def serve(cache):
            rng = np.random.default_rng(23)
            table, index = _table_index(rng)
            frontend = _frontend(cache=cache, policy=BatchPolicy(max_batch=3, window_ns=None))
            first = frontend.offer(self._read(index))
            frontend.offer(self._update_out_of_result(rng, table, index))
            second = frontend.offer(self._read(index))
            frontend.drain()
            return first, second

        on_first, on_second = serve(cache=True)
        off_first, off_second = serve(cache=None)
        # The write really changed the answer mid-batch...
        assert not np.array_equal(off_first.value, off_second.value)
        # ...and the optimized path tracked it bit for bit.
        assert np.array_equal(on_first.value, off_first.value)
        assert np.array_equal(on_second.value, off_second.value)

    @pytest.mark.parametrize("cache", [True, False])
    @pytest.mark.parametrize("maintenance", ["eager", "lazy", "hybrid"])
    def test_whole_conjunction_entries_are_dropped_by_writes(self, maintenance, cache):
        """Read, read, update, read, read of one 3-predicate conjunction
        closing in ONE batch.  The duplicates ride request-level CSE
        entries (one shared answer before the write, one after); the
        write must drop the whole-conjunction entry — not only the
        predicate entry of the column it touched — so the reads behind it
        answer from the mutated planes, with the ledger the per-predicate
        path always produced."""
        predicates = (("status", (0, 1)), ("region", (0, 1)), ("tier", (2,)))
        rng = np.random.default_rng(37)
        table, index = _table_index(rng)
        frontend = _frontend(
            cache=cache,
            optimize=True,
            maintenance=maintenance,
            policy=BatchPolicy(max_batch=5, window_ns=None),
        )

        def read():
            return frontend.offer(BitmapConjunctionRequest(index=index, predicates=predicates))

        first, second = read(), read()
        frontend.offer(self._update_out_of_result(rng, table, index))
        fourth, fifth = read(), read()
        before, _plan = index.evaluate_conjunction(predicates)
        frontend.drain()  # lowering applies the write
        after, _plan = index.evaluate_conjunction(predicates)
        assert len(frontend.batches) == 1
        assert not np.array_equal(before, after)
        for record, expected in ((first, before), (second, before), (fourth, after), (fifth, after)):
            assert np.array_equal(record.value, expected)
        # One answer per distinct question: duplicates carry the same array.
        assert first.value is second.value
        assert fourth.value is fifth.value
        assert second.value is not fourth.value
        ledger = [
            (r.ops_eliminated, r.shared_subchains, r.cache_hits, r.cache_misses)
            for r in (first, second, fourth, fifth)
        ]
        misses = 1 if cache else 0  # a lookup only happens with a cache
        assert ledger == [(0, 0, 0, 3 * misses), (2, 3, 0, 0), (1, 2, 0, misses), (2, 3, 0, 0)]

    def test_stale_fills_are_bypassed_by_the_epoch_guard(self):
        """A fill planned before a same-batch write must not land."""
        rng = np.random.default_rng(29)
        table, index = _table_index(rng)
        frontend = _frontend(cache=True, policy=BatchPolicy(max_batch=2, window_ns=None))
        frontend.offer(self._read(index))
        frontend.offer(self._update_out_of_result(rng, table, index))
        frontend.drain()
        cache = frontend.cache
        assert cache.bypasses > 0
        lint_cache_consistency(cache, index)  # nothing stale survived

    def test_cache_consistency_lint_catches_planted_staleness(self):
        rng = np.random.default_rng(31)
        _table, index = _table_index(rng)
        cache = ResultCache()
        cache.put(("k",), index, ("status",), np.zeros((index.num_rows + 7) // 8, dtype=np.uint8), index.num_rows)
        lint_cache_consistency(cache, index)  # clean entry certifies
        index.mark_dirty(["status"])  # a write the cache never heard about
        with pytest.raises(CacheConsistencyError):
            lint_cache_consistency(cache, index)


class TestAccounting:
    def test_frontend_metrics_and_obs_counters(self):
        rng = np.random.default_rng(41)
        table, index = _table_index(rng)
        frontend = _frontend(cache=True, observe=True)
        read = BitmapConjunctionRequest(
            index=index, predicates=(("status", (0, 1)), ("tier", (0, 1)))
        )
        frontend.offer(read)
        frontend.drain()
        frontend.offer(read)  # second batch: served from the cache
        frontend.drain()
        frontend.offer(
            AppendRequest(
                table=table, index=index,
                rows={name: [0] for name in CARDINALITIES},
            )
        )
        frontend.drain()
        metrics = frontend.result().metrics
        assert metrics.cache_hits > 0
        assert metrics.cache_misses > 0
        assert metrics.cache_invalidations > 0
        counters = frontend.obs.metrics.snapshot()["counters"]
        assert counters["cache.hit"] == metrics.cache_hits
        assert counters["cache.miss"] == metrics.cache_misses
        assert counters["cache.invalidations"] == metrics.cache_invalidations

    def test_session_responses_and_report_carry_cache_fields(self):
        rng = np.random.default_rng(43)
        table, index = _table_index(rng)
        session = PimSession(_frontend(cache=True), name="cached")
        predicates = [("status", (0, 1)), ("region", (0, 1))]
        session.conjunction(index, predicates)
        session.drain()
        repeat = session.conjunction(index, predicates)
        session.drain()
        write = session.update(index=index, table=table, column="status", row_ids=[0, 1], values=[2, 3])
        session.drain()
        assert repeat.response().details.cache_hits >= 1
        assert write.response().value == 2
        report = session.report()
        assert report.details.cache_hits >= 1
        assert report.details.cache_invalidations >= 1
