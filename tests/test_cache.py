"""Tests for the repetition-aware result cache (`repro.cache`).

The load-bearing acceptance property: a cache-on frontend is bit-exact
with a cache-off frontend on any mixed read/write stream — on the
single-device service tier and the sharded cluster tier, both under
``sanitize=True``.  Around it: the ResultCache unit surface (LRU
eviction, read-only hits, column-level invalidation), the
same-batch write hazard regressions (the optimizer's batch-local CSE
table and the fills guarded by the index's write generation), end-to-end
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
    records = []
    for request in _mixed_stream(rng, table, index):
        records.append(frontend.offer(request))
        if rng.random() < 0.5:
            frontend.drain()  # cross-batch boundaries exercise the cache
    frontend.drain()
    return frontend, records


def _unit_indexes(count: int = 2):
    """Small real bitmap sources: weakly referenceable, with a generation."""
    return tuple(_table_index(np.random.default_rng(seed), rows=32)[1] for seed in range(count))


def _put(cache, key, index, column, packed=None):
    """Fill ``key`` at ``column``'s current write generation."""
    if packed is None:
        packed = np.zeros(4, dtype=np.uint8)
    cache.put(key, index, column, packed, index.generation((column,)))


def _keys(cache, index):
    return [key for key, _column, _generation, _nbytes in cache.live_for(index)]


class TestResultCacheUnit:
    def test_capacities_validate(self):
        with pytest.raises(ValueError):
            ResultCache(capacity_bytes=0)
        with pytest.raises(ValueError):
            ResultCache(capacity_entries=0)
        with pytest.raises(ValueError):
            ResultCache(capacity_bytes=-1)
        # NaN used to switch the byte bound off, True to mean 1 and 2.5
        # to pass as is.
        for knobs in (
            dict(capacity_bytes=float("nan")),
            dict(capacity_bytes=1024.0),
            dict(capacity_entries=True),
            dict(capacity_entries=2.5),
            dict(capacity_entries="8"),
        ):
            with pytest.raises(TypeError):
                ResultCache(**knobs)
        assert ResultCache(capacity_bytes=np.int64(64), capacity_entries=2).capacity_bytes == 64

    def test_resolve_normalizes(self):
        def resolve_cache(cache):
            return PipelineConfig.from_knobs(cache=cache).new_cache()

        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert isinstance(resolve_cache(True), ResultCache)
        cache = ResultCache()
        assert resolve_cache(cache) is cache

    def test_a_hit_is_the_stored_read_only_array(self):
        cache = ResultCache()
        (index,) = _unit_indexes(1)
        packed = np.arange(8, dtype=np.uint8)
        _put(cache, ("k",), index, "status", packed)
        first = cache.get(("k",), index)
        assert first is cache.get(("k",), index)  # no copy per hit...
        assert np.shares_memory(first, packed)  # ...nor per fill
        with pytest.raises(ValueError):
            first[:] = 0  # a consumer scribbling on its hit is refused
        assert np.array_equal(cache.get(("k",), index), np.arange(8, dtype=np.uint8))
        assert cache.hits == 3

    def test_lru_eviction_counts(self):
        cache = ResultCache(capacity_entries=2)
        (index,) = _unit_indexes(1)
        for i in range(3):
            _put(cache, (i,), index, "status")
        assert cache.live_entries == 2
        assert cache.evictions == 1
        assert cache.get((0,), index) is None  # oldest went first

    def test_invalidation_drops_only_dependent_entries(self):
        cache = ResultCache()
        (index,) = _unit_indexes(1)
        _put(cache, ("a",), index, "status")
        _put(cache, ("b",), index, "region")
        _put(cache, ("c",), index, "status")
        assert cache.invalidate_columns(index, ["status"]) == 2
        assert _keys(cache, index) == [("b",)]
        assert cache.invalidations == 2

    def test_invalidate_index_drops_everything_for_that_index(self):
        cache = ResultCache()
        index, other = _unit_indexes()
        _put(cache, ("a",), index, "status")
        _put(cache, ("a2",), index, "region")
        _put(cache, ("b",), other, "status")
        assert cache.invalidate_index(index) == 2
        assert _keys(cache, other) == [("b",)]

    @pytest.mark.parametrize("as_view", [False, True])
    def test_a_generation_bump_makes_get_miss(self, as_view):
        cache = ResultCache()
        (index,) = _unit_indexes(1)
        source = index.shard_view(["region", "status"]) if as_view else index
        _put(cache, ("s",), source, "status")
        _put(cache, ("r",), source, "region")
        assert cache.get(("s",), source) is not None
        index.mark_dirty(["status"])  # a write the cache never heard about
        assert cache.get(("s",), source) is None
        assert cache.get(("r",), source) is not None  # other columns stay current
        assert (cache.hits, cache.misses) == (2, 1)

    @settings(max_examples=25, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from(list(CARDINALITIES))), max_size=12
        ),
        owner=st.integers(0, 1),
        written=st.sets(st.sampled_from([*CARDINALITIES, "unindexed"])),
    )
    def test_invalidate_columns_drops_exactly_the_dependents(self, entries, owner, written):
        """The reference rule, spelled out: an entry goes iff it belongs
        to the written index and its column was written."""
        cache = ResultCache()
        indexes = _unit_indexes()
        for i, (which, column) in enumerate(entries):
            _put(cache, (i,), indexes[which], column)
        expected = [
            (i,) for i, (which, column) in enumerate(entries)
            if which == owner and column in written
        ]
        survivors = [(i,) for i in range(len(entries)) if (i,) not in expected]
        assert cache.invalidate_columns(indexes[owner], written) == len(expected)
        assert cache.invalidations == len(expected)
        live = _keys(cache, indexes[0]) + _keys(cache, indexes[1])
        assert sorted(live) == survivors

    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put", "put", "put", "get", "columns", "index", "clear"]),
                st.integers(0, 1),  # which index
                st.integers(0, 5),  # which key (re-put replaces)
                st.sets(st.sampled_from(list(CARDINALITIES)), min_size=1),
            ),
            max_size=30,
        )
    )
    def test_buckets_track_the_entries_through_every_mutation(self, ops):
        """Invalidation walks ``(source id, column) -> keys`` buckets
        instead of every entry, so the buckets must equal a scan of the
        entries after any mix of fills, replacements (also across sources
        and columns), LRU evictions, invalidations and clears — with the
        byte count and the counters exact."""
        cache = ResultCache(capacity_entries=4)
        indexes = _unit_indexes()
        model = {}  # key -> (which, columns), in LRU order
        evictions = invalidations = 0
        for op, which, k, columns in ops:
            key, index = (k,), indexes[which]
            if op == "put":
                column = min(columns)
                model.pop(key, None)
                model[key] = (which, {column})
                _put(cache, key, index, column)
                while len(model) > 4:
                    del model[next(iter(model))]
                    evictions += 1
            elif op == "get":
                hit = key in model and model[key][0] == which
                assert (cache.get(key, index) is not None) == hit
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
            by_bucket = {}
            for key, entry in cache._entries.items():
                by_bucket.setdefault(entry.bucket, set()).add(key)
            assert {b: set(keys) for b, keys in cache._buckets.items()} == by_bucket
            assert list(cache._entries) == list(model)
            assert cache.live_bytes == 4 * len(model)
            assert (cache.evictions, cache.invalidations) == (evictions, invalidations)
            for which, index in enumerate(indexes):
                assert sorted(_keys(cache, index)) == sorted(
                    key for key, (owner, _deps) in model.items() if owner == which
                )


class TestSourceLiveness:
    """``id(index)`` scopes entries and canonical keys, and an id
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
        assert cache.fills > 0 and cache.live_for(index)
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
        # One conjunction shape for both indexes, beside the one-predicate
        # shapes its sub-chains bind.
        (priced,) = [p for p in planner._chains.values() if p.canonical is not None]
        assert len(planner._chains) == 1 + len(self.PREDICATES)
        seen, frontier, ids = set(), list(planner._chains.values()), {id(index_a), id(index_b)}
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
            return [record.value for record in records]

        table, _plain = _table_index(np.random.default_rng(5))
        index = WideIndex(table, list(CARDINALITIES))
        old_values = serve(index)
        assert cache.fills > 0 and len(frontend.planner._chains) == 1 + len(self.PREDICATES)
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
        assert cache.hits == hits_before and len(frontend.planner._chains) == 1 + len(self.PREDICATES)


class TestBitExactness:
    """Cache on == cache off, under sanitize, on both tiers."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_service_tier(self, seed):
        on, on_records = _replay(seed, lambda t, i: _frontend(cache=True))
        _, off_records = _replay(seed, lambda t, i: _frontend(cache=None))
        on_records = [r for r in on_records if r.completed]
        off_records = [r for r in off_records if r.completed]
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
            return records

        on_records = serve(cache=True)
        off_records = serve(cache=None)
        assert len(on_records) == len(off_records)
        for ours, ref in zip(on_records, off_records):
            if is_write_request(ref.request):
                assert ours.value == ref.value
            else:
                assert np.array_equal(ours.value, ref.value)
        completed = [record for record in on_records if record.completed]
        assert sum(record.cache_hits for record in completed) > 0
        assert sum(record.cache_invalidations for record in completed) > 0


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
        # One answer per distinct question per write generation:
        # duplicates carry the same array...
        assert first.value is second.value
        assert fourth.value is fifth.value
        assert second.value is not fourth.value
        ledger = [
            (r.ops_eliminated, r.shared_subchains, r.cache_hits, r.cache_misses)
            for r in (first, second, fourth, fifth)
        ]
        misses = 1 if cache else 0  # a lookup only happens with a cache
        assert ledger == [(0, 0, 0, 3 * misses), (2, 3, 0, 0), (1, 2, 0, misses), (2, 3, 0, 0)]
        # ...and so does the same question in a later batch, until a write
        # touches one of its columns.
        sixth = read()
        frontend.drain()
        assert len(frontend.batches) == 2
        assert sixth.value is fourth.value
        frontend.offer(self._update_out_of_result(rng, table, index))
        seventh = read()
        frontend.drain()
        assert seventh.value is not sixth.value
        expected, _plan = index.evaluate_conjunction(predicates)
        assert np.array_equal(seventh.value, expected)
        assert np.array_equal(sixth.value, after)

    @pytest.mark.parametrize(
        "maintenance, through_view", [("eager", False), ("lazy", False), ("eager", True)]
    )
    def test_stale_fills_are_bypassed_by_the_generation_guard(self, maintenance, through_view):
        """A fill planned before a same-batch write to its column must not
        land.  The guard reads the index's write generation, so it holds
        whether the write rebinds the planes (eager) or only dirties them
        (lazy), and for a read through a shard view of the written index."""
        rng = np.random.default_rng(29)
        table, index = _table_index(rng)
        source = index.shard_view(["status", "region"]) if through_view else index
        frontend = _frontend(
            cache=True, maintenance=maintenance, policy=BatchPolicy(max_batch=2, window_ns=None)
        )
        first = frontend.offer(self._read(source))
        frontend.offer(self._update_out_of_result(rng, table, index))
        frontend.drain()
        cache = frontend.cache
        # Both predicates planned a fill; only the written column's is dropped.
        assert (cache.fills, cache.bypasses) == (1, 1)
        assert [column for _key, column, _rows, _nbytes in cache.live_for(source)] == ["region"]
        lint_cache_consistency(cache, source)  # nothing stale survived
        again = frontend.offer(self._read(source))
        frontend.drain()
        expected, _plan = index.evaluate_conjunction(self.PREDICATES)
        assert np.array_equal(again.value, expected)
        assert not np.array_equal(first.value, expected)

    def test_cache_consistency_lint_catches_planted_staleness(self):
        rng = np.random.default_rng(31)
        _table, index = _table_index(rng)
        cache = ResultCache()
        _put(cache, ("k",), index, "status", np.zeros((index.num_rows + 7) // 8, dtype=np.uint8))
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
        session = PimSession(frontend)
        session.submit(read)
        session.drain()
        session.submit(read)  # second batch: served from the cache
        session.drain()
        session.submit(
            AppendRequest(
                table=table, index=index,
                rows={name: [0] for name in CARDINALITIES},
            )
        )
        session.drain()
        metrics = session.report()
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
