"""Tests for repro.service — batched execution of bulk in-DRAM operations.

The load-bearing properties:

* batched results are bit-exact with one-at-a-time sequential execution on
  both the analytical and the functional path,
* a batch charges exactly the energy sequential execution would, and
* the batch latency (makespan) only improves through bank-level overlap:
  it is never below the longest single request, never below the serial
  latency divided by the bank count, and never above the serial latency.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.metrics import BatchMetrics, combine_serial
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.api import PimSession
from repro.database.queries import QueryEngine
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.rowclone.engine import CopyMode
from repro.service import (
    SCAN_KINDS,
    BatchExecutor,
    BatchPlanner,
    BitmapConjunctionRequest,
    BulkOpRequest,
    CopyRequest,
    PipelineConfig,
    QueuedRequest,
    ScanRequest,
    VectorPool,
)


def _device(banks: int = 4, rows_per_subarray: int = 32) -> DramDevice:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=banks,
        subarrays_per_bank=2,
        rows_per_subarray=rows_per_subarray,
        row_size_bytes=64,
    )
    return DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )


def _engine(banks: int = 4, vectorized: bool = True) -> AmbitEngine:
    device = _device(banks)
    return AmbitEngine(
        device,
        AmbitConfig(banks_parallel=banks, vectorized_functional=vectorized),
    )


def _random_column(rng, num_bits: int, rows: int) -> BitWeavingColumn:
    return BitWeavingColumn(rng.integers(0, 1 << num_bits, size=rows), num_bits)


def _scan(column, kind: str, *constants: int) -> ScanRequest:
    return ScanRequest(column=column, kind=kind, constants=constants)


class TestBatchedScansBitExact:
    @pytest.mark.parametrize("functional", [False, True])
    def test_mixed_scan_batch_matches_sequential(self, functional):
        rng = np.random.default_rng(3)
        columns = [_random_column(rng, 8, 300) for _ in range(3)]
        scans = []
        for i, column in enumerate(columns):
            scans.append((column, "between", (10, 200)))
            scans.append((column, "equal", (i * 11,)))
            scans.append((column, "less_than", (255,)))
            scans.append((column, "less_equal", (0,)))
        batch = BatchExecutor(engine=_engine()).run(
            [_scan(column, kind, *constants) for column, kind, constants in scans],
            functional=functional,
        )

        assert len(batch) == len(scans)
        for (column, kind, constants), result in zip(scans, batch.results):
            expected, _ = column.scan(kind, *constants)
            assert np.array_equal(result.value, expected)

    @settings(max_examples=25, deadline=None)
    @given(
        num_bits=st.integers(1, 6),
        rows=st.integers(1, 400),
        seed=st.integers(0, 2**16),
        constants=st.lists(st.integers(0, 63), min_size=1, max_size=6),
        functional=st.booleans(),
    )
    def test_property_batch_bit_exact_with_sequential(
        self, num_bits, rows, seed, constants, functional
    ):
        """The acceptance property: BatchExecutor output == sequential output."""
        rng = np.random.default_rng(seed)
        column = _random_column(rng, num_bits, rows)
        executor = BatchExecutor(engine=_engine())
        kinds = ["less_than", "less_equal", "equal", "between"]
        scans = []
        for i, constant in enumerate(constants):
            constant %= 1 << num_bits
            kind = kinds[i % len(kinds)]
            if kind == "between":
                high = max(constant, (1 << num_bits) - 1 - constant)
                scans.append((column, kind, (min(constant, high), high)))
            else:
                scans.append((column, kind, (constant,)))
        batch = executor.run(
            [_scan(column, kind, *cs) for _, kind, cs in scans], functional=functional
        )

        serial_energy = 0.0
        serial_latency = 0.0
        query_engine = QueryEngine(ambit=executor.engine)
        for (column_, kind, cs), result in zip(scans, batch.results):
            expected, plan = column_.scan(kind, *cs)
            # Bit-exact with sequential execution.
            assert np.array_equal(result.value, expected)
            # Per-request cost identical to the sequential cost model.
            sequential = query_engine.ambit_scan_cost(plan)
            assert result.metrics.latency_ns == pytest.approx(sequential.latency_ns)
            assert result.metrics.energy_j == pytest.approx(sequential.energy_j)
            serial_energy += sequential.energy_j
            serial_latency += sequential.latency_ns

        # Batch energy is exactly the sequential sum; latency only improves
        # via bank overlap and never below the per-bank bound.
        assert batch.metrics.energy_j == pytest.approx(serial_energy)
        assert batch.metrics.serial_latency_ns == pytest.approx(serial_latency)
        assert batch.metrics.latency_ns <= serial_latency * (1 + 1e-9)
        longest = max(r.metrics.latency_ns for r in batch.results)
        banks = executor.engine.config.banks_parallel
        assert batch.metrics.latency_ns >= longest * (1 - 1e-9)
        assert batch.metrics.latency_ns >= serial_latency / banks * (1 - 1e-9)

    def test_functional_and_analytical_batches_agree(self):
        rng = np.random.default_rng(11)
        column = _random_column(rng, 7, 500)
        scans = [("between", (5, 100)), ("equal", (64,)), ("less_than", (33,))]

        outputs = []
        for functional in (False, True):
            requests = [_scan(column, kind, *constants) for kind, constants in scans]
            outputs.append(BatchExecutor(engine=_engine()).run(requests, functional=functional))
        for a, b in zip(outputs[0].results, outputs[1].results):
            assert np.array_equal(a.value, b.value)
            assert a.metrics.latency_ns == pytest.approx(b.metrics.latency_ns)
            assert a.metrics.energy_j == pytest.approx(b.metrics.energy_j)

    def test_fusion_changes_no_results_or_costs(self):
        rng = np.random.default_rng(5)
        column = _random_column(rng, 8, 256)
        batches = []
        for fuse in (True, False):
            requests = [_scan(column, "between", 20, 220), _scan(column, "between", 40, 200)]
            batches.append(
                BatchExecutor(engine=_engine(), fuse=fuse).run(requests, functional=True)
            )
        fused, unfused = batches
        for a, b in zip(fused.results, unfused.results):
            assert np.array_equal(a.value, b.value)
            assert a.metrics.energy_j == pytest.approx(b.metrics.energy_j)
        assert fused.metrics.energy_j == pytest.approx(unfused.metrics.energy_j)
        assert fused.metrics.latency_ns == pytest.approx(unfused.metrics.latency_ns)
        assert "fused" in fused.metrics.notes


class TestBatchedBulkOps:
    @pytest.mark.parametrize("functional", [False, True])
    def test_bulk_ops_bit_exact_with_direct_execution(self, functional):
        engine = _engine()
        a = engine.alloc_vector(600).fill_random(seed=1)
        b = engine.alloc_vector(600).fill_random(seed=2)
        c = engine.alloc_vector(600).fill_random(seed=3)
        requests = [
            BulkOpRequest(op="xor", a=a, b=b),
            BulkOpRequest(op="nand", a=b, b=c),
            BulkOpRequest(op="not", a=a),
        ]
        batch = BatchExecutor(engine=engine).run(requests, functional=functional)

        reference_engine = _engine()
        ra = reference_engine.alloc_vector(600)
        rb = reference_engine.alloc_vector(600)
        rc = reference_engine.alloc_vector(600)
        ra.data[:] = a.data
        rb.data[:] = b.data
        rc.data[:] = c.data
        for (op, x, y), result in zip(
            [("xor", ra, rb), ("nand", rb, rc), ("not", ra, None)], batch.results
        ):
            expected, metrics = reference_engine.execute(op, x, y, functional=functional)
            assert np.array_equal(result.value.data, expected.data)
            assert result.metrics.latency_ns == pytest.approx(metrics.latency_ns)
            assert result.metrics.energy_j == pytest.approx(metrics.energy_j)

    def test_copies_charge_rowclone_costs(self):
        executor = BatchExecutor(engine=_engine())
        batch = executor.run(
            [
                CopyRequest(num_bytes=1024),
                CopyRequest(num_bytes=4096, mode=CopyMode.PSM),
                CopyRequest(num_bytes=2048, fill=True),
            ]
        )
        reference = [
            executor.rowclone.bulk_copy(1024),
            executor.rowclone.bulk_copy(4096, CopyMode.PSM),
            executor.rowclone.bulk_fill(2048),
        ]
        for result, expected in zip(batch.results, reference):
            assert result.metrics.latency_ns == pytest.approx(expected.latency_ns)
            assert result.metrics.energy_j == pytest.approx(expected.energy_j)
        assert batch.metrics.energy_j == pytest.approx(sum(m.energy_j for m in reference))

    def test_mixed_batch_overlaps_across_banks(self):
        """Single-row requests on different banks overlap; makespan shrinks."""
        rng = np.random.default_rng(9)
        # Four single-row-columns land on four distinct banks.
        columns = [_random_column(rng, 6, 200) for _ in range(4)]
        batch = BatchExecutor(engine=_engine(banks=4)).run(
            [_scan(column, "less_than", 30) for column in columns]
        )
        assert batch.metrics.batching_speedup > 2.0
        assert batch.metrics.latency_ns < batch.metrics.serial_latency_ns

    def test_transient_columns_keep_full_overlap(self):
        """Regression: recycled ids of dead columns must not hand stale bank
        offsets to new columns and cluster them onto the same banks."""
        rng = np.random.default_rng(13)
        executor = BatchExecutor(engine=_engine(banks=4))
        speedups = []
        for _ in range(3):
            columns = [_random_column(rng, 6, 200) for _ in range(4)]
            requests = [_scan(column, "less_than", 30) for column in columns]
            speedups.append(executor.run(requests).metrics.batching_speedup)
            del columns, requests  # allow id reuse for the next round's columns
        assert all(s == pytest.approx(speedups[0]) for s in speedups)
        assert speedups[0] > 2.0

    def test_scans_of_one_column_contend_for_its_banks(self):
        """A column's planes live in fixed banks: no overlap within a column."""
        rng = np.random.default_rng(9)
        column = _random_column(rng, 6, 200)
        batch = BatchExecutor(engine=_engine(banks=4)).run(
            [_scan(column, "less_than", constant) for constant in (5, 10, 20, 40)]
        )
        assert batch.metrics.latency_ns == pytest.approx(batch.metrics.serial_latency_ns)

    def test_columns_and_other_owners_share_one_round_robin(self):
        """Columns and any other owner (a bitmap index, say) draw stable
        bank offsets from one first-seen round-robin, so neither kind
        stacks onto banks the other already holds."""

        class Owner:
            pass

        rng = np.random.default_rng(10)
        executor = BatchExecutor(engine=_engine(banks=4))
        first, second = _random_column(rng, 6, 200), _random_column(rng, 6, 200)
        batch = executor.run([_scan(first, "less_than", 30)])
        assert batch.results[0].bank_ids == executor.span_banks(1, 0)
        owner = Owner()
        assert executor.stable_offset(owner) == 1
        batch = executor.run([_scan(second, "less_than", 30)])
        assert batch.results[0].bank_ids == executor.span_banks(1, 2)
        assert [executor.stable_offset(o) for o in (first, owner, second)] == [0, 1, 2]
        late = [Owner(), Owner()]
        assert [executor.stable_offset(o) for o in late] == [3, 0]


class TestPlacementOrder:
    """A batch is placed in submission order: order within a bank only
    decides who waits."""

    def test_placement_is_submission_order(self):
        """A short conjunction submitted ahead of a longer scan on the same
        bank starts first (longest-first placement would run the scan
        first and make the conjunction wait)."""
        rng = np.random.default_rng(22)
        executor = BatchExecutor(engine=_engine(banks=1))
        table = ColumnTable("orders", 200)
        table.add_column("region", rng.integers(0, 4, size=200), cardinality=4)
        conjunction = BitmapConjunctionRequest(
            index=BitmapIndex(table, ["region"]), predicates=(("region", (0, 1)),)
        )
        scan = _scan(_random_column(rng, 6, 200), "between", 5, 50)
        primitives, _groups = BatchPlanner(executor, PipelineConfig()).lower_batch(
            [QueuedRequest(request=request) for request in (conjunction, scan)]
        )
        chain, later = executor.run(primitives).results
        assert chain.bank_ids == later.bank_ids
        assert chain.metrics.latency_ns < later.metrics.latency_ns
        assert chain.start_ns == 0.0
        assert later.start_ns >= chain.end_ns - 1e-9

    @settings(max_examples=15, deadline=None)
    @given(
        picks=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from(["less_than", "equal", "between"]),
                st.integers(0, 63),
            ),
            min_size=2,
            max_size=10,
        )
    )
    def test_requests_sharing_a_bank_run_in_submission_order(self, picks):
        """Whatever their lengths, two requests that share a bank run in the
        order they were submitted; columns of one, two and three rows make
        their spans overlap only in part."""
        rng = np.random.default_rng(23)
        columns = [_random_column(rng, 6, rows) for rows in (200, 600, 1200)]
        executor = BatchExecutor(engine=_engine(banks=4))
        requests = []
        for which, kind, constant in picks:
            constants = (constant, min(63, constant + 7)) if kind == "between" else (constant,)
            requests.append(_scan(columns[which], kind, *constants))
        results = executor.run(requests).results
        for i, earlier in enumerate(results):
            for later in results[i + 1 :]:
                if set(earlier.bank_ids) & set(later.bank_ids):
                    assert later.start_ns >= earlier.end_ns - 1e-9

    def test_makespan_respects_bounds(self):
        rng = np.random.default_rng(21)
        executor = BatchExecutor(engine=_engine(banks=4))
        columns = [_random_column(rng, 6, 200) for _ in range(4)]
        requests = []
        for column in columns:
            requests.append(_scan(column, "less_than", 30))
            requests.append(_scan(column, "between", 5, 50))
        batch = executor.run(requests)
        longest = max(r.metrics.latency_ns for r in batch.results)
        assert batch.metrics.latency_ns >= longest * (1 - 1e-9)
        assert batch.metrics.latency_ns <= batch.metrics.serial_latency_ns * (1 + 1e-9)


class TestEngineVectorizedFunctional:
    @pytest.mark.parametrize("op", ["not", "and", "or", "nand", "nor", "xor", "xnor"])
    def test_vectorized_matches_row_level_path(self, op):
        strict = _engine(vectorized=False)
        vectorized = _engine(vectorized=True)
        results = []
        for engine in (strict, vectorized):
            a = engine.alloc_vector(1003).fill_random(seed=21)
            b = engine.alloc_vector(1003).fill_random(seed=22) if op != "not" else None
            out, metrics = engine.execute(op, a, b, functional=True)
            results.append((out, metrics))
        (strict_out, strict_metrics), (vector_out, vector_metrics) = results
        assert np.array_equal(strict_out.data, vector_out.data)
        assert strict_metrics.latency_ns == pytest.approx(vector_metrics.latency_ns)
        assert strict_metrics.energy_j == pytest.approx(vector_metrics.energy_j)

    def test_vectorized_charges_modeled_bank_commands(self):
        """The vectorized path books the cost model's ACT/PRE counts.

        (The row-level path issues *more* commands than the nominal model —
        its concrete AAP realization parks intermediates in extra T rows —
        so the two paths agree on latency/energy, which are billed from the
        model, not on raw simulated command counts.)
        """
        engine = _engine(vectorized=True)
        a = engine.alloc_vector(900).fill_random(seed=5)
        b = engine.alloc_vector(900).fill_random(seed=6)
        before = {
            key: (bank.activations, bank.precharges)
            for key, bank in engine.device.iter_banks()
        }
        engine.execute("xor", a, b, functional=True)
        aaps, tras = engine.primitives_for("xor")
        chunks_per_bank = {}
        for placement in a.allocation.placements:
            chunks_per_bank[placement.bank_key] = (
                chunks_per_bank.get(placement.bank_key, 0) + 1
            )
        for key, bank in engine.device.iter_banks():
            chunks = chunks_per_bank.get(key, 0)
            acts, pres = before[key]
            assert bank.activations - acts == chunks * (2 * aaps + tras)
            assert bank.precharges - pres == chunks * (aaps + tras)

    def test_padding_bits_masked_on_both_paths(self):
        """Regression: complementing ops must not leak set padding bits."""
        for vectorized in (False, True):
            engine = _engine(vectorized=vectorized)
            a = engine.alloc_vector(13).fill_value(0)
            functional, _ = engine.execute("not", a, functional=True)
            analytical, _ = engine.execute("not", a, functional=False)
            assert np.array_equal(functional.data, analytical.data)
            # 13 bits -> bits 13..15 of byte 1 are padding and must be zero.
            assert functional.data[1] == 0x1F
            assert functional.data[2:].max(initial=0) == 0
            assert functional.count_ones() == 13


class TestVectorPoolAndAllocator:
    def test_pool_reuses_allocations(self):
        engine = _engine()
        pool = VectorPool(engine, capacity=4)
        first = pool.acquire(200)
        placements = [p.bank_row for p in first.allocation.placements]
        pool.release(first)
        second = pool.acquire(200)
        assert [p.bank_row for p in second.allocation.placements] == placements
        assert pool.hits == 1 and pool.misses == 1

    def test_pool_eviction_frees_rows(self):
        engine = _engine()
        pool = VectorPool(engine, capacity=2)
        vectors = [pool.acquire(100, bank_offset=i) for i in range(4)]
        used = engine.allocator.allocated_rows()
        for i, vector in enumerate(vectors):
            pool.release(vector, bank_offset=i)
        assert pool.evictions == 2
        assert engine.allocator.allocated_rows() == used - 2
        pool.drain()
        assert engine.allocator.allocated_rows() == used - 4

    def test_repeated_batches_do_not_leak_rows(self):
        rng = np.random.default_rng(1)
        executor = BatchExecutor(engine=_engine())
        column = _random_column(rng, 8, 300)
        watermark = None
        for round_index in range(5):
            executor.run(
                [_scan(column, "between", 10, 240), _scan(column, "equal", 77)],
                functional=True,
            )
            rows = executor.engine.allocator.allocated_rows()
            if watermark is None:
                watermark = rows
            assert rows <= watermark

    def test_allocator_free_list_reuses_rows(self):
        engine = _engine()
        allocator = engine.allocator
        first = allocator.allocate(4)
        second = allocator.allocate(4)
        used = allocator.allocated_rows()
        allocator.free(first)
        assert allocator.allocated_rows() == used - 4
        third = allocator.allocate(4)
        assert allocator.allocated_rows() == used
        # The freed (non-top) rows were actually recycled.
        assert {p.local_row for p in third.placements} == {
            p.local_row for p in first.placements
        }
        assert third.aligned_with(second)

    def test_allocator_bank_offset_rotates_start_bank(self):
        engine = _engine(banks=4)
        allocator = engine.allocator
        base = allocator.allocate(2, bank_offset=0)
        shifted = allocator.allocate(2, bank_offset=1)
        assert base.placements[0].bank_key != shifted.placements[0].bank_key
        assert base.placements[1].bank_key == shifted.placements[0].bank_key
        # Same offset => aligned; different offsets are generally not.
        assert allocator.allocate(2, bank_offset=1).aligned_with(shifted)


class TestQueryBatchApi:
    def test_batched_range_counts_match_single_queries(self):
        rng = np.random.default_rng(2)
        engine = _engine(banks=4)
        query_engine = QueryEngine(ambit=engine)
        columns = [_random_column(rng, 8, 400) for _ in range(4)]
        ranges = [(column, 10, 150) for column in columns]
        # One session closes all four range counts into a single batch...
        batched = PimSession.over_service(engine=engine, coster=query_engine)
        futures = [batched.range_count(column, low, high) for column, low, high in ranges]
        batched.drain()
        report = batched.report()
        assert report.details.batches == 1
        # ...the other drains after every query: one-at-a-time execution.
        single_session = PimSession.over_service(engine=engine, coster=query_engine)
        serial_energy = 0.0
        for (column, low, high), future in zip(ranges, futures):
            result = future.result()
            single = single_session.range_count(column, low, high).result()
            assert result.matching_rows == single.matching_rows
            assert result.latency_ns == pytest.approx(single.latency_ns)
            assert result.energy_j == pytest.approx(single.energy_j)
            serial_energy += single.energy_j
        assert sum(f.result().energy_j for f in futures) == pytest.approx(serial_energy)
        assert report.energy_j == pytest.approx(single_session.report().energy_j)
        assert report.details.pipeline_speedup >= 1.0

    def test_cpu_backend_runs_serially(self):
        rng = np.random.default_rng(2)
        session = PimSession.over_host(coster=QueryEngine(ambit=_engine()))
        columns = [_random_column(rng, 6, 200) for _ in range(3)]
        futures = [session.scan(column, "less_than", 20) for column in columns]
        report = session.report()
        assert report.busy_ns == pytest.approx(report.serial_latency_ns)
        assert all(future.done() for future in futures)


class TestScanPricedOnce:
    """Admission and execution price a scan through one roll-up, kept on
    the request and valid only for the executor and ``banks_parallel`` it
    was priced under."""

    @staticmethod
    def _counting(engine):
        calls = []
        original = engine.op_cost
        engine.op_cost = lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs)
        return calls

    def test_admission_then_execution_price_once(self):
        engine = _engine()
        calls = self._counting(engine)
        executor = BatchExecutor(engine=engine)
        request = _scan(_random_column(np.random.default_rng(3), 6, 300), "between", 9, 40)
        modeled_ns = executor.modeled_latency_ns(request)
        priced = len(calls)
        # One op_cost per distinct op of the plan, not one per step.
        assert priced == len(set(request.scan_result()[1].sequence)) > 0
        (result,) = executor.run([request]).results
        assert len(calls) == priced  # execution re-used admission's roll-up
        assert result.metrics.latency_ns == modeled_ns
        # What the roll-up must equal: the plan's ops, summed in order.
        rows = max(1, -(-len(result.value) // engine.device.geometry.row_size_bytes))
        reference = combine_serial(
            "reference",
            [engine.op_cost(op, rows, (300 + 7) // 8) for op in request.scan_result()[1].sequence],
        )
        assert result.metrics.latency_ns == reference.latency_ns
        assert result.metrics.energy_j == reference.energy_j
        assert result.metrics.bytes_produced == len(result.value)

    def test_every_use_gets_its_own_metrics(self):
        executor = BatchExecutor(engine=_engine())
        request = _scan(_random_column(np.random.default_rng(4), 6, 300), "less_than", 17)
        first = executor._scan_metrics(request)
        first.notes, first.bytes_produced = "scribbled", -1  # callers edit in place
        second = executor._scan_metrics(request)
        assert second is not first
        assert second.notes != "scribbled" and second.bytes_produced > 0

    def test_another_executor_or_bank_count_reprices(self):
        request = _scan(_random_column(np.random.default_rng(5), 6, 3000), "less_equal", 33)
        engine = _engine(banks=4)
        executor = BatchExecutor(engine=engine)
        wide = executor.modeled_latency_ns(request)
        # The bank ablation: the same executor, fewer banks in parallel.
        engine.config.banks_parallel = 1
        narrow = executor.modeled_latency_ns(request)
        assert narrow > wide
        assert narrow == BatchExecutor(engine=_engine(banks=1)).modeled_latency_ns(request)
        # A failover re-offer: another shard's executor prices for itself.
        other_engine = _engine(banks=4)
        calls = self._counting(other_engine)
        assert BatchExecutor(engine=other_engine).modeled_latency_ns(request) == wide
        assert calls  # priced there, not read off the first executor's roll-up

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(SCAN_KINDS),
        constants=st.tuples(st.integers(0, 63), st.integers(0, 63)),
        rows=st.integers(1, 700),
        banks=st.sampled_from([1, 2, 3, 4]),
    )
    def test_roll_up_is_the_serial_combination_bit_for_bit(self, kind, constants, rows, banks):
        """Over every scan kind, the priced roll-up equals
        ``combine_serial`` over one ``op_cost`` per step — bit for bit —
        and again after the bank ablation moves ``banks_parallel``."""
        column = _random_column(np.random.default_rng(rows), 6, rows)
        request = _scan(column, kind, *(sorted(constants) if kind == "between" else constants[:1]))
        engine = _engine()
        executor = BatchExecutor(engine=engine)
        expected, plan = request.scan_result()
        chunks = max(1, -(-len(expected) // engine.device.geometry.row_size_bytes))
        for banks_parallel in (4, banks):
            engine.config.banks_parallel = banks_parallel
            priced = executor._scan_metrics(request)
            reference = combine_serial(
                f"ambit_scan_{kind}", [engine.op_cost(op, chunks) for op in plan.sequence]
            )
            # repr: the shortest string that round-trips, so equal reprs
            # are equal bits (and an int 0 is not a float 0.0).
            for field in ("name", "latency_ns", "energy_j", "bytes_moved_on_channel"):
                assert repr(getattr(priced, field)) == repr(getattr(reference, field))
            assert priced.bytes_produced == len(expected)
            assert priced.notes == (
                f"{plan.total_operations} bulk ops over {plan.planes_touched} planes"
            )


class TestBatchMetrics:
    def test_combine_serial_sums_components(self):
        engine = _engine()
        a = engine.alloc_vector(300)
        _, m1 = engine.execute("and", a, engine.alloc_vector(300))
        _, m2 = engine.execute("not", a)
        combined = combine_serial("pair", [m1, m2])
        assert combined.latency_ns == pytest.approx(m1.latency_ns + m2.latency_ns)
        assert combined.energy_j == pytest.approx(m1.energy_j + m2.energy_j)
        assert combined.bytes_produced == m1.bytes_produced + m2.bytes_produced

    def test_batch_metrics_speedup_and_throughput(self):
        metrics = BatchMetrics(
            name="x",
            requests=4,
            latency_ns=500.0,
            serial_latency_ns=2000.0,
            energy_j=1.0,
            bytes_produced=1000,
        )
        assert metrics.batching_speedup == pytest.approx(4.0)
        assert metrics.throughput_bytes_per_s == pytest.approx(1000 / 500e-9)
        assert metrics.latency_s == pytest.approx(500e-9)
