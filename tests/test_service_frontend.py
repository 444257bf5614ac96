"""Tests for the admission-controlled service pipeline.

Frontend semantics under test:

* queue order — higher priority first, earliest deadline next, FIFO last,
* admission control — rejection on a full queue and on modeled bank
  occupancy, with rejected requests never served,
* deadline-miss accounting against the virtual clock,
* batch closing by size, time window, and deadline urgency, and
* the load-bearing acceptance property: results served through the
  pipeline are bit-exact with sequential execution, at identical energy,
  on both the analytical and the functional execution paths.

Lowering under test: bitmap-index conjunctions expand into primitive
bulk-operation chains whose values match :meth:`evaluate_conjunction` and
whose charged cost matches the plan-level cost model.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.queries import QueryEngine, ScanBackend
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import (
    BatchExecutor,
    BatchPlanner,
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ScanRequest,
    ServiceFrontend,
    poisson_schedule,
    trace_schedule,
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


def _engine(banks: int = 4) -> AmbitEngine:
    return AmbitEngine(
        _device(banks), AmbitConfig(banks_parallel=banks, vectorized_functional=True)
    )


def _frontend(banks: int = 4, engine=None, **knobs) -> ServiceFrontend:
    return ServiceFrontend(PipelineConfig(**knobs), engine=engine or _engine(banks))


def _random_column(rng, num_bits: int, rows: int) -> BitWeavingColumn:
    return BitWeavingColumn(rng.integers(0, 1 << num_bits, size=rows), num_bits)


def _scan(column: BitWeavingColumn, kind: str = "less_than", *constants: int) -> ScanRequest:
    if not constants:
        constants = (1 << (column.num_bits - 1),)
    return ScanRequest(column=column, kind=kind, constants=constants)


def _bitmap_index(rng, rows: int = 400) -> BitmapIndex:
    table = ColumnTable("t", rows)
    table.add_column("region", rng.integers(0, 8, size=rows), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=rows), cardinality=4)
    return BitmapIndex(table, ["region", "status"])


class TestQueueSemantics:
    def test_priority_classes_served_first(self):
        rng = np.random.default_rng(0)
        frontend = _frontend(policy=BatchPolicy(max_batch=4))
        columns = [_random_column(rng, 6, 200) for _ in range(8)]
        records = [
            frontend.offer(_scan(column), priority=priority)
            for priority, column in enumerate(columns)
        ]
        frontend.drain()
        # Eight requests, batches of four: the four highest priorities go
        # into batch 0, the rest into batch 1.
        assert [r.batch_index for r in records] == [1, 1, 1, 1, 0, 0, 0, 0]
        assert all(r.completed for r in records)

    def test_earlier_deadline_first_within_a_priority(self):
        rng = np.random.default_rng(1)
        frontend = _frontend(policy=BatchPolicy(max_batch=2))
        columns = [_random_column(rng, 6, 200) for _ in range(4)]
        deadlines = [4e6, 1e6, 3e6, 2e6]
        records = [
            frontend.offer(_scan(column), deadline_ns=deadline)
            for column, deadline in zip(columns, deadlines)
        ]
        frontend.drain()
        # Batches of two: the two earliest deadlines (1e6, 2e6) first.
        assert [r.batch_index for r in records] == [1, 0, 1, 0]

    def test_fifo_tiebreak_within_equal_keys(self):
        rng = np.random.default_rng(2)
        frontend = _frontend(policy=BatchPolicy(max_batch=2))
        columns = [_random_column(rng, 6, 200) for _ in range(4)]
        records = [frontend.offer(_scan(column)) for column in columns]
        frontend.drain()
        assert [r.batch_index for r in records] == [0, 0, 1, 1]

    def test_wait_and_sojourn_accounting(self):
        rng = np.random.default_rng(3)
        frontend = _frontend(policy=BatchPolicy(max_batch=8))
        column = _random_column(rng, 6, 200)
        records = [frontend.offer(_scan(column, "less_than", c)) for c in (5, 20, 40)]
        frontend.drain()
        for record in records:
            assert record.wait_ns >= 0.0
            # A single-primitive request is in service for exactly its
            # sequential latency.
            assert record.sojourn_ns - record.wait_ns == pytest.approx(
                record.metrics.latency_ns
            )
        # Same column => same banks: the three scans serialize, so waits
        # within the batch are strictly increasing.
        waits = sorted(r.wait_ns for r in records)
        assert waits[0] == pytest.approx(0.0)
        assert waits[1] > 0.0 and waits[2] > waits[1]


class TestAdmissionControl:
    def test_full_queue_rejects(self):
        rng = np.random.default_rng(4)
        frontend = _frontend(max_queue_depth=3)
        columns = [_random_column(rng, 6, 200) for _ in range(5)]
        records = [frontend.offer(_scan(column)) for column in columns]
        assert [r.admitted for r in records] == [True, True, True, False, False]
        assert all(r.rejected_reason == "queue_full" for r in records[3:])
        frontend.drain()
        result = frontend.result()
        assert result.metrics.offered == 5
        assert result.metrics.admitted == 3
        assert result.metrics.rejected == 2
        assert result.metrics.completed == 3
        # Rejected requests were never served.
        assert all(not r.completed and math.isnan(r.start_ns) for r in records[3:])

    def test_bank_occupancy_rejects(self):
        rng = np.random.default_rng(5)
        column = _random_column(rng, 8, 400)
        engine = _engine()
        probe = _scan(column)
        per_request_ns = BatchExecutor(engine=engine).modeled_latency_ns(probe)
        frontend = _frontend(
            engine=engine,
            max_queue_depth=100,
            max_backlog_ns=per_request_ns,  # room for ~banks requests
        )
        records = [
            frontend.offer(_scan(_random_column(rng, 8, 400))) for _ in range(10)
        ]
        rejected = [r for r in records if not r.admitted]
        assert rejected, "occupancy bound should reject under this load"
        assert all(r.rejected_reason == "bank_occupancy" for r in rejected)
        admitted_backlog = sum(r.modeled_ns for r in records if r.admitted)
        banks = frontend.executor.engine.config.banks_parallel
        assert admitted_backlog / banks <= per_request_ns * (1 + 1e-9)

    def test_queue_drains_and_readmits(self):
        rng = np.random.default_rng(6)
        frontend = _frontend(max_queue_depth=2, policy=BatchPolicy(max_batch=2))
        column = _random_column(rng, 6, 200)
        first = [frontend.offer(_scan(column, "less_than", c)) for c in (1, 2, 3)]
        assert [r.admitted for r in first] == [True, True, False]
        frontend.serve_batch()
        second = frontend.offer(_scan(column, "less_than", 4))
        assert second.admitted
        frontend.drain()
        assert frontend.result().metrics.completed == 3


class TestDeadlines:
    def test_deadline_misses_are_counted(self):
        rng = np.random.default_rng(7)
        frontend = _frontend(policy=BatchPolicy(max_batch=8))
        column = _random_column(rng, 8, 400)
        impossible = frontend.offer(_scan(column), deadline_ns=1.0)
        generous = frontend.offer(
            _scan(_random_column(rng, 8, 400)), deadline_ns=1e12
        )
        frontend.drain()
        assert impossible.deadline_missed
        assert not generous.deadline_missed
        assert frontend.result().metrics.deadline_misses == 1

    def test_urgent_deadline_closes_batch_early(self):
        rng = np.random.default_rng(8)
        policy = BatchPolicy(max_batch=64, window_ns=None, urgency_slack_ns=0.0)
        frontend = _frontend(policy=policy)
        column = _random_column(rng, 6, 200)
        request = _scan(column)
        executor = frontend.executor
        latency = executor.modeled_latency_ns(request)
        events = trace_schedule(
            [request, _scan(_random_column(rng, 6, 200))],
            arrival_times_ns=[0.0, 10 * latency],
            deadlines_ns=[latency * 1.5, None],
        )
        result = frontend.run(events)
        # Without urgency the batch would wait for the second arrival (the
        # batch is far from full and no window is set); urgency must close
        # it in time to make the deadline.
        assert result.metrics.deadline_misses == 0
        assert result.metrics.batches == 2

    def test_schedules_refuse_bad_rates_and_short_sequences(self):
        """A NaN rate used to stamp NaN arrivals (an infinite one stamped
        every arrival 0.0), and a short per-request sequence died with a
        bare IndexError mid-loop."""
        rng = np.random.default_rng(10)
        scans = [_scan(_random_column(rng, 6, 200)) for _ in range(2)]
        for rate in (math.nan, math.inf, 0.0, -1.0):
            with pytest.raises(ValueError, match="rate_per_s"):
                poisson_schedule(scans, rate_per_s=rate)
        with pytest.raises(ValueError, match="priorities differ in length"):
            poisson_schedule(scans, rate_per_s=1e6, priorities=[1])
        with pytest.raises(ValueError, match="priorities differ in length"):
            trace_schedule(scans, [0.0, 1.0], priorities=[1])
        with pytest.raises(ValueError, match="deadlines_ns differ in length"):
            trace_schedule(scans, [0.0, 1.0], deadlines_ns=[5.0])
        with pytest.raises(ValueError, match="arrival_times_ns differ in length"):
            trace_schedule(scans, [0.0])

    def test_window_bounds_the_wait(self):
        rng = np.random.default_rng(9)
        window = 1e5
        frontend = _frontend(policy=BatchPolicy(max_batch=64, window_ns=window))
        column = _random_column(rng, 6, 200)
        scans = [_scan(_random_column(rng, 6, 200)) for _ in range(4)]
        # Arrivals spaced well inside the window, far fewer than max_batch:
        # only the window can close the batch before the stream ends.
        events = trace_schedule(scans, arrival_times_ns=[0.0, 1e4, 2e4, window + 2e4])
        result = frontend.run(events)
        assert result.metrics.batches >= 2
        first_batch = [r for r in result.records if r.batch_index == 0]
        assert all(r.arrival_ns + window <= r.start_ns + 1e-6 or r.wait_ns <= window * 2
                   for r in first_batch)


class TestPipelineBitExactness:
    @settings(max_examples=20, deadline=None)
    @given(
        num_bits=st.integers(1, 6),
        rows=st.integers(1, 300),
        seed=st.integers(0, 2**16),
        constants=st.lists(st.integers(0, 63), min_size=1, max_size=5),
        functional=st.booleans(),
    )
    def test_pipeline_matches_sequential(self, num_bits, rows, seed, constants, functional):
        """Acceptance: pipeline output == sequential output, same energy."""
        rng = np.random.default_rng(seed)
        columns = [_random_column(rng, num_bits, rows) for _ in range(2)]
        kinds = ["less_than", "less_equal", "equal", "between"]
        scans = []
        for i, constant in enumerate(constants):
            constant %= 1 << num_bits
            kind = kinds[i % len(kinds)]
            column = columns[i % len(columns)]
            if kind == "between":
                high = max(constant, (1 << num_bits) - 1 - constant)
                scans.append((column, kind, (min(constant, high), high)))
            else:
                scans.append((column, kind, (constant,)))

        frontend = _frontend(
            policy=BatchPolicy(max_batch=3),
            max_queue_depth=64,
            functional=functional,
        )
        requests = [ScanRequest(column=c, kind=k, constants=cs) for c, k, cs in scans]
        events = poisson_schedule(requests, rate_per_s=2e6, seed=seed)
        result = frontend.run(events)

        assert result.metrics.completed == len(scans)
        assert result.metrics.rejected == 0
        query_engine = QueryEngine(ambit=frontend.executor.engine)
        serial_energy = 0.0
        by_request = {id(r.request): r for r in result.records}
        for (column, kind, cs), request in zip(scans, requests):
            record = by_request[id(request)]
            expected, plan = column.scan(kind, *cs)
            assert np.array_equal(record.value, expected)
            sequential = query_engine.ambit_scan_cost(plan)
            assert record.metrics.latency_ns == pytest.approx(sequential.latency_ns)
            assert record.metrics.energy_j == pytest.approx(sequential.energy_j)
            serial_energy += sequential.energy_j
        assert result.metrics.energy_j == pytest.approx(serial_energy)
        # Bank overlap may only shrink the busy time, never the work.
        assert result.metrics.busy_ns <= result.metrics.serial_latency_ns * (1 + 1e-9)

    def test_reused_frontend_reports_per_call_metrics(self):
        """Regression: a second session on one frontend must not fold the
        first one's traffic into its report, and arrivals must start at
        the frontend's advanced clock (identical seeds => identical
        per-session dynamics)."""
        rng = np.random.default_rng(18)
        frontend = _frontend(max_queue_depth=256)
        columns = [_random_column(rng, 8, 400) for _ in range(3)]
        reports = []
        for _ in range(2):
            session = PimSession(frontend)
            session.submit_stream(
                poisson_schedule(
                    [_scan(c, "less_than", 40) for c in columns],
                    rate_per_s=1e6,
                    seed=1,
                    deadline_slack_ns=1e9,
                    start_ns=frontend.clock_ns,
                )
            )
            session.drain()
            reports.append(session.report())
        first, second = reports
        assert first.completed == len(columns)
        assert second.completed == len(columns)
        assert second.serial_latency_ns == pytest.approx(first.serial_latency_ns)
        assert second.energy_j == pytest.approx(first.energy_j)
        # Same seed and an idle frontend: the second session's queueing
        # dynamics replay the first one's, just shifted on the clock.
        assert second.wait_p50_ns == pytest.approx(first.wait_p50_ns)
        assert second.sojourn_p99_ns == pytest.approx(first.sojourn_p99_ns)
        assert second.deadline_misses == first.deadline_misses == 0

    def test_caller_frontend_keeps_its_functional_flag(self):
        """Regression: a session drives a caller's frontend as configured;
        it never rewrites the frontend's knobs."""
        rng = np.random.default_rng(22)
        frontend = _frontend(
            functional=True, max_queue_depth=3, policy=BatchPolicy(max_batch=2)
        )
        session = PimSession(frontend)
        for _ in range(4):
            session.scan(_random_column(rng, 6, 200), "less_than", 20)
        session.drain()
        assert frontend.functional is True
        assert frontend.max_queue_depth == 3
        assert frontend.planner.policy.max_batch == 2
        assert frontend.executor.functional_executed == session.report().completed > 0

    def test_rejections_keep_result_to_query_mapping(self):
        """Regression: rejected scans leave gaps; each future still maps
        its result back to its source query."""
        rng = np.random.default_rng(19)
        frontend = _frontend(max_queue_depth=2)
        query_engine = QueryEngine(ambit=frontend.executor.engine)
        session = PimSession(frontend, coster=query_engine)
        columns = [_random_column(rng, 8, 400) for _ in range(6)]
        scans = [(c, "equal", (i * 7,)) for i, c in enumerate(columns)]
        futures = session.submit_stream(
            poisson_schedule(
                [_scan(c, kind, *cs) for c, kind, cs in scans],
                rate_per_s=1e9,
                seed=4,
            )
        )
        session.drain()
        report = session.report()
        served = [i for i, future in enumerate(futures) if future.done()]
        assert report.rejected > 0
        assert len(served) == report.completed < len(scans)
        for i in served:
            column, kind, constants = scans[i]
            expected_bits, plan = column.scan(kind, *constants)
            single = query_engine.execute_scan(
                expected_bits, plan, column.num_rows, ScanBackend.AMBIT
            )
            assert futures[i].result().matching_rows == single.matching_rows

    def test_cpu_and_ambit_pipelines_agree_on_results(self):
        rng = np.random.default_rng(10)
        columns = [_random_column(rng, 8, 400) for _ in range(4)]
        query_engine = QueryEngine(ambit=_engine())
        outcomes = []
        for session in (
            PimSession.over_host(coster=query_engine),
            PimSession.over_service(engine=query_engine.ambit, coster=query_engine),
        ):
            futures = session.submit_stream(
                poisson_schedule(
                    [_scan(c, "between", 20, 180) for c in columns],
                    rate_per_s=1e6,
                    seed=3,
                )
            )
            session.drain()
            assert session.report().completed == len(columns)
            outcomes.append([future.result().matching_rows for future in futures])
        cpu, ambit = outcomes
        assert cpu == ambit


class TestBitmapConjunctionLowering:
    @pytest.mark.parametrize("functional", [False, True])
    def test_lowered_conjunction_matches_evaluate(self, functional):
        rng = np.random.default_rng(11)
        index = _bitmap_index(rng)
        frontend = _frontend(functional=functional)
        conjunctions = [
            (("region", (1, 2, 3)), ("status", (0, 1))),
            (("region", (0,)), ("status", (2,))),
            (("region", (4, 5)),),
            (("region", (6,)),),  # single bitmap: lowers to zero operations
        ]
        records = [
            frontend.offer(BitmapConjunctionRequest(index=index, predicates=c))
            for c in conjunctions
        ]
        frontend.drain()
        query_engine = QueryEngine(ambit=frontend.executor.engine)
        for conjunction, record in zip(conjunctions, records):
            expected, plan = index.evaluate_conjunction(list(conjunction))
            assert np.array_equal(record.value, expected)
            cost = query_engine.ambit_scan_cost(plan)
            assert record.metrics.latency_ns == pytest.approx(cost.latency_ns)
            assert record.metrics.energy_j == pytest.approx(cost.energy_j)

    def test_conjunction_chain_serializes_on_its_banks(self):
        """Data-dependent lowered steps must not overlap in the schedule."""
        rng = np.random.default_rng(12)
        index = _bitmap_index(rng)
        frontend = _frontend()
        conjunction = (("region", (0, 1, 2, 3)), ("status", (0, 1)))
        record = frontend.offer(BitmapConjunctionRequest(index=index, predicates=conjunction))
        frontend.drain()
        # Chain of 5 ops (3 ORs + 1 OR + 1 AND): sojourn equals the serial
        # sum because every step contends for the conjunction's banks.
        assert record.sojourn_ns == pytest.approx(record.metrics.latency_ns)

    @pytest.mark.parametrize("functional", [False, True])
    def test_multi_row_conjunction_cost_matches_plan_model(self, functional):
        """Regression: lowering must price vectors at the *device* row size.

        4096 rows pack to 512 bytes = 8 chunks on the 64-byte-row test
        device (but a single chunk at the 8 KiB host default); a row-size
        mismatch in lowering under-charges the analytical path 8x.
        """
        rng = np.random.default_rng(17)
        index = _bitmap_index(rng, rows=4096)
        frontend = _frontend(functional=functional)
        conjunction = (("region", (1, 2, 3)), ("status", (0, 1)))
        record = frontend.offer(BitmapConjunctionRequest(index=index, predicates=conjunction))
        frontend.drain()
        expected, plan = index.evaluate_conjunction(list(conjunction))
        assert np.array_equal(record.value, expected)
        cost = QueryEngine(ambit=frontend.executor.engine).ambit_scan_cost(plan)
        assert record.metrics.latency_ns == pytest.approx(cost.latency_ns)
        assert record.metrics.energy_j == pytest.approx(cost.energy_j)

    def test_conjunctions_lower_through_query_engine(self):
        rng = np.random.default_rng(13)
        index = _bitmap_index(rng)
        query_engine = QueryEngine(ambit=_engine())
        conjunctions = [
            [("region", [1, 2]), ("status", [0])],
            [("region", [3]), ("status", [1, 2])],
        ]
        # Batched on the simulated banks vs one at a time, analytically.
        batched = PimSession(
            _frontend(engine=query_engine.ambit, functional=True),
            coster=query_engine,
        )
        futures = [batched.conjunction(index, predicates) for predicates in conjunctions]
        one_by_one = PimSession.over_service(engine=query_engine.ambit, coster=query_engine)
        for predicates, future in zip(conjunctions, futures):
            result = future.result()
            single = one_by_one.conjunction(index, predicates).result()
            assert result.matching_rows == single.matching_rows
            assert result.latency_ns == pytest.approx(single.latency_ns)
            assert result.energy_j == pytest.approx(single.energy_j)


class TestSampledVerification:
    def test_verify_fraction_samples_deterministically(self):
        rng = np.random.default_rng(14)
        column = _random_column(rng, 8, 300)
        executors = []
        for _ in range(2):
            executor = BatchExecutor(engine=_engine(), verify_fraction=0.4, verify_seed=9)
            requests = [
                ScanRequest(column=column, kind="less_than", constants=(c,))
                for c in range(20)
            ]
            batch = executor.run(requests, functional=True)
            for c, result in zip(range(20), batch.results):
                expected, _ = column.scan("less_than", c)
                assert np.array_equal(result.value, expected)
            executors.append(executor)
        first, second = executors
        assert 0 < first.functional_executed < 20
        assert first.functional_executed + first.sampled_out == 20
        # Deterministic: an identical executor samples the identical subset.
        assert first.functional_executed == second.functional_executed
        assert [first._verify_sampled(0, i) for i in range(20)] == [
            second._verify_sampled(0, i) for i in range(20)
        ]

    def test_verify_fraction_bounds(self):
        with pytest.raises(ValueError):
            BatchExecutor(engine=_engine(), verify_fraction=1.5)
        executor = BatchExecutor(engine=_engine(), verify_fraction=0.0)
        rng = np.random.default_rng(15)
        column = _random_column(rng, 6, 200)
        batch = executor.run(
            [ScanRequest(column=column, kind="equal", constants=(7,))], functional=True
        )
        expected, _ = column.scan("equal", 7)
        assert np.array_equal(batch.results[0].value, expected)
        assert executor.functional_executed == 0
        assert executor.sampled_out == 1

    def test_full_verification_is_the_default(self):
        executor = BatchExecutor(engine=_engine())
        rng = np.random.default_rng(16)
        column = _random_column(rng, 6, 200)
        executor.run(
            [ScanRequest(column=column, kind="equal", constants=(3,))], functional=True
        )
        assert executor.functional_executed == 1
        assert executor.sampled_out == 0


class TestStagedHostVectors:
    def test_staged_functional_charges_analytical_cost(self):
        """Regression: a host-only bulk op charges identical latency and
        energy whether it runs analytically or staged onto the banks —
        the staged vectors' device-row chunking must not leak into the
        bill (the test device's 64 B rows differ from the 8 KiB host
        default, which is exactly the divergent case)."""
        from repro.ambit.bitvector import BulkBitVector
        from repro.service import BulkOpRequest

        results = []
        for functional in (False, True):
            executor = BatchExecutor(engine=_engine())
            # 2 KiB payload: one 8 KiB host row chunk, but 32 chunks of the
            # test device's 64 B rows once staged.
            a = BulkBitVector(2048 * 8).fill_random(seed=1)
            b = BulkBitVector(2048 * 8).fill_random(seed=2)
            batch = executor.run(
                [BulkOpRequest(op="xor", a=a, b=b, bank_offset=0)],
                functional=functional,
            )
            results.append(batch.results[0])
        analytical, staged = results
        assert np.array_equal(analytical.value.data, staged.value.data)
        assert staged.metrics.latency_ns == pytest.approx(analytical.metrics.latency_ns)
        assert staged.metrics.energy_j == pytest.approx(analytical.metrics.energy_j)
