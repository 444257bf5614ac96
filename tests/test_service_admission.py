"""Tests for per-bank backlog admission, load shedding, and retry clients.

PR 2's admission model spread the queue's serial latency over all banks —
blind to skew.  These tests pin the per-bank backlog vector's semantics:

* balanced traffic behaves exactly like the old scalar model (the
  ``max_backlog_ns`` knob keeps its meaning),
* under skew the vector both rejects work piling onto a hot bank *and*
  admits work bound for idle banks,
* priority-class shedding evicts strictly-lower-priority queued work
  (``rejected_reason="shed"``) only when it actually makes the candidate
  fit, and
* the retry/backoff client re-offers rejections on the virtual clock and
  delivers what a single shot would have dropped.
"""

import numpy as np
import pytest

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import PimSession
from repro.database.bitweaving import BitWeavingColumn
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import (
    BackoffPolicy,
    BatchExecutor,
    BatchPolicy,
    PipelineConfig,
    RetryClient,
    ScanRequest,
    ServiceFrontend,
    poisson_schedule,
)


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


def _random_column(rng, num_bits: int = 8, rows: int = 400) -> BitWeavingColumn:
    return BitWeavingColumn(rng.integers(0, 1 << num_bits, size=rows), num_bits)


def _scan(column, constant=40):
    return ScanRequest(column=column, kind="less_than", constants=(constant,))


class TestPerBankBacklog:
    def test_skewed_traffic_saturates_its_bank_early(self):
        """All scans of one column contend for one bank set: the vector
        must reject once *that bank* is full, long before the scalar
        model (total/banks) would."""
        rng = np.random.default_rng(0)
        column = _random_column(rng)
        executor = BatchExecutor(engine=_engine())
        per_request_ns = executor.modeled_latency_ns(_scan(column))
        frontend = ServiceFrontend(
            PipelineConfig(max_queue_depth=100, max_backlog_ns=2.5 * per_request_ns),
            engine=executor.engine,
        )
        records = [frontend.offer(_scan(column)) for _ in range(10)]
        admitted = [r for r in records if r.admitted]
        # One bank's backlog: only floor(2.5) requests fit (the scalar
        # model would have admitted banks*2.5 = 10).
        assert len(admitted) == 2
        assert all(r.rejected_reason == "bank_occupancy" for r in records[2:])

    def test_idle_banks_still_admit_under_skew(self):
        """A hot bank being full must not reject work bound elsewhere."""
        rng = np.random.default_rng(1)
        hot = _random_column(rng)
        executor = BatchExecutor(engine=_engine())
        per_request_ns = executor.modeled_latency_ns(_scan(hot))
        frontend = ServiceFrontend(
            PipelineConfig(max_queue_depth=100, max_backlog_ns=1.5 * per_request_ns),
            engine=executor.engine,
        )
        frontend.offer(_scan(hot))
        blocked = frontend.offer(_scan(hot, 10))
        assert not blocked.admitted  # hot bank is at its bound
        elsewhere = [frontend.offer(_scan(_random_column(rng))) for _ in range(3)]
        # Fresh columns take the remaining bank offsets: all admitted.
        assert all(r.admitted for r in elsewhere)
        banks_used = {tuple(r.modeled_banks) for r in elsewhere if r.admitted}
        assert len(banks_used) == 3
        frontend.drain()

    def test_balanced_traffic_matches_scalar_model(self):
        """Round-robin columns fill banks evenly: admission count equals
        what the old scalar model admitted (semantics kept)."""
        rng = np.random.default_rng(2)
        executor = BatchExecutor(engine=_engine(banks=4))
        probe = _scan(_random_column(rng))
        per_request_ns = executor.modeled_latency_ns(probe)
        frontend = ServiceFrontend(
            PipelineConfig(max_queue_depth=100, max_backlog_ns=per_request_ns),
            engine=executor.engine,
        )
        records = [frontend.offer(_scan(_random_column(rng))) for _ in range(10)]
        admitted = [r for r in records if r.admitted]
        # One request per bank fits, exactly as (total/banks) admitted.
        assert len(admitted) == 4
        assert frontend.backlog_ns <= per_request_ns * (1 + 1e-9)

    def test_backlog_vector_accounting_drains(self):
        rng = np.random.default_rng(3)
        frontend = ServiceFrontend(engine=_engine())
        for _ in range(5):
            frontend.offer(_scan(_random_column(rng)))
        assert frontend.backlog_ns > 0.0
        frontend.drain()
        assert frontend.backlog_ns == 0.0


class TestLoadShedding:
    def _loaded_frontend(self, rng, bound_requests=2.0, **kwargs):
        executor = BatchExecutor(engine=_engine())
        per_request_ns = executor.modeled_latency_ns(_scan(_random_column(rng)))
        frontend = ServiceFrontend(
            PipelineConfig.from_knobs(
                max_queue_depth=kwargs.pop("max_queue_depth", 100),
                max_backlog_ns=bound_requests * per_request_ns,
                shed_low_priority=True,
                **kwargs,
            ),
            engine=executor.engine,
        )
        return frontend

    def test_high_priority_sheds_queued_low_priority(self):
        rng = np.random.default_rng(4)
        column = _random_column(rng)
        session = PimSession(self._loaded_frontend(rng, bound_requests=2.0))
        low = [session.submit(_scan(column, c), priority=0).record for c in (1, 2)]
        assert all(r.admitted for r in low)
        urgent = session.submit(_scan(column, 3), priority=5).record
        assert urgent.admitted
        # The youngest low-priority request was shed to make room.
        assert not low[1].admitted
        assert low[1].rejected_reason == "shed"
        assert low[0].admitted
        session.drain()
        metrics = session.report()
        assert metrics.shed == 1
        assert metrics.rejected == 1
        assert metrics.offered == metrics.admitted + metrics.rejected
        assert not low[1].completed  # shed work is never served

    def test_equal_priority_is_never_shed(self):
        rng = np.random.default_rng(5)
        column = _random_column(rng)
        frontend = self._loaded_frontend(rng, bound_requests=2.0)
        first = [frontend.offer(_scan(column, c), priority=1) for c in (1, 2)]
        same = frontend.offer(_scan(column, 3), priority=1)
        assert not same.admitted
        assert same.rejected_reason == "bank_occupancy"
        assert all(r.admitted for r in first)

    def test_no_shedding_when_candidate_cannot_fit(self):
        """Shedding every lower-priority request would still not admit a
        request bigger than the bound: nothing may be evicted for it."""
        rng = np.random.default_rng(6)
        column = _random_column(rng)
        executor = BatchExecutor(engine=_engine())
        small_ns = executor.modeled_latency_ns(_scan(column))
        big_column = _random_column(rng, num_bits=8, rows=8000)  # multi-chunk scan
        big_ns = executor.modeled_latency_ns(_scan(big_column))
        assert big_ns > 2 * small_ns
        frontend = ServiceFrontend(
            PipelineConfig(
                max_queue_depth=100,
                max_backlog_ns=1.5 * small_ns,
                shed_low_priority=True,
            ),
            engine=executor.engine,
        )
        low = frontend.offer(_scan(column), priority=0)
        doomed = frontend.offer(_scan(big_column), priority=9)
        assert not doomed.admitted
        assert doomed.rejected_reason == "bank_occupancy"
        assert low.admitted, "no victim may be shed for a doomed candidate"

    def test_queue_full_victim_survives_doomed_occupancy(self):
        """Regression: a depth-full arrival that would still fail the
        occupancy bound must not destroy the queued victim."""
        rng = np.random.default_rng(12)
        column = _random_column(rng)
        executor = BatchExecutor(engine=_engine())
        small_ns = executor.modeled_latency_ns(_scan(column))
        big_column = _random_column(rng, num_bits=8, rows=8000)
        assert executor.modeled_latency_ns(_scan(big_column)) > 2 * small_ns
        frontend = ServiceFrontend(
            PipelineConfig(
                max_queue_depth=1,
                max_backlog_ns=1.5 * small_ns,
                shed_low_priority=True,
            ),
            engine=executor.engine,
        )
        low = frontend.offer(_scan(column), priority=0)
        doomed = frontend.offer(_scan(big_column), priority=9)
        assert not doomed.admitted
        assert doomed.rejected_reason == "bank_occupancy"
        assert low.admitted, "victim must survive a doomed admission"
        assert frontend.queue_depth == 1

    def test_queue_full_sheds_one_victim(self):
        rng = np.random.default_rng(7)
        frontend = ServiceFrontend(
            PipelineConfig(max_queue_depth=2, shed_low_priority=True),
            engine=_engine(),
        )
        low = [frontend.offer(_scan(_random_column(rng)), priority=0) for _ in range(2)]
        urgent = frontend.offer(_scan(_random_column(rng)), priority=3)
        assert urgent.admitted
        assert sum(1 for r in low if not r.admitted) == 1
        shed = next(r for r in low if not r.admitted)
        assert shed.rejected_reason == "shed"
        # A same-priority arrival still sees queue_full.
        also_low = frontend.offer(_scan(_random_column(rng)), priority=0)
        assert also_low.rejected_reason == "queue_full"

    def test_cancel_withdraws_queued_request(self):
        rng = np.random.default_rng(8)
        frontend = ServiceFrontend(engine=_engine())
        record = frontend.offer(_scan(_random_column(rng)))
        other = frontend.offer(_scan(_random_column(rng)))
        assert frontend.cancel(record)
        assert not record.admitted
        assert record.rejected_reason == "cancelled"
        assert not frontend.cancel(record)  # already gone
        frontend.drain()
        assert other.completed and not record.completed


class TestRetryClient:
    def test_rejections_are_delivered_after_backoff(self):
        rng = np.random.default_rng(9)
        frontend = ServiceFrontend(
            PipelineConfig(max_queue_depth=2, policy=BatchPolicy(max_batch=2)),
            engine=_engine(),
        )
        columns = [_random_column(rng) for _ in range(8)]
        requests = [_scan(c) for c in columns]
        # Burst arrival: a 2-deep queue drops most of a one-shot stream.
        events = poisson_schedule(requests, rate_per_s=1e9, seed=9)
        client = RetryClient(
            frontend,
            BackoffPolicy(base_ns=10_000.0, multiplier=2.0, max_attempts=6),
        )
        outcome = client.run(events)
        assert outcome.delivered == len(requests)
        assert outcome.delivered_after_retry > 0
        assert outcome.gave_up == 0
        assert outcome.total_attempts > len(requests)
        for record in outcome.records:
            assert record.final.completed
            expected, _ = record.event.request.column.scan(
                record.event.request.kind, *record.event.request.constants
            )
            assert np.array_equal(record.final.value, expected)
            # Retries re-offer strictly later on the virtual clock.
            arrivals = [a.arrival_ns for a in record.attempts]
            assert arrivals == sorted(arrivals)
            if record.retries:
                assert arrivals[1] >= record.event.arrival_ns + 10_000.0

    def test_gives_up_after_max_attempts(self):
        rng = np.random.default_rng(10)
        frontend = ServiceFrontend(
            PipelineConfig(
                max_queue_depth=1,
                # Huge window and requests without a deadline: the queue
                # never drains during the retry horizon.
                policy=BatchPolicy(max_batch=64, window_ns=1e12),
            ),
            engine=_engine(),
        )
        requests = [_scan(_random_column(rng)) for _ in range(3)]
        events = poisson_schedule(requests, rate_per_s=1e9, seed=10)
        client = RetryClient(
            frontend, BackoffPolicy(base_ns=100.0, multiplier=2.0, max_attempts=3)
        )
        outcome = client.run(events)
        assert outcome.gave_up > 0
        for record in outcome.records:
            if record.gave_up:
                assert len(record.attempts) == 3
                assert all(not a.admitted for a in record.attempts)

    def test_jitter_is_seeded_and_bounded(self):
        policy = BackoffPolicy(base_ns=1000.0, multiplier=2.0, jitter=0.5)
        delays_a = [policy.delay_ns(i, seed=1) for i in range(1, 5)]
        delays_b = [policy.delay_ns(i, seed=1) for i in range(1, 5)]
        assert delays_a == delays_b
        for attempt, delay in enumerate(delays_a, start=1):
            nominal = 1000.0 * 2.0 ** (attempt - 1)
            assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base_ns=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.0)

    def test_retry_client_drives_a_cluster(self):
        """The client speaks the shared frontend protocol: a sharded
        cluster retries just like a single device."""
        from repro.cluster import ClusterFrontend

        rng = np.random.default_rng(11)
        cluster = ClusterFrontend(
            num_shards=2,
            config=PipelineConfig(policy=BatchPolicy(max_batch=2), max_queue_depth=2),
            engine_factory=lambda: _engine(),
        )
        requests = [_scan(_random_column(rng)) for _ in range(8)]
        events = poisson_schedule(requests, rate_per_s=1e9, seed=11)
        outcome = RetryClient(
            cluster, BackoffPolicy(base_ns=10_000.0, max_attempts=6)
        ).run(events)
        assert outcome.delivered == len(requests)
        assert outcome.result.completed == outcome.delivered
