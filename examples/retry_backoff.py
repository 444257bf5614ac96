#!/usr/bin/env python3
"""Rejected requests don't vanish: a retry/backoff client over the service.

Admission control turns overload into rejections; PR 2 left those
requests on the floor.  :class:`RetryClient` models the client side of
backpressure on the same virtual clock: every rejection re-offers after
exponential backoff (with seeded jitter to break up retry storms), so a
burst that overwhelms the queue drains through it over a few attempts
instead of being lost.

The demo offers one burst far past the queue bound, one-shot vs. retried,
then shows the same client driving a 2-shard cluster.

Run with::

    python examples/retry_backoff.py
"""

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.tables import ResultTable
from repro.api import PimSession
from repro.database.bitweaving import BitWeavingColumn
from repro.dram.device import DramDevice
from repro.service import (
    BackoffPolicy,
    BatchPolicy,
    PipelineConfig,
    RetryClient,
    ScanRequest,
    ServiceFrontend,
    poisson_schedule,
)

NUM_SCANS = 96
CODE_BITS = 8
ROWS = 65536


def build_events(seed: int = 3):
    rng = np.random.default_rng(seed)
    columns = [
        BitWeavingColumn(rng.integers(0, 1 << CODE_BITS, size=ROWS), CODE_BITS)
        for _ in range(16)
    ]
    scans = [
        ScanRequest(
            column=columns[i % len(columns)],
            kind="less_than",
            constants=(int(rng.integers(1, 1 << CODE_BITS)),),
        )
        for i in range(NUM_SCANS)
    ]
    # A hard burst: everything arrives within a few microseconds.
    return poisson_schedule(scans, rate_per_s=40e6, seed=seed)


def build_frontend() -> ServiceFrontend:
    config = PipelineConfig(
        # Batches must close while retries are pending (size 8 fires well
        # below the queue bound), or the queue never drains mid-stream.
        policy=BatchPolicy(max_batch=8, window_ns=None),
        max_queue_depth=24,
    )
    return ServiceFrontend(
        config, engine=AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8))
    )


def main() -> None:
    table = ResultTable(
        title=f"{NUM_SCANS}-scan burst into a 24-deep queue",
        columns=["client", "delivered", "after_retry", "gave_up", "attempts"],
    )

    # One-shot client: rejections are lost.
    one_shot = build_frontend().run(build_events(), name="one_shot")
    table.add_row(
        "one-shot", one_shot.metrics.completed, 0,
        one_shot.metrics.rejected, one_shot.metrics.offered,
    )

    # Retrying client: the same burst drains through the bounded queue.
    policy = BackoffPolicy(base_ns=10_000.0, multiplier=2.0, max_attempts=6, jitter=0.25)
    outcome = RetryClient(build_frontend(), policy, seed=1).run(
        build_events(), name="retry_client"
    )
    table.add_row(
        "retry/backoff", outcome.delivered, outcome.delivered_after_retry,
        outcome.gave_up, outcome.total_attempts,
    )

    # The same client drives a sharded cluster unchanged — here wrapped in
    # a PimSession (the client speaks the shared Backend protocol either
    # way, so passing the session or its backend is equivalent).
    session = PimSession.over_cluster(
        num_shards=2,
        engine_factory=lambda: AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8)),
        policy=BatchPolicy(max_batch=8, window_ns=None),
        max_queue_depth=12,
    )
    clustered = RetryClient(session, policy, seed=1).run(build_events(), name="cluster")
    table.add_row(
        "retry over 2 shards", clustered.delivered, clustered.delivered_after_retry,
        clustered.gave_up, clustered.total_attempts,
    )
    print(table.render())

    recovered = [r for r in outcome.records if r.delivered and r.retries]
    if recovered:
        waits = [r.final.arrival_ns - r.event.arrival_ns for r in recovered]
        print(
            f"\n{len(recovered)} requests got in on a later attempt; "
            f"worst client-side backoff wait {max(waits) / 1e3:.0f} us "
            f"(base 10 us, doubling, jitter 25%)"
        )


if __name__ == "__main__":
    main()
