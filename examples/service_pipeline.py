#!/usr/bin/env python3
"""The admission-controlled service pipeline end to end.

Two traffic classes share one PIM service: latency-critical *interactive*
predicate scans (high priority, tight deadlines) and best-effort *batch*
work (bitmap-index conjunctions and bulk scans, no deadlines).  Requests
arrive as a Poisson process well past the sequential service rate, so the
pipeline has to earn its keep:

* the **frontend** admits arrivals into a bounded priority queue and
  rejects the overflow (backpressure a real deployment would propagate),
* the **planner** closes batches by size/window/deadline urgency and
  lowers the conjunctions into primitive bulk-operation chains,
* the **executor** overlaps each batch across the device's banks with LPT
  ordering — the only speedup mechanism; per-request latency and energy
  stay exactly sequential.

A functional pass on a tiny device at the end re-runs a slice of the
stream on the simulated banks with sampled verification
(``verify_fraction``), double-checking bit-exactness.

Run with::

    python examples/service_pipeline.py
"""

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.tables import ResultTable
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import (
    ArrivalEvent,
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ScanRequest,
    ServiceFrontend,
)

SCAN_KINDS = ("less_than", "less_equal", "equal", "between")


def build_workload(rng, num_requests=160, rate_per_s=3e6):
    """An interleaved two-class arrival stream."""
    columns = [
        BitWeavingColumn(rng.integers(0, 256, size=65536), 8) for _ in range(12)
    ]
    table = ColumnTable("orders", 65536)
    table.add_column("region", rng.integers(0, 8, size=65536), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=65536), cardinality=4)
    index = BitmapIndex(table, ["region", "status"])

    events = []
    now = 0.0
    for _ in range(num_requests):
        now += rng.exponential(1e9 / rate_per_s)
        if rng.random() < 0.5:
            # Interactive: single predicate scan, priority 1, tight deadline.
            column = columns[rng.integers(len(columns))]
            kind = SCAN_KINDS[rng.integers(len(SCAN_KINDS))]
            if kind == "between":
                low = int(rng.integers(0, 200))
                request = ScanRequest(
                    column=column, kind=kind,
                    constants=(low, low + int(rng.integers(1, 55))),
                )
            else:
                request = ScanRequest(
                    column=column, kind=kind, constants=(int(rng.integers(0, 256)),)
                )
            events.append(
                ArrivalEvent(request, now, priority=1, deadline_ns=now + 40_000.0)
            )
        else:
            # Best effort: a bitmap conjunction, no deadline.
            request = BitmapConjunctionRequest(
                index=index,
                predicates=(
                    ("region", tuple(int(v) for v in rng.choice(8, size=2, replace=False))),
                    ("status", (int(rng.integers(0, 4)),)),
                ),
            )
            events.append(ArrivalEvent(request, now, priority=0))
    return events


def serve_stream() -> None:
    from repro.api import PimSession

    rng = np.random.default_rng(42)
    engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8))
    # The unified client API: a session over the service frontend.  The
    # identical loop would drive a ClusterFrontend or the host baseline.
    session = PimSession.over_service(
        engine=engine,
        name="two_class_stream",
        policy=BatchPolicy(max_batch=48, window_ns=25_000.0, urgency_slack_ns=0.0),
        max_queue_depth=64,
    )
    events = build_workload(rng)
    futures = session.submit_stream(events)
    session.drain()
    m = session.report().details

    table = ResultTable(
        title="Two-class Poisson stream on DDR3 (8 banks)",
        columns=["metric", "value"],
    )
    table.add_row("offered", m.offered)
    table.add_row("admitted", m.admitted)
    table.add_row("rejected (backpressure)", m.rejected)
    table.add_row("completed", m.completed)
    table.add_row("batches", m.batches)
    table.add_row("wait p50 / p99 (us)", f"{m.wait_p50_ns / 1e3:.1f} / {m.wait_p99_ns / 1e3:.1f}")
    table.add_row("sojourn p50 / p99 (us)", f"{m.sojourn_p50_ns / 1e3:.1f} / {m.sojourn_p99_ns / 1e3:.1f}")
    table.add_row("deadline misses", m.deadline_misses)
    table.add_row("pipeline speedup", f"{m.pipeline_speedup:.2f}x")
    table.add_row("energy (mJ)", f"{m.energy_j * 1e3:.3f}")
    print(table.render())

    done = [f for f in futures if f.done()]
    interactive = [f for f in done if f.record.priority == 1]
    batch_class = [f for f in done if f.record.priority == 0]
    if interactive and batch_class:
        mean = lambda xs: sum(xs) / len(xs)
        print(
            f"\ninteractive mean sojourn {mean([f.sojourn_ns for f in interactive]) / 1e3:.1f} us"
            f" vs best-effort {mean([f.sojourn_ns for f in batch_class]) / 1e3:.1f} us"
            " (priorities at work)"
        )


def verify_functional_smoke() -> None:
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
    engine = AmbitEngine(
        device, AmbitConfig(banks_parallel=4, vectorized_functional=True)
    )
    config = PipelineConfig(
        policy=BatchPolicy(max_batch=8), functional=True, verify_fraction=0.5, verify_seed=3
    )
    frontend = ServiceFrontend(config, engine=engine)
    executor = frontend.executor
    rng = np.random.default_rng(7)
    columns = [BitWeavingColumn(rng.integers(0, 64, size=300), 6) for _ in range(4)]
    for column in columns:
        frontend.offer(ScanRequest(column=column, kind="between", constants=(5, 50)))
        frontend.offer(ScanRequest(column=column, kind="equal", constants=(21,)))
    frontend.drain()
    result = frontend.result("functional_smoke")
    for record in result.completed():
        expected, _ = record.request.column.scan(
            record.request.kind, *record.request.constants
        )
        assert np.array_equal(record.value, expected), "pipeline diverged"
    print(
        f"\nfunctional smoke: {result.metrics.completed} scans bit-exact; "
        f"{executor.functional_executed} verified on the banks, "
        f"{executor.sampled_out} sampled out (verify_fraction=0.5), "
        f"pool {executor.pool.hits} hits / {executor.pool.misses} misses"
    )


def main() -> None:
    serve_stream()
    verify_functional_smoke()


if __name__ == "__main__":
    main()
