#!/usr/bin/env python3
"""A traced run of the service pipeline, rendered as a lane timeline.

Runs a small overloaded Poisson stream of predicate scans through the
``ServiceFrontend`` with ``observe=True``, then renders what the
observability plane recorded — all of it stamped from the simulation's
virtual clock, so the traced run is bit-exact with an untraced one:

* the **lane timeline** — one ASCII row per bank lane (plus the host
  lane and the batch track), showing each lane's busy intervals and
  occupancy over the run;
* the **span tree** of the slowest completed request — where its sojourn
  went (queueing vs service), which batch served it, and its deadline
  slack;
* the **metrics snapshot** — counters and streaming-histogram
  percentiles from the same run;
* a ``TRACE_timeline.json`` Perfetto export: load it at
  https://ui.perfetto.dev (or chrome://tracing) for the zoomable view.

Run with::

    python examples/trace_timeline.py
"""

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis import render_lane_timeline, render_span_tree
from repro.dram.device import DramDevice
from repro.database.bitweaving import BitWeavingColumn
from repro.obs import write_trace
from repro.service import (
    BatchPolicy,
    PipelineConfig,
    ScanRequest,
    ServiceFrontend,
    poisson_schedule,
)

NUM_SCANS = 48
BANKS = 4
QUEUE_DEPTH = 12                # shallow on purpose: overload sheds load
ARRIVAL_RATE_PER_S = 6e6       # well past the sequential service rate


def build_requests(rng):
    columns = [
        BitWeavingColumn(rng.integers(0, 256, size=16384), 8) for _ in range(BANKS)
    ]
    requests = []
    for index in range(NUM_SCANS):
        column = columns[index % BANKS]
        if index % 5 == 0:
            low = int(rng.integers(0, 200))
            requests.append(
                ScanRequest(column=column, kind="between", constants=(low, low + 40))
            )
        else:
            requests.append(
                ScanRequest(
                    column=column, kind="less_than",
                    constants=(int(rng.integers(1, 256)),),
                )
            )
    return requests


def main() -> None:
    rng = np.random.default_rng(9)
    engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=BANKS))
    config = PipelineConfig(
        policy=BatchPolicy(max_batch=8, window_ns=None), max_queue_depth=QUEUE_DEPTH
    )
    frontend = ServiceFrontend(config, engine=engine, observe=True)
    events = poisson_schedule(
        build_requests(rng), rate_per_s=ARRIVAL_RATE_PER_S, seed=17
    )
    result = frontend.run(events, name="traced_overload")
    metrics = result.metrics

    print(render_lane_timeline(frontend.obs.tracer))

    completed = result.completed()
    slowest = max(completed, key=lambda r: r.finish_ns - r.arrival_ns)
    print(
        f"\nslowest completed request "
        f"(sojourn {(slowest.finish_ns - slowest.arrival_ns) / 1e3:.1f} us):"
    )
    print(render_span_tree(slowest.trace))

    snapshot = frontend.obs.snapshot()
    print("\ncounters:")
    for name, value in snapshot["counters"].items():
        print(f"  {name:<28} {value:g}")
    print("histograms (p50 / p99, us):")
    for name, hist in snapshot["histograms"].items():
        print(f"  {name:<28} {hist['p50'] / 1e3:.1f} / {hist['p99'] / 1e3:.1f}")

    path = write_trace(
        "TRACE_timeline.json", frontend.obs.tracer, metrics=frontend.obs.metrics
    )
    print(
        f"\n{metrics.completed} completed, {metrics.rejected} shed "
        f"(queue depth {QUEUE_DEPTH}); full trace written to {path} — "
        "load it at https://ui.perfetto.dev"
    )


if __name__ == "__main__":
    main()
