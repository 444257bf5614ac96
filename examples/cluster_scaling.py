#!/usr/bin/env python3
"""The sharded cluster tier end to end: route, scatter, gather, scale.

One device's banks are the paper's parallelism; the cluster tier stacks
devices.  This example builds a 4-shard cluster — each shard an
:class:`AmbitEngine` over its own DDR3 device behind its own
admission-controlled :class:`ServiceFrontend` — and walks the three
mechanisms the tier adds:

* **routing** — scans go to the shard holding their column's planes;
  a replicated *hot* column's scans spread over its replicas by load,
* **scatter-gather** — a bitmap conjunction whose predicate columns live
  on different shards executes as shard-local OR/AND chains whose
  partial bitmaps are AND-merged host-side (bit-exact with one device),
* **scaling** — the same overload stream served by 1, 2, and 4 shards,
  with the ClusterMetrics roll-up (utilization, imbalance, fan-out).

Run with::

    python examples/cluster_scaling.py
"""

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.tables import ResultTable
from repro.api import PimSession
from repro.cluster import ShardRouter
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.service import BatchPolicy, ScanRequest, poisson_schedule

BANKS_PER_SHARD = 8
NUM_COLUMNS = 32
ROWS = 65536
CODE_BITS = 8


def engine_factory() -> AmbitEngine:
    return AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=BANKS_PER_SHARD))


def cluster_session(num_shards: int, router: ShardRouter = None, name="session") -> PimSession:
    return PimSession.over_cluster(
        num_shards=num_shards,
        name=name,
        router=router or ShardRouter(num_shards),
        engine_factory=engine_factory,
        policy=BatchPolicy(max_batch=64, window_ns=None),
        max_queue_depth=96,
    )


def hot_column_replication() -> None:
    """A replicated hot column's scans spread over the replicas."""
    rng = np.random.default_rng(1)
    hot = BitWeavingColumn(rng.integers(0, 1 << CODE_BITS, size=ROWS), CODE_BITS)
    router = ShardRouter(4, replication_factor=3, hot_columns=[hot])
    cluster = cluster_session(4, router).backend
    records = [
        cluster.offer(ScanRequest(column=hot, kind="less_than", constants=(c,)))
        for c in range(30, 42)
    ]
    cluster.drain()
    used = sorted({r.shard_ids[0] for r in records})
    print(
        f"hot column on replicas {sorted(router.replicas(hot))}: 12 scans routed "
        f"across shards {used} (replication turns space into bandwidth)"
    )


def scatter_gather() -> None:
    """A cross-shard conjunction merges per-shard partial bitmaps."""
    rng = np.random.default_rng(2)
    table = ColumnTable("orders", ROWS)
    table.add_column("region", rng.integers(0, 8, size=ROWS), cardinality=8)
    table.add_column("status", rng.integers(0, 4, size=ROWS), cardinality=4)
    table.add_column("tier", rng.integers(0, 6, size=ROWS), cardinality=6)
    index = BitmapIndex(table, ["region", "status", "tier"])

    session = cluster_session(4)
    predicates = [("region", (1, 2, 3)), ("status", (0, 1)), ("tier", (0, 2))]
    response = session.conjunction(index, predicates).result()
    expected, _plan = index.evaluate_conjunction(predicates)
    assert np.array_equal(response.value, expected), "scatter-gather diverged"
    print(
        f"conjunction scattered over {response.details.fanout} shard(s) "
        f"{list(response.details.shard_ids)}; merged bitmap bit-exact with "
        f"single-device evaluation ({response.matching_rows} matching rows, "
        f"{response.details.host_merge_ns:.0f} ns charged to the host merge)"
    )


def scaling_sweep() -> None:
    """The same Poisson overload served by 1, 2, and 4 shards."""
    rng = np.random.default_rng(7)
    columns = [
        BitWeavingColumn(rng.integers(0, 1 << CODE_BITS, size=ROWS), CODE_BITS)
        for _ in range(NUM_COLUMNS)
    ]
    scans = []
    for i in range(768):
        low = int(rng.integers(0, 200))
        scans.append(
            ScanRequest(
                column=columns[i % NUM_COLUMNS],
                kind="between",
                constants=(low, low + int(rng.integers(1, 55))),
            )
        )

    table = ResultTable(
        title="Poisson overload (16 M req/s offered), shards of 8 banks",
        columns=["shards", "completed", "rejected", "GB/s", "speedup", "util", "imbalance"],
    )
    base = None
    for num_shards in (1, 2, 4):
        # One session loop, any shard count: the unified API is what
        # makes "the same workload, both tiers" a one-line change.
        session = cluster_session(num_shards, name=f"cluster_{num_shards}")
        events = poisson_schedule(list(scans), rate_per_s=16e6, seed=11)
        futures = session.submit_stream(events)
        session.drain()
        m = session.report().details
        completed_bytes = sum(f.metrics.bytes_produced for f in futures if f.done())
        throughput = completed_bytes / (m.makespan_ns * 1e-9)
        base = base or throughput
        table.add_row(
            num_shards, m.completed, m.rejected, throughput / 1e9,
            f"{throughput / base:.2f}x", f"{m.mean_utilization:.2f}",
            f"{m.imbalance:.2f}",
        )
    print(table.render())


def main() -> None:
    hot_column_replication()
    scatter_gather()
    scaling_sweep()


if __name__ == "__main__":
    main()
