#!/usr/bin/env python3
"""The write path end to end: maintenance strategies and the result cache.

PR 9 makes the database *mutable*: ``AppendRequest`` / ``UpdateRequest``
/ ``DeleteRequest`` flow through the same admission-controlled frontend
as reads, a :class:`~repro.storage.MaintenancePolicy` decides when the
bitmap planes are repaired, and the cross-batch
:class:`~repro.cache.ResultCache` turns repeated conjunctions into
host-memory reads — *if* its write-driven invalidation keeps it honest.
This example walks the three mechanisms:

* **strategies** — the same update stream under eager (pay at write
  time), lazy (first read repairs), and hybrid (hot columns eager, cold
  lazy, driven by the ``storage.reads.*`` counters);
* **invalidation** — a hot cached conjunction survives writes to columns
  it does not depend on and is dropped the moment one it *does* depend
  on mutates, then re-warms on the next read;
* **consistency** — every answer stays bit-exact with a from-scratch
  rebuild of the mutated table, which is the whole point.

Run with::

    python examples/write_workload.py
"""

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.tables import ResultTable
from repro.api import PimSession
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ServiceFrontend,
)
from repro.storage import AppendRequest, UpdateRequest

ROWS = 65536
CARDINALITIES = {"region": 16, "status": 8, "channel": 8}
HOT_PREDICATES = (("region", (1, 2, 3)), ("channel", (0, 1)))
STATUS_PREDICATES = (("status", (0, 1)), ("region", (4, 5)))


def build_frontend(maintenance: str, cache: bool) -> ServiceFrontend:
    engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8))
    config = PipelineConfig(
        sanitize=True,
        policy=BatchPolicy(max_batch=16, window_ns=None),
        max_queue_depth=512,
        cache=cache,
        maintenance=maintenance,
    )
    return ServiceFrontend(config, engine=engine, observe=True)


def build_table(seed: int = 5):
    rng = np.random.default_rng(seed)
    table = ColumnTable("orders", ROWS)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(
            name, rng.integers(0, cardinality, size=ROWS), cardinality=cardinality
        )
    return table, BitmapIndex(table, list(CARDINALITIES))


def strategy_comparison() -> None:
    """The same mixed stream under the three maintenance strategies."""
    print("=== eager / lazy / hybrid on one mixed stream ===")
    table_out = ResultTable(
        title="24 reads + 8 status updates per mode",
        columns=["strategy", "write_us", "read_us", "rebuilds", "cache_hits"],
    )
    for strategy in ("eager", "lazy", "hybrid"):
        rng = np.random.default_rng(5)
        table, index = build_table()
        session = PimSession(build_frontend(strategy, cache=True))
        for _ in range(24):
            session.submit(BitmapConjunctionRequest(index=index, predicates=HOT_PREDICATES))
            if rng.random() < 0.33:
                row_ids = rng.choice(ROWS, size=64, replace=False)
                session.submit(
                    UpdateRequest(
                        table=table, index=index, column="status",
                        row_ids=[int(r) for r in row_ids],
                        values=[int(v) for v in rng.integers(0, 8, size=64)],
                    )
                )
            if rng.random() < 0.25:
                # A read over the written column: lazy pays its deferred
                # rebuild here, visible in the rebuilds column.
                session.submit(
                    BitmapConjunctionRequest(index=index, predicates=STATUS_PREDICATES)
                )
            session.drain()
        records = [f.record for f in session.futures if f.record.completed]
        write_ns = sum(
            r.metrics.latency_ns for r in records if r.request.__class__ is UpdateRequest
        )
        read_ns = sum(
            r.metrics.latency_ns for r in records if r.request.__class__ is not UpdateRequest
        )
        table_out.add_row(
            strategy,
            write_ns / 1e3,
            read_ns / 1e3,
            index.rebuilds,
            session.report().cache_hits,
        )
    print(table_out.render())
    print()


def invalidation_walkthrough() -> None:
    """Watch one hot cached conjunction live through writes."""
    print("=== write-driven invalidation of a hot conjunction ===")
    rng = np.random.default_rng(7)
    table, index = build_table()
    frontend = build_frontend("hybrid", cache=True)
    cache = frontend.cache

    def read() -> None:
        frontend.offer(BitmapConjunctionRequest(index=index, predicates=HOT_PREDICATES))
        frontend.drain()

    read()  # cold: fills the cache
    read()  # warm: served from host memory
    print(f"after two reads: hits={cache.hits} fills={cache.fills} "
          f"live_entries={cache.live_entries}")

    # A write to an *unrelated* column leaves the entry alone...
    frontend.offer(
        UpdateRequest(
            table=table, index=index, column="status",
            row_ids=[0, 1, 2], values=[1, 2, 3],
        )
    )
    frontend.drain()
    read()
    print(f"after a status write + read: hits={cache.hits} "
          f"invalidations={cache.invalidations} (entry survived)")

    # ...while an append changes num_rows: everything for the index drops,
    # and the next read re-warms the cache from the new planes.
    frontend.offer(
        AppendRequest(
            table=table, index=index,
            rows={name: [0, 1] for name in CARDINALITIES},
        )
    )
    frontend.drain()
    print(f"after an append: invalidations={cache.invalidations} "
          f"live_entries={cache.live_entries}")
    read()  # re-warm
    read()
    print(f"after two more reads: hits={cache.hits} fills={cache.fills}")

    # Consistency: the served planes equal a from-scratch rebuild.
    fresh = BitmapIndex(table, list(CARDINALITIES))
    assert all(
        np.array_equal(index.bitmap(c, v), fresh.bitmap(c, v))
        for c, card in CARDINALITIES.items()
        for v in range(card)
    )
    print("final index is bit-exact with a from-scratch rebuild")
    counters = frontend.obs.metrics.snapshot()["counters"]
    cache_counters = {k: v for k, v in sorted(counters.items()) if k.startswith("cache.")}
    print(f"obs counters: {cache_counters}")
    print()


def main() -> None:
    strategy_comparison()
    invalidation_walkthrough()


if __name__ == "__main__":
    main()
