#!/usr/bin/env python3
"""The batch plan optimizer on a repetition-heavy conjunction stream.

Real query streams repeat themselves: dashboards refresh the same
filters, cohorts of clients ask near-identical questions.  The
per-request planner lowers every conjunction in isolation, so a
repetition-heavy stream re-executes identical predicate sub-chains over
and over on one pinned bank set.  With ``optimize=True`` the planner
hands each closed batch to the plan optimizer, which

* canonicalizes predicate sub-chains and executes each distinct one
  **once** per batch, fanning the result bitmap out to every consumer
  (cross-request common-subexpression sharing),
* spreads a single request's independent sub-chains over distinct bank
  lanes picked from the executor's busy horizons, joining them with a
  host-side merge tree priced like the cluster gather (sub-chain
  splitting).

The run serves the same Zipf-skewed stream twice — per-request planner
vs optimizer — with ``sanitize=True`` (every optimized DAG certified by
the extended plan linter, every dispatch replayed by the race detector),
then prints the elimination counters straight off the session report.

Run with::

    python examples/plan_optimizer.py
"""

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.tables import ResultTable
from repro.api import PimSession
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.service import BatchPolicy, BitmapConjunctionRequest, poisson_schedule

NUM_ROWS = 65536
CARDINALITIES = {"region": 16, "status": 8, "channel": 8}
NUM_TEMPLATES = 10
NUM_REQUESTS = 120
ZIPF_S = 1.3


def build_stream(rng):
    """A Zipf-skewed stream of conjunctions drawn from a template pool."""
    table = ColumnTable("orders", NUM_ROWS)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(
            name, rng.integers(0, cardinality, size=NUM_ROWS), cardinality=cardinality
        )
    index = BitmapIndex(table, list(CARDINALITIES))

    columns = list(CARDINALITIES)
    templates = []
    for _ in range(NUM_TEMPLATES):
        picked = rng.choice(len(columns), size=int(rng.integers(2, 4)), replace=False)
        predicates = []
        for c in picked:
            name = columns[c]
            width = int(rng.integers(2, 5))
            values = rng.choice(CARDINALITIES[name], size=width, replace=False)
            predicates.append((name, tuple(int(v) for v in values)))
        templates.append(tuple(predicates))

    weights = 1.0 / np.arange(1, NUM_TEMPLATES + 1) ** ZIPF_S
    weights /= weights.sum()
    draws = rng.choice(NUM_TEMPLATES, size=NUM_REQUESTS, p=weights)
    requests = [
        BitmapConjunctionRequest(index=index, predicates=templates[d]) for d in draws
    ]
    duplication = 1.0 - len(set(int(d) for d in draws)) / NUM_REQUESTS
    return requests, duplication


def serve(requests, optimize):
    session = PimSession.over_service(
        engine=AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8)),
        name="optimized" if optimize else "baseline",
        sanitize=True,
        policy=BatchPolicy(max_batch=16, window_ns=None),
        max_queue_depth=10 * NUM_REQUESTS,
        optimize=optimize,
    )
    session.submit_stream(poisson_schedule(requests, rate_per_s=6e6, seed=11))
    session.drain()
    return session.report()


def main() -> None:
    rng = np.random.default_rng(23)
    requests, duplication = build_stream(rng)

    reports = {label: serve(requests, optimize) for label, optimize in
               [("per-request", False), ("optimizer", True)]}

    table = ResultTable(
        title=(
            f"{NUM_REQUESTS} conjunctions from {NUM_TEMPLATES} templates "
            f"(duplication {duplication:.2f}) on DDR3, 8 banks"
        ),
        columns=["planner", "completed", "batches", "makespan_ms",
                 "sojourn_p99_us", "ops_eliminated", "shared_subchains",
                 "host_merge_us"],
    )
    for label, report in reports.items():
        table.add_row(
            label,
            report.completed,
            report.details.batches,
            report.makespan_ns / 1e6,
            report.sojourn_p99_ns / 1e3,
            report.ops_eliminated,
            report.shared_subchains,
            report.host_merge_ns / 1e3,
        )
    print(table.render())

    base, opt = reports["per-request"], reports["optimizer"]
    speedup = base.makespan_ns / opt.makespan_ns
    print(
        f"\nthe optimizer eliminated {opt.ops_eliminated} device ops "
        f"({opt.shared_subchains} sub-chains served from a shared result), "
        f"finishing the stream {speedup:.2f}x faster"
    )


if __name__ == "__main__":
    main()
