"""Mixed read/write stream: maintenance strategies and the result cache.

PR 7's CSE dies with its batch and PR 9's :class:`~repro.cache.ResultCache`
is the layer between batches — but a cache is only worth its consistency
machinery if it survives *writes*.  This benchmark drives the same
repetition-heavy Zipf conjunction stream as ``bench_optimizer``, now with
one in five requests an :class:`~repro.storage.UpdateRequest` against the
``status`` column, through four modes:

* ``eager_nocache`` — always-consistent planes, no result cache (the
  cache-off baseline);
* ``eager`` / ``lazy`` / ``hybrid`` — the three
  :class:`~repro.storage.MaintenancePolicy` strategies with the result
  cache on.

Every mode serves the identical admitted stream (updates mutate each
mode's own private table/index copy, built from the same seed), so reads
must be **bit-exact across all four modes** — cache hits, column-level
invalidation, epoch-guarded fills, and lazily deferred plane rebuilds
may never change an answer.  After the stream drains, each mode's index
must equal a from-scratch rebuild of its table (the rebuild-equivalence
property, also pinned per-strategy in ``tests/test_storage.py``).

The cache-on modes serve reads through the batch plan optimizer (a cache
turns it on): sub-chains split across lanes, each predicate consulted and
filled under its own key, so a write drops only the entries of the column
it touched.

The acceptance bar: cache-on modeled throughput (returned result bytes
over completion makespan) is at least 2.0x cache-off under eager
maintenance, write service costs are visible in the ledger (non-zero charged latency
and energy for the update records), and the run emits
``BENCH_writes.json`` (schema in ``tools/validate_bench.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.tables import ResultTable
from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ServiceFrontend,
    poisson_schedule,
)
from repro.storage.requests import UpdateRequest, is_write_request

from _bench_utils import emit, emit_json, serve

BANKS = 8
NUM_ROWS = 65536                # one 8 KiB DRAM row per bitmap
CARDINALITIES = {"region": 16, "status": 8, "channel": 8}
NUM_TEMPLATES = 12              # distinct conjunction shapes in the pool
NUM_REQUESTS = 192
WRITE_FRACTION = 0.2            # one in five requests is an update
WRITE_ROWS = 64                 # rows each update overwrites
WRITE_COLUMN = "status"         # updates touch only this column's planes
ZIPF_S = 1.2                    # template popularity skew
ARRIVAL_RATE_PER_S = 8e6        # well past the sequential service rate
MAX_BATCH = 16

MODES = ("eager_nocache", "eager", "lazy", "hybrid")


def _build_stream(seed: int = 7):
    """One private table/index plus the mixed read/write request stream.

    Called once per mode with the same seed: updates mutate the mode's
    own copy, so every mode sees the identical logical stream against
    identical initial data — the precondition for bit-exact comparison.
    """
    rng = np.random.default_rng(seed)
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
    is_write = rng.random(NUM_REQUESTS) < WRITE_FRACTION
    requests = []
    for position in range(NUM_REQUESTS):
        if is_write[position]:
            row_ids = rng.choice(NUM_ROWS, size=WRITE_ROWS, replace=False)
            values = rng.integers(0, CARDINALITIES[WRITE_COLUMN], size=WRITE_ROWS)
            requests.append(
                UpdateRequest(
                    table=table,
                    index=index,
                    column=WRITE_COLUMN,
                    row_ids=tuple(int(r) for r in row_ids),
                    values=tuple(int(v) for v in values),
                )
            )
        else:
            requests.append(
                BitmapConjunctionRequest(
                    index=index, predicates=templates[draws[position]]
                )
            )
    read_draws = [int(d) for d, w in zip(draws, is_write) if not w]
    duplication_rate = 1.0 - len(set(read_draws)) / max(1, len(read_draws))
    return table, index, requests, duplication_rate


def _run_mode(system, mode: str):
    ambit = system["ambit"]
    table, index, requests, duplication_rate = _build_stream()
    strategy = "eager" if mode == "eager_nocache" else mode
    config = PipelineConfig(
        # sanitize: every dispatch is replayed by the race detector and
        # every lowered write certified by the write-plan lint (cache on
        # adds the cache-consistency lint after each invalidation).
        sanitize=True,
        policy=BatchPolicy(max_batch=MAX_BATCH, window_ns=None),
        max_queue_depth=10 * NUM_REQUESTS,  # unbounded: identical workloads
        cache=(mode != "eager_nocache"),
        maintenance=strategy,
    )
    frontend = ServiceFrontend(config, engine=ambit)
    events = poisson_schedule(requests, rate_per_s=ARRIVAL_RATE_PER_S, seed=11)
    report, records = serve(frontend, events, name=mode)
    metrics = report.details
    completed = [record for record in records if record.completed]
    # Useful bytes: the response bitmaps the reads actually return.  The
    # read set is identical across modes, so the gain is purely the
    # makespan ratio — per-op traffic accounting (which CSE legitimately
    # shrinks) never dilutes or inflates it.
    result_bytes = sum(
        r.value.nbytes for r in completed if not is_write_request(r.request)
    )
    throughput = result_bytes / (metrics.makespan_ns * 1e-9)
    return {
        "mode": mode,
        "frontend": frontend,
        "table": table,
        "index": index,
        "requests": requests,
        "duplication_rate": duplication_rate,
        "completed": completed,
        "metrics": metrics,
        "throughput": throughput,
    }


def _run_experiment(system):
    return {mode: _run_mode(system, mode) for mode in MODES}


@pytest.mark.benchmark(group="writes")
def test_result_cache_pays_for_itself_under_writes(benchmark, ddr3_ambit_system):
    outcomes = benchmark(_run_experiment, ddr3_ambit_system)

    duplication_rate = outcomes["eager"]["duplication_rate"]
    table = ResultTable(
        title=(
            f"Mixed Zipf stream ({NUM_REQUESTS} requests, {WRITE_FRACTION:.0%} updates "
            f"on {WRITE_COLUMN!r}, read duplication {duplication_rate:.2f}) on "
            f"{BANKS} banks, batches of {MAX_BATCH}"
        ),
        columns=[
            "mode", "completed", "makespan_ms", "GB/s", "sojourn_p99_us",
            "cache_hits", "invalidations", "rebuilds", "write_us",
        ],
    )
    payload = {
        "duplication_rate": duplication_rate,
        "write_fraction": WRITE_FRACTION,
    }
    for mode in MODES:
        out = outcomes[mode]
        metrics = out["metrics"]
        writes = [r for r in out["completed"] if is_write_request(r.request)]
        write_latency_ns = sum(r.metrics.latency_ns for r in writes)
        write_energy_j = sum(r.metrics.energy_j for r in writes)
        cache = out["frontend"].cache
        table.add_row(
            mode,
            metrics.completed,
            metrics.makespan_ns / 1e6,
            out["throughput"] / 1e9,
            metrics.sojourn_p99_ns / 1e3,
            metrics.cache_hits,
            metrics.cache_invalidations,
            out["index"].rebuilds,
            write_latency_ns / 1e3,
        )
        payload[mode] = {
            "completed": metrics.completed,
            "rejected": metrics.rejected,
            "batches": metrics.batches,
            "throughput_gb_s": out["throughput"] / 1e9,
            "sojourn_p50_us": metrics.sojourn_p50_ns / 1e3,
            "sojourn_p99_us": metrics.sojourn_p99_ns / 1e3,
            "makespan_ms": metrics.makespan_ns / 1e6,
            "busy_ms": metrics.busy_ns / 1e6,
            "energy_j": metrics.energy_j,
            "writes": len(writes),
            "write_latency_us": write_latency_ns / 1e3,
            "write_energy_j": write_energy_j,
            "rebuilds": out["index"].rebuilds,
            "cache_hits": metrics.cache_hits,
            "cache_misses": metrics.cache_misses,
            "cache_invalidations": metrics.cache_invalidations,
            "cache_fills": cache.fills if cache is not None else 0,
            "cache_bypasses": cache.bypasses if cache is not None else 0,
            "cache_evictions": cache.evictions if cache is not None else 0,
        }
    gain = (
        payload["eager"]["throughput_gb_s"]
        / payload["eager_nocache"]["throughput_gb_s"]
    )
    payload["cache_on_vs_off_throughput"] = gain
    emit(table)
    emit(f"the result cache is {gain:.2f}x the cache-off baseline under writes")
    emit_json("writes", payload)

    # Every mode served the identical admitted stream ...
    for mode in MODES:
        metrics = outcomes[mode]["metrics"]
        assert metrics.rejected == 0
        assert metrics.completed == NUM_REQUESTS

    # ... and answers are bit-exact across all four modes, position by
    # position: cache hits, invalidation, and deferred rebuilds never
    # change a result; updates report identical rows affected.
    reference = outcomes["eager_nocache"]["completed"]
    for mode in MODES[1:]:
        for ref, record in zip(reference, outcomes[mode]["completed"]):
            if is_write_request(ref.request):
                assert record.value == ref.value
            else:
                assert np.array_equal(record.value, ref.value)

    # Rebuild equivalence: each mode's final index equals a from-scratch
    # rebuild of its (mutated) table — lazy/hybrid repair any still-dirty
    # columns on first read, so reading the planes IS the check.
    for mode in MODES:
        index, mode_table = outcomes[mode]["index"], outcomes[mode]["table"]
        fresh = BitmapIndex(mode_table, list(CARDINALITIES))
        for column, cardinality in CARDINALITIES.items():
            for value in range(cardinality):
                assert np.array_equal(
                    index.bitmap(column, value), fresh.bitmap(column, value)
                ), f"{mode}: plane {column}={value} diverged from rebuild"

    # Write costs are real, visible in the ledger of every mode.
    for mode in MODES:
        assert payload[mode]["writes"] > 0
    assert payload["eager_nocache"]["write_latency_us"] > 0
    assert payload["eager_nocache"]["write_energy_j"] > 0

    # The cache is doing the lifting: hits under write pressure, with
    # invalidations proving consistency work actually happened.
    assert payload["eager"]["cache_hits"] > 0
    assert payload["eager"]["cache_invalidations"] > 0

    # Acceptance: >= 2.0x modeled throughput for cache-on over cache-off
    # on this repetition-heavy mixed stream.
    assert gain >= 2.0
