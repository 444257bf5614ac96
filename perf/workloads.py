"""One seeded generator for the benchmark's four traffic streams.

A :class:`WorkloadSpec` freezes everything about a workload that is not
drawn from the seed: stream length, the Poisson arrival rate on the
*virtual* clock, the latency limit ``slo_us``, the request mix, and the
pipeline knobs the session is built with.  :func:`build` turns a spec
and a seed into a :class:`Workload` — arrival events plus session
constructor kwargs, nothing else.  The program under test never sees the
seed or the workload's name.

Rates and limits were calibrated once, at the commit that added the
benchmark (``perf/README.md`` says how), and are frozen here; a change that
claims a gain may not edit them.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.cluster import ShardRouter, kill_revive_schedule
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.service import ArrivalEvent, BatchPolicy, BitmapConjunctionRequest, ScanRequest
from repro.storage.requests import UpdateRequest

BANKS = 8                       # the paper's 8-bank DDR3 Ambit device
MAX_BATCH = 16
CARDINALITIES = {"region": 16, "status": 8, "channel": 8}
SCAN_COLUMNS = 16
SCAN_BITS = 8
SCAN_KINDS = ("less_than", "less_equal", "equal", "between")
WRITE_COLUMN = "status"
WRITE_ROWS = 64
MIN_REQUESTS = 48               # floor of a ``--scale``d stream (smoke runs)
# Template pools are part of the frozen spec, not of the seed: with only 12
# templates the pool's mean chain length decides whether the frozen arrival
# rate is 40% or 120% of the device's capacity.
POOL_SEED = 2019


@dataclass(frozen=True)
class WorkloadSpec:
    """The frozen half of a workload (the seed supplies the rest).

    Attributes:
        name / why: Fixed name and the one-sentence reason it exists.
        tier: ``"service"`` or ``"cluster"``.
        requests: Stream length at ``--scale 1``.
        rate_per_s: Poisson arrival rate on the virtual clock.
        slo_us: Latency limit a request must finish within, from its
            scheduled arrival, to count as met.
        rows: Table rows (one bitmap = ``rows / 8`` bytes).
        templates / zipf_s: Conjunction template pool and its skew.
        scan_frac / write_frac: Request mix (the rest are conjunctions).
        priority_frac / deadline_us: Share of requests sent at priority 1
            with a deadline this far after arrival.
        burst: ``(from_frac, to_frac, factor)`` — the arrival rate is
            multiplied by ``factor`` for that slice of the stream.
        fault: ``(shard, kill_frac, revive_frac)`` of the arrival span.
        controller: Attach an ``ElasticController`` to the cluster.
        window_us: ``BatchPolicy.window_ns`` in microseconds (None: batches
            close on size, urgency or stream end only).
        pipeline: Knobs handed to ``PimSession.over_service`` /
            ``over_cluster`` verbatim.
    """

    name: str
    why: str
    tier: str
    requests: int
    rate_per_s: float
    slo_us: float
    rows: int = 65536
    templates: int = 12
    zipf_s: float = 1.2
    scan_frac: float = 0.0
    write_frac: float = 0.0
    priority_frac: float = 0.0
    deadline_us: float = 0.0
    burst: Optional[Tuple[float, float, float]] = None
    fault: Optional[Tuple[int, float, float]] = None
    controller: bool = False
    window_us: Optional[float] = None
    pipeline: Dict[str, Any] = field(default_factory=dict)

    def echo(self) -> Dict[str, Any]:
        """The spec as plain JSON data (written into every run's output)."""
        return asdict(self)


@dataclass
class Workload:
    """What the harness hands the program: arrivals and how to build it."""

    tier: str
    events: List[ArrivalEvent]
    session_kwargs: Dict[str, Any]
    controller: bool


SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="svc_plain_conj",
            why=(
                "default pipeline, every conjunction lowered and executed on its own: "
                "planner lowering, plane allocation, executor/lanes and the engine cost "
                "model do the host work; optimizer, cache and cluster do none"
            ),
            tier="service",
            requests=6000,
            rate_per_s=3.8e5,
            slo_us=56.0,
            priority_frac=0.10,
            deadline_us=400.0,
            pipeline=dict(max_queue_depth=4096),
        ),
        WorkloadSpec(
            name="svc_shared_conj",
            why=(
                "same 12-template pool with optimize+cache on: nearly every request is a "
                "cache hit, so only the fixed per-request path (optimizer keys, frontend "
                "loop, session futures, metrics roll-up) is left"
            ),
            tier="service",
            requests=24000,
            rate_per_s=4.0e6,
            slo_us=4.8,
            priority_frac=0.10,
            deadline_us=100.0,
            pipeline=dict(max_queue_depth=4096, optimize=True, cache=True),
        ),
        WorkloadSpec(
            name="svc_mixed_rw",
            why=(
                "conjunctions, scans and 20% updates through optimizer+cache+hybrid "
                "maintenance, working set above the cache: invalidations, evictions and "
                "write lowering load the same layers differently"
            ),
            tier="service",
            requests=6000,
            rate_per_s=4.5e5,
            slo_us=48.0,
            templates=2048,
            zipf_s=0.9,
            scan_frac=0.30,
            write_frac=0.20,
            burst=(0.45, 0.55, 1.25),
            pipeline=dict(
                max_queue_depth=4096,
                max_backlog_ns=2.0e6,
                optimize=True,
                cache=True,
                maintenance="hybrid",
            ),
        ),
        WorkloadSpec(
            name="cluster_faulted_audited",
            why=(
                "4 shards at rf=2 with sanitizer, span recording, elastic controller and a "
                "mid-stream shard kill: the only stream where scatter/gather, router, "
                "faults, controller, verify and obs work"
            ),
            tier="cluster",
            requests=5000,
            rate_per_s=1.0e6,
            window_us=20.0,
            slo_us=36.0,
            rows=16384,
            templates=256,
            zipf_s=0.9,
            scan_frac=0.50,
            priority_frac=0.10,
            deadline_us=400.0,
            fault=(1, 0.25, 0.60),
            controller=True,
            pipeline=dict(
                num_shards=4,
                max_queue_depth=4096,
                sanitize=True,
                observe=True,
                shed_low_priority=True,
            ),
        ),
    )
}


def _paper_engine() -> AmbitEngine:
    return AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=BANKS))


@functools.lru_cache(maxsize=None)
def _template_pool(count: int) -> Tuple[Tuple, ...]:
    """Conjunction shapes: 2-3 columns, an ``IN`` set of 2-4 values each.

    Frozen like the rest of the spec, so drawn once per process (the pool is
    immutable and no part of the program under test)."""
    rng = np.random.default_rng(POOL_SEED)
    columns = list(CARDINALITIES)
    pool = []
    for _ in range(count):
        picked = rng.choice(len(columns), size=int(rng.integers(2, 4)), replace=False)
        predicates = []
        for c in picked:
            name = columns[c]
            values = rng.choice(CARDINALITIES[name], size=int(rng.integers(2, 5)), replace=False)
            predicates.append((name, tuple(int(v) for v in values)))
        pool.append(tuple(predicates))
    return tuple(pool)


def _scan(rng: np.random.Generator, columns: List[BitWeavingColumn]) -> ScanRequest:
    column = columns[int(rng.integers(len(columns)))]
    kind = SCAN_KINDS[int(rng.integers(len(SCAN_KINDS)))]
    if kind == "between":
        low = int(rng.integers(0, (1 << SCAN_BITS) - 64))
        return ScanRequest(column=column, kind=kind, constants=(low, low + 64))
    return ScanRequest(column=column, kind=kind, constants=(int(rng.integers(1 << SCAN_BITS)),))


def _update(rng: np.random.Generator, table: ColumnTable, index: BitmapIndex) -> UpdateRequest:
    row_ids = rng.choice(table.num_rows, size=WRITE_ROWS, replace=False)
    values = rng.integers(0, CARDINALITIES[WRITE_COLUMN], size=WRITE_ROWS)
    return UpdateRequest(
        table=table,
        index=index,
        column=WRITE_COLUMN,
        row_ids=tuple(int(r) for r in row_ids),
        values=tuple(int(v) for v in values),
    )


def build(spec: WorkloadSpec, seed: int, scale: float = 1.0) -> Workload:
    """Generate one repeat's inputs: same ``(spec, seed, scale)``, same stream.

    The seed draws the table contents, the template each conjunction uses,
    the request mix, priorities and arrivals.  Everything is rebuilt on
    every call — tables, index, columns, requests, engine(s), router,
    fault plan — because writes, caches and fault plans all mutate what a
    previous repeat touched.
    """
    rng = np.random.default_rng(seed)
    count = max(MIN_REQUESTS, int(round(spec.requests * scale)))

    table = ColumnTable("orders", spec.rows)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(name, rng.integers(0, cardinality, size=spec.rows), cardinality=cardinality)
    index = BitmapIndex(table, list(CARDINALITIES))
    scan_columns = (
        [
            BitWeavingColumn(rng.integers(0, 1 << SCAN_BITS, size=spec.rows), SCAN_BITS)
            for _ in range(SCAN_COLUMNS)
        ]
        if spec.scan_frac
        else []
    )

    pool = _template_pool(spec.templates)
    weights = 1.0 / np.arange(1, spec.templates + 1) ** spec.zipf_s
    draws = rng.choice(spec.templates, size=count, p=weights / weights.sum())
    kinds = rng.random(count)
    urgent = rng.random(count) < spec.priority_frac

    # Open loop on the virtual clock: exponential gaps at the frozen rate,
    # compressed by the burst factor inside the burst slice.
    gaps = rng.exponential(1e9 / spec.rate_per_s, size=count)
    if spec.burst is not None:
        start, stop, factor = spec.burst
        gaps[int(start * count): int(stop * count)] /= factor
    arrivals = np.cumsum(gaps)

    events: List[ArrivalEvent] = []
    for i in range(count):
        if kinds[i] < spec.write_frac:
            request: Any = _update(rng, table, index)
        elif kinds[i] < spec.write_frac + spec.scan_frac:
            request = _scan(rng, scan_columns)
        else:
            request = BitmapConjunctionRequest(index=index, predicates=pool[draws[i]])
        at = float(arrivals[i])
        events.append(
            ArrivalEvent(
                request=request,
                arrival_ns=at,
                priority=1 if urgent[i] else 0,
                deadline_ns=at + spec.deadline_us * 1e3 if urgent[i] else None,
            )
        )

    window_ns = spec.window_us * 1e3 if spec.window_us is not None else None
    kwargs = dict(spec.pipeline, policy=BatchPolicy(max_batch=MAX_BATCH, window_ns=window_ns))
    if spec.tier == "cluster":
        shards = kwargs["num_shards"]
        kwargs["router"] = ShardRouter(shards, replication_factor=2)
        kwargs["engine_factory"] = _paper_engine
        if spec.fault is not None:
            shard, kill, revive = spec.fault
            span = float(arrivals[-1])
            kwargs["faults"] = kill_revive_schedule([(shard, kill * span, revive * span)])
    else:
        kwargs["engine"] = _paper_engine()
    return Workload(
        tier=spec.tier, events=events, session_kwargs=kwargs, controller=spec.controller
    )
