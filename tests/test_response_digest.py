"""Every field a :class:`~repro.api.Response` reads, pinned by digest.

Each stream is served through a session and read back; one sha256 covers
every name a response answers — value bytes, ``matching_rows``, every time
and price, ``deadline_missed``, ``rejected_reason``, every ``details``
field and whether ``trace`` is None — of every response, rejections
included.  The digests were taken from the tree in which a response
copied each field at build time, so a response that derives them from its
envelope and its answer reproduces them bit for bit.

The streams cover door rejections (``queue_full``), priority shedding,
deadlines met and missed, writes and scans on the service tier (with the
optimizer and result cache on and off), a cluster that loses a shard
mid-stream (failovers, a part with no surviving placement,
all-or-nothing refusals that cancel queued siblings), and the host tier;
the PIM tiers with the recording plane on and off.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.api import HostBackend, PimSession
from repro.cluster import ClusterFrontend, ShardRouter, kill_revive_schedule
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import (
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ScanRequest,
    ServiceFrontend,
)
from repro.service.frontend import ArrivalEvent
from repro.storage import DeleteRequest, UpdateRequest

ROWS = 160
CARDINALITIES = {"region": 6, "status": 4, "tier": 3}

#: Every name a response answers besides ``value`` and ``details``.
FIELDS = (
    "kind",
    "status",
    "completed",
    "matching_rows",
    "latency_ns",
    "energy_j",
    "scan_ns",
    "epilogue_ns",
    "arrival_ns",
    "start_ns",
    "finish_ns",
    "wait_ns",
    "sojourn_ns",
    "breakdown",
    "deadline_missed",
    "rejected_reason",
)


def _engine() -> AmbitEngine:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=2,
        subarrays_per_bank=2,
        rows_per_subarray=32,
        row_size_bytes=64,
    )
    device = DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )
    return AmbitEngine(device, AmbitConfig(banks_parallel=2, vectorized_functional=True))


def _events(seed: int, count: int, writes: bool, gap=(40, 400)):
    """Conjunctions of one to three predicates, a scan every fifth
    request, an update every seventh unless ``writes`` is off (and one
    delete near the end), two priority classes, and a tight deadline on
    every third arrival.  Built afresh per run: the writes mutate the
    stream's own table."""
    rng = np.random.default_rng(seed)
    table = ColumnTable("t", ROWS)
    for name, cardinality in CARDINALITIES.items():
        table.add_column(name, rng.integers(0, cardinality, size=ROWS), cardinality=cardinality)
    index = BitmapIndex(table, list(CARDINALITIES))
    column = BitWeavingColumn(rng.integers(0, 64, size=ROWS), 6)
    events, at_ns = [], 0.0
    for i in range(count):
        at_ns += float(rng.integers(*gap))
        if writes and i == count - 4:
            request = DeleteRequest(table=table, index=index, row_ids=(ROWS - 2, ROWS - 1))
        elif writes and i % 7 == 6:
            name = ("status", "region")[(i // 7) % 2]
            request = UpdateRequest(
                table=table,
                index=index,
                column=name,
                row_ids=[int(r) for r in rng.choice(ROWS - 8, size=3, replace=False)],
                values=[int(v) for v in rng.integers(0, CARDINALITIES[name], size=3)],
            )
        elif i % 5 == 4:
            constant = int(rng.integers(64))
            request = ScanRequest(column=column, kind="less_than", constants=(constant,))
        else:
            request = BitmapConjunctionRequest(
                index=index,
                predicates=tuple(
                    (c, tuple(sorted({int(v) for v in rng.integers(0, CARDINALITIES[c], size=2)})))
                    for c in ("status", "region", "tier")[: 1 + i % 3]
                ),
            )
        deadline = at_ns + 700.0 if i % 3 == 0 else None
        events.append(ArrivalEvent(request, at_ns, priority=i % 2, deadline_ns=deadline))
    return events


def _config(depth: int, **knobs) -> PipelineConfig:
    return PipelineConfig(
        policy=BatchPolicy(max_batch=3, window_ns=400.0),
        max_queue_depth=depth,
        shed_low_priority=True,
        **knobs,
    )


def _service(observe: bool, **knobs) -> PimSession:
    return PimSession(ServiceFrontend(_config(3, **knobs), engine=_engine(), observe=observe))


def _cluster(events, observe: bool, **knobs) -> PimSession:
    cluster = ClusterFrontend(
        2,
        _config(4, **knobs),
        router=ShardRouter(2, replication_factor=2, hot_columns=("status", "tier")),
        engine_factory=_engine,
        observe=observe,
        faults=kill_revive_schedule([(0, events[len(events) // 2].arrival_ns, None)]),
    )
    return PimSession(cluster)


def _responses(stream: str, observe: bool):
    if stream == "host":
        events = _events(41, 40, writes=False)
        session = PimSession(HostBackend())
    elif stream.startswith("cluster"):
        events = _events(42, 60, writes=True, gap=(20, 300))
        knobs = dict(optimize=True, cache=True) if stream == "cluster_optimized" else {}
        session = _cluster(events, observe, **knobs)
    else:
        events = _events(43, 60, writes=True)
        knobs = dict(optimize=True, cache=True) if stream == "service_optimized" else {}
        session = _service(observe, maintenance="hybrid", **knobs)
    session.submit_stream(events)
    return session.responses()


def _row(response) -> str:
    value = response.value
    if isinstance(value, np.ndarray):
        value = (value.dtype.str, value.shape, value.tobytes())
    details = response.details
    shown = [(f.name, getattr(details, f.name)) for f in dataclasses.fields(details)]
    named = [(name, getattr(response, name)) for name in FIELDS]
    return repr((value, type(details).__name__, shown, named, response.trace is None))


def _digest(responses) -> str:
    digest = hashlib.sha256()
    for response in responses:
        digest.update(_row(response).encode())
    return digest.hexdigest()


#: (stream, observe) -> sha256 over every response of the stream.
PINNED = {
    ("service", False): "c2891c804c36beadafaf6c6681c22eff8f91b466ef435f42cd6491ba7cd590eb",
    ("service", True): "a954ec57074bae4bcc9b6bc0c7e1ef13fda2a516452f11edb961a3837bf24dfa",
    ("service_optimized", False): "fe13520986fb4b52630a48faa7d080d41b686904d6e95682921dc1faed550bc0",
    ("service_optimized", True): "1fa66067e360d6cbf1c907f23be02ffc4f2ab4457dcc632e82ce21c527589e0d",
    ("cluster", False): "8987c65cab18ff29147216b20855fbc374ee704b5ab29f7daf4af9a7911bbd89",
    ("cluster", True): "bd04d483181534cfc8d8aa77b50162cb4b5cbdbe0dd80254f482b6da51a0d921",
    ("cluster_optimized", False): "323a5c58b96097d23eafe0b4dd13efeaccf90287a6eaa19fbe6e234869558400",
    ("cluster_optimized", True): "cb66cab6c97eecf66d62922d7998104d2bbcb1164c1916a5165c39dd7c8a432d",
    ("host", False): "0818151a0e945836a11661c4deef56fea811a8366e86b61c6a6062636555f360",
}

STREAMS = [
    ("service", False),
    ("service", True),
    ("service_optimized", False),
    ("service_optimized", True),
    ("cluster", False),
    ("cluster", True),
    ("cluster_optimized", False),
    ("cluster_optimized", True),
    ("host", False),
]


@pytest.mark.parametrize("stream,observe", STREAMS)
def test_every_response_field_reads_as_pinned(stream, observe):
    assert _digest(_responses(stream, observe)) == PINNED[stream, observe]


def test_the_streams_reach_every_outcome():
    """What the digests cover: every outcome named in the module docstring."""
    service = _responses("service", True) + _responses("service_optimized", True)
    cluster = _responses("cluster", True) + _responses("cluster_optimized", True)
    reasons = {r.rejected_reason for r in service + cluster}
    assert {"queue_full", "shed", "shard_unavailable"} <= reasons
    assert any(r.completed and r.deadline_missed for r in service + cluster)
    assert any(r.completed and not r.deadline_missed for r in service + cluster)
    assert {"conjunction", "scan", "update", "delete"} <= {r.kind for r in service if r.completed}
    assert {"conjunction", "scan", "update"} <= {r.kind for r in cluster if r.completed}
    assert any(r.details.host_merge_ns > 0 for r in cluster if r.completed)
    assert any(r.completed and r.details.failovers for r in cluster)
    # An all-or-nothing refusal cancels the record's queued siblings.
    refused = [r for r in cluster if not r.completed and r.details.fanout > 1]
    parts = {s.attrs.get("reason") for r in refused for s in r.trace.walk()}
    assert "cancelled" in parts
