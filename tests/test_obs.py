"""Tests for the observability plane (``repro.obs``).

The load-bearing acceptance properties:

* **bit-exactness** — a service or cluster run with ``observe=True`` is
  identical to the same run with ``observe=False``: same per-request
  timestamps, same values, same ``QueueMetrics`` / ``ClusterMetrics``
  accounting (spans are stamped post-hoc from timestamps the scheduler
  already computed, so this holds by construction — and is pinned here);
* **zero-overhead default** — ``observe=False`` allocates no span
  objects on the hot path (asserted by counting allocations, not
  wall-clock);
* **faithful export** — the Perfetto trace validates against the schema
  in ``tools/validate_bench.py``, carries one track per bank lane plus
  the host lane, and replaying its exec-span intervals reproduces
  ``LaneSchedule.busy_union_ns`` exactly.

Around them: streaming-histogram accuracy, the metrics snapshot schema,
the trace accessors on ``Future``/``Response``/``SessionReport``, the
``obs-wall-clock`` lint rule, the ``percentile_or`` fix, and the text
renderers.
"""

import contextlib
import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis import render_lane_timeline, render_span_tree
from repro.analysis.metrics import percentile_or
from repro.api import PimSession
from repro.cluster import (
    ClusterFrontend,
    ControllerPolicy,
    ElasticController,
    ShardRouter,
    kill_revive_schedule,
)
from repro.cluster.frontend import ClusterRecord, ClusterSpan
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.obs import (
    NULL_OBSERVER,
    NULL_SPAN,
    MetricsRegistry,
    Observer,
    Span,
    StreamingHistogram,
    Tracer,
    build_trace,
    resolve_observe,
    trace_events,
    write_trace,
)
from repro.service import (
    BatchExecutor,
    BatchPolicy,
    BitmapConjunctionRequest,
    PipelineConfig,
    ScanRequest,
    ServiceFrontend,
    poisson_schedule,
)
from repro.service.frontend import ArrivalEvent, RequestSpan, replay
from repro.service.lanes import LaneSchedule
from repro.service.requests import QueuedRequest
from repro.storage import UpdateRequest, is_write_request
from repro.verify import check_schedule

_TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name: str):
    """Import a script from ``tools/`` (not a package) as a module."""
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve types via sys.modules
    spec.loader.exec_module(module)
    return module


def _device(banks: int = 2) -> DramDevice:
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


def _engine(banks: int = 2) -> AmbitEngine:
    return AmbitEngine(
        _device(banks), AmbitConfig(banks_parallel=banks, vectorized_functional=True)
    )


def _scan_requests(rng, count: int = 24, banks: int = 2):
    columns = [
        BitWeavingColumn(rng.integers(0, 64, size=300), 6) for _ in range(banks * 2)
    ]
    return [
        ScanRequest(
            column=columns[i % len(columns)],
            kind="between" if i % 5 == 0 else "less_than",
            constants=(5, 50) if i % 5 == 0 else (int(rng.integers(1, 64)),),
        )
        for i in range(count)
    ]


def _service_frontend(observe, *, banks: int = 2, max_queue_depth: int = 8):
    return ServiceFrontend(
        PipelineConfig(
            policy=BatchPolicy(max_batch=4, window_ns=None),
            max_queue_depth=max_queue_depth,
        ),
        engine=_engine(banks),
        observe=observe,
    )


def _serve(backend, events):
    """Serve a stream through a session over ``backend``: its report and
    the envelopes, in event order."""
    session = PimSession(backend, name="obs_test")
    futures = session.submit_stream(events)
    session.drain()
    return session.report(), [future.record for future in futures]


def _run_service(observe, seed: int = 3, count: int = 24, max_queue_depth: int = 8):
    rng = np.random.default_rng(seed)
    frontend = _service_frontend(observe, max_queue_depth=max_queue_depth)
    events = poisson_schedule(
        _scan_requests(rng, count=count), rate_per_s=5e6, seed=seed
    )
    return (frontend, *_serve(frontend, events))


# ---------------------------------------------------------------------
# Streaming metrics
# ---------------------------------------------------------------------
class TestStreamingHistogram:
    def test_quantiles_track_numpy_within_bucket_resolution(self):
        rng = np.random.default_rng(11)
        samples = rng.lognormal(mean=8.0, sigma=1.5, size=4000)
        hist = StreamingHistogram("lat")
        for value in samples:
            hist.observe(float(value))
        # Log buckets at 8/octave resolve ~9% per bucket; 12% relative
        # error covers boundary effects without retaining any sample.
        for q in (50.0, 90.0, 99.0):
            exact = float(np.percentile(samples, q))
            assert hist.quantile(q) == pytest.approx(exact, rel=0.12)
        assert hist.count == 4000
        assert hist.total == pytest.approx(float(samples.sum()))
        assert hist.min_value == pytest.approx(float(samples.min()))
        assert hist.max_value == pytest.approx(float(samples.max()))

    def test_zero_and_empty_handling(self):
        empty = StreamingHistogram("empty")
        assert empty.quantile(50.0) == 0.0
        assert empty.snapshot()["count"] == 0

        hist = StreamingHistogram("zeros")
        for value in (0.0, 0.0, 8.0):
            hist.observe(value)
        assert hist.quantile(50.0) == 0.0      # rank 2 of 3 lands in zeros
        assert hist.quantile(99.0) == pytest.approx(8.0)  # clamped to max

    def test_registry_snapshot_matches_schema(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("requests").inc()
        registry.counter("requests").inc(2.0)
        registry.gauge("depth").set(7.0)
        for value in (10.0, 20.0, 30.0):
            registry.histogram("wait_ns").observe(value)

        snapshot = registry.snapshot()
        assert snapshot["counters"]["requests"] == 3.0
        assert snapshot["gauges"]["depth"] == 7.0
        assert snapshot["histograms"]["wait_ns"]["count"] == 3
        # get-or-create returns the same instrument
        assert registry.counter("requests") is registry.counter("requests")

        path = tmp_path / "METRICS_test.json"
        path.write_text(json.dumps(snapshot))
        validate_bench = _load_tool("validate_bench")
        assert validate_bench.validate_file(path) == []


class TestPercentileOr:
    def test_percentile_or_defaults_explicitly(self):
        assert percentile_or([], 50.0) == 0.0
        assert percentile_or([], 50.0, default=-1.0) == -1.0
        # The trap the helper exists for: a legitimate 0.0 percentile must
        # survive (``percentile(...) or default`` would replace it).
        assert percentile_or([0.0, 0.0], 99.0, default=-1.0) == 0.0

    def test_queue_metrics_from_no_samples(self):
        metrics = PimSession(_service_frontend(False), name="idle").report()
        assert metrics.wait_p50_ns == 0.0
        assert metrics.wait_p99_ns == 0.0
        assert metrics.sojourn_p50_ns == 0.0
        assert metrics.sojourn_p99_ns == 0.0


# ---------------------------------------------------------------------
# The disabled path
# ---------------------------------------------------------------------
class TestDisabledPath:
    def test_observe_false_allocates_no_spans(self):
        before = Span.allocated
        frontend, report, _ = _run_service(observe=False)
        assert Span.allocated - before == 0
        assert frontend.obs is NULL_OBSERVER
        assert report.completed > 0  # the run itself was real

    def test_null_tracer_hands_out_the_null_span(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("anything", start_ns=1.0)
        assert span is NULL_SPAN
        assert span.child("nested") is NULL_SPAN
        assert span.set(key="value") is span  # chainable no-ops
        assert tracer.roots == []

    def test_resolve_observe(self):
        assert resolve_observe(False) is NULL_OBSERVER
        fresh = resolve_observe(True)
        assert fresh.enabled and fresh is not NULL_OBSERVER
        shared = Observer()
        assert resolve_observe(shared) is shared


# ---------------------------------------------------------------------
# Bit-exactness: observe=True changes nothing
# ---------------------------------------------------------------------
class TestBitExactness:
    @staticmethod
    def _same_ns(a, b):
        # Rejected records carry NaN timestamps; NaN == NaN is False.
        return a == b or (math.isnan(a) and math.isnan(b))

    def _assert_runs_identical(self, plain, traced):
        (plain_report, plain_records), (traced_report, traced_records) = plain, traced
        assert plain_report.details == traced_report.details
        assert len(plain_records) == len(traced_records)
        for a, b in zip(plain_records, traced_records):
            assert a.arrival_ns == b.arrival_ns
            assert self._same_ns(a.start_ns, b.start_ns)
            assert self._same_ns(a.finish_ns, b.finish_ns)
            assert a.admitted == b.admitted
            if a.value is None or b.value is None:
                assert a.value is None and b.value is None
            else:
                assert np.array_equal(a.value, b.value)

    def test_service_run_is_bit_exact_with_tracing_on(self):
        _, *plain = _run_service(observe=False)
        _, *traced = _run_service(observe=True)
        self._assert_runs_identical(plain, traced)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        depth=st.integers(min_value=2, max_value=12),
    )
    def test_service_bit_exactness_property(self, seed, depth):
        """Across seeds and shed pressure: tracing never perturbs the run."""
        _, *plain = _run_service(observe=False, seed=seed, count=12, max_queue_depth=depth)
        _, *traced = _run_service(observe=True, seed=seed, count=12, max_queue_depth=depth)
        self._assert_runs_identical(plain, traced)

    def test_cluster_run_is_bit_exact_with_tracing_on(self):
        def run(observe):
            rng = np.random.default_rng(6)
            cluster = ClusterFrontend(
                num_shards=2,
                config=PipelineConfig(policy=BatchPolicy(max_batch=3)),
                engine_factory=_engine,
                observe=observe,
            )
            events = poisson_schedule(
                _scan_requests(rng, count=16), rate_per_s=4e6, seed=6
            )
            return (cluster, *_serve(cluster, events))

        _, plain, plain_records = run(False)
        traced_cluster, traced, traced_records = run(True)
        assert plain.details == traced.details
        for a, b in zip(plain_records, traced_records, strict=True):
            assert a.arrival_ns == b.arrival_ns
            assert self._same_ns(a.finish_ns, b.finish_ns)
            assert np.array_equal(a.value, b.value)
        # Part spans were re-parented under each cluster root: no stray
        # shard-level "request" roots remain at the top level (batch and
        # plan spans legitimately stay as track-assigned roots).
        roots = traced_cluster.obs.tracer.roots
        assert any(r.name == "cluster_request" for r in roots)
        assert not any(r.name == "request" for r in roots)
        parts = [
            s
            for r in roots
            if r.name == "cluster_request"
            for s in r.walk()
            if s.name == "request"
        ]
        assert parts and all(p.attrs.get("shard") is not None for p in parts)
        # Children read back in adoption order: the part was opened before
        # the scatter span, and adopted after it.
        for root in roots:
            if root.name == "cluster_request":
                assert [child.name for child in root.children] == ["scatter", "request"]


# ---------------------------------------------------------------------
# Observation is invisible: nothing decides from a recording
# ---------------------------------------------------------------------
_CARDINALITIES = {"region": 6, "status": 4, "tier": 3}


def _mixed_events(seed: int, count: int = 24, gap=(40, 400), writes: bool = True, slack_ns=None):
    """A mixed read/write stream over its own fresh table (the writes
    mutate it, so every run builds the stream again from the seed): an
    update every fourth request unless ``writes`` is off, conjunctions of
    one to three predicates otherwise, arrivals ``gap`` ns apart, and —
    with ``slack_ns`` — a deadline that far past every third arrival."""
    rng = np.random.default_rng(seed)
    rows = 160
    table = ColumnTable("t", rows)
    for name, cardinality in _CARDINALITIES.items():
        table.add_column(name, rng.integers(0, cardinality, size=rows), cardinality=cardinality)
    index = BitmapIndex(table, list(_CARDINALITIES))
    events, at_ns = [], 0.0
    for i in range(count):
        at_ns += float(rng.integers(*gap))
        if writes and i % 4 == 3:
            column = ("status", "region")[(i // 4) % 2]
            request = UpdateRequest(
                table=table,
                index=index,
                column=column,
                row_ids=[int(r) for r in rng.choice(rows, size=3, replace=False)],
                values=[int(v) for v in rng.integers(0, _CARDINALITIES[column], size=3)],
            )
        else:
            request = BitmapConjunctionRequest(
                index=index,
                predicates=tuple(
                    (c, tuple(sorted({int(v) for v in rng.integers(0, _CARDINALITIES[c], size=2)})))
                    for c in ("status", "region", "tier")[: 1 + i % 3]
                ),
            )
        deadline = at_ns + slack_ns if slack_ns is not None and i % 3 == 0 else None
        # Two priority classes, so a full queue sheds as well as refuses.
        events.append(ArrivalEvent(request, at_ns, priority=i % 2, deadline_ns=deadline))
    return events


def _noisy_neighbours(plane: Observer) -> None:
    """Other backends recording into ``plane``: a hybrid service reading
    the same column *names* hot, and a cluster rejecting nearly all it is
    offered — everything a decision that read the plane would trip over."""
    reads = [e for e in _mixed_events(seed=999) if not is_write_request(e.request)]
    _serve(ServiceFrontend(PipelineConfig(maintenance="hybrid"), engine=_engine(), observe=plane), reads)
    rejecting = ClusterFrontend(
        1,
        PipelineConfig(max_queue_depth=1, policy=BatchPolicy(max_batch=4, window_ns=None)),
        engine_factory=_engine,
        observe=plane,
    )
    report, _ = _serve(rejecting, [ArrivalEvent(arrival_ns=0.0, request=e.request) for e in reads])
    assert report.rejected == len(reads) - 1


#: Reasons only a frontend's door gives (anything else left a queue).
_DOOR_REASONS = ("queue_full", "bank_occupancy")


@contextlib.contextmanager
def _door_log():
    """Every envelope a service frontend's ``offer`` returns while open, in
    offer order — the shard parts, their failover replacements and the
    controller's replica copies: the frontends keep none, so the test does."""
    envelopes = []
    offer = ServiceFrontend.offer

    def logged(self, *args, **kwargs):
        envelope = offer(self, *args, **kwargs)
        envelopes.append(envelope)
        return envelope

    ServiceFrontend.offer = logged
    try:
        yield envelopes
    finally:
        ServiceFrontend.offer = offer


def _owner_counts(backend, parts, records, admitted_at_door) -> dict:
    """What the plane's counters describe, read off the owners' state:
    every frontend envelope (``parts``), the session's ``records``, batch
    roll-ups and the cluster's own tallies.  A counter the owners have
    nothing for is left out, as the registry leaves it."""
    shards = getattr(backend, "shards", [backend])
    batches = [b for shard in shards for b in shard.batches]
    counts = {
        "frontend.offered": len(parts),
        "frontend.admitted": sum(q.rejected_reason not in _DOOR_REASONS for q in parts),
        "frontend.completed": sum(q.completed for q in parts),
        "frontend.rejected": sum(not q.admitted for q in parts),
        "frontend.deadline_misses": sum(q.deadline_missed for q in parts),
        "cache.hit": sum(b.cache_hits for b in batches),
        "cache.miss": sum(b.cache_misses for b in batches),
        "cache.invalidations": sum(b.cache_invalidations for b in batches),
    }
    for q in parts:
        if not q.admitted:
            name = f"frontend.rejected.{q.rejected_reason}"
            counts[name] = counts.get(name, 0) + 1
    if backend is not shards[0]:
        counts["cluster.offered"] = len(records)
        counts["cluster.admitted"] = sum(admitted_at_door)
        # A record completes when it is gathered, not when its last part does.
        counts["cluster.completed"] = sum(not math.isnan(r.finish_ns) for r in records)
        counts["cluster.rejected"] = backend.rejected
    return counts


def _observed_run(tier: str, maintenance: str, plane: str, seed: int, sanitize: bool = False):
    """Serve the seeded stream with the plane attached one way and the
    checks on or off; returns what the simulation decided: every record's
    outcome, the controller's decisions on the cluster tier, the session's
    report (less its ``obs`` snapshot) and the lane metrics."""
    observe = {"off": False, "own": True, "shared": Observer(), "late": False}[plane]
    if plane == "shared":
        _noisy_neighbours(observe)
    config = PipelineConfig(
        policy=BatchPolicy(max_batch=3, window_ns=500.0),
        max_queue_depth=4,
        shed_low_priority=True,
        maintenance=maintenance,
        sanitize=sanitize,
    )
    events = _mixed_events(seed)
    half = len(events) // 2
    controller = None
    if tier == "service":
        backend = ServiceFrontend(config, engine=_engine(), observe=observe)
    else:
        backend = ClusterFrontend(
            2,
            config,
            router=ShardRouter(2),
            engine_factory=_engine,
            observe=observe,
            # Shard 1 dies mid-stream: failover runs under every plane.
            faults=kill_revive_schedule([(1, events[half].arrival_ns, None)]),
        )
        controller = ElasticController(
            backend,
            ControllerPolicy(
                interval_ns=700.0,
                imbalance_threshold=1.1,
                overload_backlog_ns=400.0,
                overload_windows=1,
                rejection_rate_threshold=0.2,
                max_shards=3,
                idle_windows=10**6,
            ),
        )
    session = PimSession(backend)
    admitted_at_door = []

    def offer(event):
        future = session.submit(event.request, priority=event.priority, at_ns=event.arrival_ns)
        admitted_at_door.append(future.record.admitted)

    def owner_counts():
        return _owner_counts(
            backend, parts, [f.record for f in session.futures], admitted_at_door
        )

    with _door_log() as parts:
        replay(events[:half], offer)
        if plane == "late":
            before = owner_counts()
            PimSession(backend, observe=True)  # binds a fresh plane mid-stream
            assert backend.obs.enabled
        replay(events[half:], offer)
        session.drain()
    if plane == "late":
        # A display counts from the moment it is bound: every counter
        # equals its owner's state delta since then, whether or not the
        # request it counts was traced from arrival.
        counters = backend.obs.snapshot()["counters"]
        after = owner_counts()
        for name in sorted(after):
            delta = after[name] - before.get(name, 0)
            assert counters.get(name, 0.0) == delta, (name, counters.get(name), delta)
    records = [
        (
            r.admitted,
            r.rejected_reason,
            None if math.isnan(r.start_ns) else r.start_ns,
            None if math.isnan(r.finish_ns) else r.finish_ns,
            r.value.tobytes() if isinstance(r.value, np.ndarray) else r.value,
            r.metrics,
        )
        for r in (future.record for future in session.futures)
    ]
    report = dataclasses.replace(session.report(), obs=None)
    lanes = [shard.lane_metrics() for shard in getattr(backend, "shards", [backend])]
    return records, (controller.events if controller else None), report, lanes


class TestObservationIsInvisible:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tier=st.sampled_from(["service", "cluster"]),
        maintenance=st.sampled_from(["eager", "lazy", "hybrid"]),
        plane=st.sampled_from(["off", "own", "shared", "late"]),
        sanitize=st.booleans(),
    )
    def test_no_way_of_attaching_a_plane_changes_a_run(
        self, seed, tier, maintenance, plane, sanitize
    ):
        """Own plane, a plane shared with noisy neighbours, a plane bound
        mid-stream, the checks on or off: every record, every controller
        decision, the session report and the lane metrics equal the
        unchecked ``observe=False`` run's.  (Hybrid hotness and the
        elastic controller used to read their inputs back out of the
        registry.)"""
        assert _observed_run(tier, maintenance, plane, seed, sanitize) == _observed_run(
            tier, maintenance, "off", seed
        )

    def test_the_property_bites(self):
        """The stream really exercises the decisions that used to read
        the plane: hybrid resolves some writes eagerly and some lazily,
        the controller acts, and admission rejects."""
        served = {
            maintenance: _observed_run("service", maintenance, "off", seed=5)[0]
            for maintenance in ("eager", "lazy", "hybrid")
        }
        assert served["hybrid"] != served["eager"] and served["hybrid"] != served["lazy"]
        outcomes = [_observed_run("cluster", "hybrid", "off", seed) for seed in (5, 6, 7)]
        assert any(events for _, events, *_ in outcomes)
        assert any(not admitted for records, *_ in outcomes for admitted, *_ in records)
        # ...and the mid-stream kill migrates work off the dead shard.
        assert any(report.details.failovers for *_, report, _ in outcomes)


# ---------------------------------------------------------------------
# The interval log is a recording too: it exists for its reader
# ---------------------------------------------------------------------
class TestIntervalLogExistsForItsReader:
    @staticmethod
    def _run(**config):
        rng = np.random.default_rng(12)
        frontend = ServiceFrontend(
            PipelineConfig(policy=BatchPolicy(max_batch=4, window_ns=None), **config),
            engine=_engine(),
        )
        report, _ = _serve(
            frontend, poisson_schedule(_scan_requests(rng, count=20), rate_per_s=5e6, seed=12)
        )
        assert report.completed == 20
        return frontend, report.details

    def test_unsanitized_lanes_retain_no_placements(self):
        plain, plain_result = self._run()
        audited, audited_result = self._run(sanitize=True)
        assert plain.executor.lanes.log is None
        # The online sanitizer drops each batch's placements once certified.
        assert audited.executor.lanes.log == [] and audited.executor.lanes.requests == 20
        # Same schedule, same accounting: only the recording differs.
        assert plain.lane_metrics() == audited.lane_metrics()
        assert plain_result == audited_result
        assert audited.executor.sanitizer.report().placements == 20

    def test_auditing_a_logless_schedule_says_why(self):
        plain, _ = self._run()
        assert plain.executor.sanitizer is None
        for lanes in (
            plain.executor.lanes,
            ClusterFrontend(2, engine_factory=_engine).shards[0].executor.lanes,
        ):
            with pytest.raises(ValueError, match="sanitize=True"):
                check_schedule(lanes)
        # A hand-built schedule still logs — and audits — by default.
        lanes = LaneSchedule(["a"])
        lanes.place(["a"], (10.0,))
        assert len(lanes.log) == 1 and check_schedule(lanes).ok
        assert LaneSchedule(["a"], keep_log=False).log is None

    @pytest.mark.parametrize("sanitize", [False, True])
    def test_barrier_executor_builds_its_throwaway_schedules_alike(self, sanitize, monkeypatch):
        """``pipeline=False`` schedules each batch on a fresh timeline: it
        logs (and is audited whole) under ``sanitize``, and not otherwise."""
        built = []
        original = LaneSchedule.__init__

        def spy(self, lane_keys=(), keep_log=True):
            original(self, lane_keys, keep_log)
            built.append(self)

        monkeypatch.setattr(LaneSchedule, "__init__", spy)
        frontend, result = self._run(pipeline=False, sanitize=sanitize)
        throwaway = [lanes for lanes in built if lanes is not frontend.executor.lanes]
        assert len(throwaway) == len(frontend.batches) > 0
        for lanes in throwaway:
            assert (lanes.log is not None) == sanitize
            assert lanes.requests > 0
            if sanitize:
                assert len(lanes.log) == lanes.requests
        assert frontend.executor.lanes.requests == 0  # never advanced
        with pytest.raises(ValueError, match="pipelined"):
            frontend.lane_metrics()
        _, expected = self._run(pipeline=False, sanitize=not sanitize)
        assert result == expected

    def test_hand_built_executor_follows_its_sanitize(self):
        rng = np.random.default_rng(13)
        requests = _scan_requests(rng, count=6)
        for sanitize in (False, True):
            executor = BatchExecutor(engine=_engine(), sanitize=sanitize)
            executor.run(requests)
            assert (executor.lanes.log is not None) == sanitize
            assert executor.lanes.requests == 6


class TestAdopt:
    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(
            st.one_of(
                st.just(("request",)),
                st.tuples(st.just("record"), st.integers(0, 3)),
                st.tuples(st.just("failover"), st.integers(0, 30), st.integers(0, 30), st.integers(1, 2)),
                st.tuples(st.just("touch"), st.integers(0, 60)),
                st.just(("read",)),
            ),
            max_size=40,
        )
    )
    def test_roots_match_the_forward_scan_reference(self, script):
        """A cluster record's span adopts its parts at the scatter and each
        failover's re-offered parts after them.  Whatever the interleaving
        of requests, records, failovers, re-derivations and reads,
        ``roots`` is the unadopted spans in creation order and a record's
        children are ``scatter`` then its parts in adoption order, exactly
        as the front-to-back scan of the script left them."""
        tracer = Tracer()
        spans, roots, records = [], [], []

        def register(span):
            spans.append(span)
            return span

        def offered():
            queued = QueuedRequest(request=None, seq=len(spans))
            queued.trace = register(RequestSpan(tracer, queued))
            return queued

        def check():
            assert len(tracer.roots) == len(roots)
            assert all(a is b for a, b in zip(tracer.roots, roots))
            for record, adopted in records:
                children = record.trace.children
                assert [c.name for c in children[:1]] == ["scatter"]
                assert len(children) == 1 + len(adopted)
                assert all(c is p.trace for c, p in zip(children[1:], adopted))
                assert all(p.trace.parent is record.trace for p in adopted)

        for step in script:
            if step[0] == "request":
                roots.append(offered().trace)
            elif step[0] == "record":
                record = ClusterRecord(request=None, seq=len(spans))
                record.trace = register(ClusterSpan(tracer, record))
                roots.append(record.trace)
                for shard in range(step[1]):  # the scatter
                    record.shard_ids.append(shard)
                    record.parts.append(offered())
                records.append((record, list(record.parts)))
            elif step[0] == "failover":
                scattered = [entry for entry in records if entry[0].parts]
                if not scattered:
                    continue
                record, adopted = scattered[step[1] % len(scattered)]
                k = step[2] % len(record.parts)
                new_parts = []
                for shard in range(step[3]):
                    new_parts.append(offered())
                    record.trace.failover(shard, new_parts[-1])
                record.shard_ids[k : k + 1] = range(step[3])
                record.parts[k : k + 1] = new_parts
                adopted.extend(new_parts)
            elif step[0] == "touch" and spans:
                spans[step[1] % len(spans)].touch()
            elif step[0] == "read":
                check()
        check()


# ---------------------------------------------------------------------
# The recorded span trees and metrics
# ---------------------------------------------------------------------
class TestRecordedSpans:
    def test_completed_request_tree_shape(self):
        frontend, _, records = _run_service(observe=True)
        completed = [record for record in records if record.completed]
        assert completed
        record = completed[0]
        assert record.trace is not None
        names = [span.name for span in record.trace.walk()]
        assert names == ["request", "admission", "queue", "service"]
        assert record.trace.end_ns == record.finish_ns
        assert record.trace.attrs["status"] == "completed"
        service = record.trace.children[-1]
        assert service.name == "service"
        assert service.start_ns == record.start_ns
        assert service.end_ns == record.finish_ns

    def test_rejected_request_tree_and_counters(self):
        frontend, metrics, records = _run_service(observe=True, max_queue_depth=2)
        assert metrics.rejected > 0
        counters = frontend.obs.snapshot()["counters"]
        assert counters["frontend.offered"] == metrics.offered
        assert counters["frontend.completed"] == metrics.completed
        assert counters["frontend.rejected"] == metrics.rejected
        rejected = [r for r in records if not r.admitted]
        span = rejected[0].trace
        assert span.attrs["status"] == "rejected"
        assert span.attrs["reason"]
        admission = next(child for child in span.walk() if child.name == "admission")
        assert admission.attrs["admitted"] is False

    def test_executor_lanes_become_tracks(self):
        frontend, *_ = _run_service(observe=True)
        executor = frontend.executor
        expected = {str(key) for key in executor.active_bank_keys()}
        assert set(frontend.obs.tracer.tracks) == expected | {"host", "batches"}

    def test_session_exposes_trace_and_obs_snapshot(self):
        from repro.api import PimSession

        rng = np.random.default_rng(2)
        session = PimSession.over_service(engine=_engine(), observe=True)
        columns = [BitWeavingColumn(rng.integers(0, 64, size=300), 6) for _ in range(3)]
        futures = [session.scan(c, "less_than", 20) for c in columns]
        session.drain()
        for future in futures:
            assert future.trace is not None
            assert future.trace.name == "request"
            assert future.trace.attrs["session"] == session.name
            assert future.response().trace is future.trace
        report = session.report()
        assert report.obs is not None
        assert report.obs["counters"]["frontend.completed"] >= len(futures)

    def test_session_report_accounting_identical_on_and_off(self):
        import dataclasses

        from repro.api import PimSession

        def run(observe):
            rng = np.random.default_rng(5)
            session = PimSession.over_service(engine=_engine(), observe=observe)
            columns = [
                BitWeavingColumn(rng.integers(0, 64, size=300), 6) for _ in range(4)
            ]
            for column in columns:
                session.scan(column, "less_than", 30)
                session.scan(column, "between", 5, 50)
            session.drain()
            return session.report()

        plain = run(False)
        traced = run(True)
        assert plain.obs is None and traced.obs is not None
        # Everything but the snapshot itself is identical accounting.
        assert dataclasses.replace(traced, obs=None) == plain

    def test_untraced_session_reports_no_obs(self):
        from repro.api import PimSession

        session = PimSession.over_service(engine=_engine())
        rng = np.random.default_rng(2)
        column = BitWeavingColumn(rng.integers(0, 64, size=300), 6)
        future = session.scan(column, "less_than", 20)
        session.drain()
        assert future.trace is None
        assert session.report().obs is None


# ---------------------------------------------------------------------
# The derived trace is pinned: every exported byte of two small streams
# ---------------------------------------------------------------------
def _submit_all(session, events, reads=()) -> None:
    """Submit the stream and drain; export the plane's trace (and so
    derive it) after each submission numbered in ``reads``."""
    for i, event in enumerate(events):
        session.submit(
            event.request, priority=event.priority, deadline_ns=event.deadline_ns, at_ns=event.arrival_ns
        )
        if i in reads:
            trace_events(session.obs.tracer)
    session.drain()


def _pinned_service_trace(reads=()) -> Tracer:
    """Eager, lazy and hybrid writes into one plane, through a session:
    door rejections, shedding, deadlines and lazy rebuilds."""
    plane = Observer()
    for maintenance in ("eager", "lazy", "hybrid"):
        config = PipelineConfig(
            policy=BatchPolicy(max_batch=3, window_ns=400.0),
            max_queue_depth=3,
            shed_low_priority=True,
            maintenance=maintenance,
        )
        frontend = ServiceFrontend(config, engine=_engine(), observe=plane)
        _submit_all(PimSession(frontend), _mixed_events(21, 40, (20, 300), slack_ns=900.0), reads)
    return plane.tracer


def _pinned_cluster_trace(reads=()) -> Tracer:
    """Two shards, two hot columns at replication factor 2, shard 0 killed
    mid-stream: scatters, gathers, failovers, a part with no surviving
    placement, and all-or-nothing refusals that cancel queued siblings."""
    plane = Observer()
    events = _mixed_events(22, 48, (10, 160), writes=False, slack_ns=900.0)
    cluster = ClusterFrontend(
        2,
        PipelineConfig(
            policy=BatchPolicy(max_batch=3, window_ns=400.0),
            max_queue_depth=2,
            shed_low_priority=True,
        ),
        router=ShardRouter(2, replication_factor=2, hot_columns=("status", "tier")),
        engine_factory=_engine,
        observe=plane,
        faults=kill_revive_schedule([(0, events[len(events) // 2].arrival_ns, None)]),
    )
    _submit_all(PimSession(cluster), events, reads)
    return plane.tracer


def _trace_digest(tracer: Tracer) -> str:
    import hashlib

    return hashlib.sha256(json.dumps(trace_events(tracer), sort_keys=True).encode()).hexdigest()


def _walked(span: Span) -> list:
    """Everything a subtree shows, attributes in their order."""
    return [
        (s.name, s.category, s.start_ns, s.end_ns, s.track, list(s.attrs.items()))
        for s in span.walk()
    ]


def _first_root(tracer: Tracer, wanted) -> Span:
    return next(root for root in tracer.roots if wanted(root))


class TestDerivedTraceIsPinned:
    """The trace is derived from the envelopes when it is read; these
    digests and walks were taken from the recorder that copied every
    row as it happened, so the derivation reproduces it byte for byte."""

    SERVICE_SHA256 = "7615340bf578f4b739cab319444aa7445fa41214ee3f93883cb47d24fcf1f6d9"
    CLUSTER_SHA256 = "a4e6aa72f4b56d3989bc47ecb9f6242524542003024074b88c655fa1488dfd21"

    def test_service_trace_bytes(self):
        assert _trace_digest(_pinned_service_trace()) == self.SERVICE_SHA256

    def test_cluster_trace_bytes(self):
        assert _trace_digest(_pinned_cluster_trace()) == self.CLUSTER_SHA256

    @settings(max_examples=12, deadline=None)
    @given(reads=st.sets(st.integers(0, 47), max_size=5), cluster=st.booleans())
    def test_reading_mid_stream_changes_no_byte(self, reads, cluster):
        """A read derives what is registered so far; requests that settle,
        and parts a failover adopts, after it derive again at the next
        read — children appended in order, attributes in order — so the
        final trace is the same whenever, and however often, it was read."""
        if cluster:
            assert _trace_digest(_pinned_cluster_trace(reads)) == self.CLUSTER_SHA256
        else:
            assert _trace_digest(_pinned_service_trace(reads)) == self.SERVICE_SHA256

    def test_one_root_of_each_kind_walks_as_recorded(self):
        service = _pinned_service_trace()
        cluster = _pinned_cluster_trace()
        names = lambda root: [s.name for s in root.children]  # noqa: E731
        roots = {
            "write": _first_root(service, lambda r: "maintenance" in names(r)),
            "refused": _first_root(service, lambda r: r.attrs.get("reason") == "queue_full"),
            "shed": _first_root(service, lambda r: r.attrs.get("reason") == "shed"),
            "batch": _first_root(service, lambda r: r.category == "executor"),
            "plan": _first_root(service, lambda r: r.name == "plan"),
            "gathered": _first_root(cluster, lambda r: "gather_merge" in names(r)),
            "failover": _first_root(
                cluster, lambda r: any(s.attrs.get("failover") for s in r.children)
            ),
            "failed": _first_root(cluster, lambda r: r.attrs.get("status") == "failed"),
            "cancelled": _first_root(
                cluster, lambda r: any(s.attrs.get("reason") == "cancelled" for s in r.children)
            ),
        }
        walked = {kind: _walked(root) for kind, root in roots.items()}
        assert walked == PINNED_WALKS


#: ``_walked`` of one root of each kind, as the eager recorder left them.
PINNED_WALKS = {
    'write': [('request', 'request', 474.0, 4736.0, None,
                [('kind', 'UpdateRequest'), ('seq', 3), ('priority', 1), ('deadline_ns', 1374.0),
                 ('deadline_slack_ns', 900.0), ('submitted', 'update'), ('session', 'session'),
                 ('status', 'completed'), ('deadline_missed', True)]),
               ('admission', 'request', 474.0, 474.0, None,
                [('admitted', True), ('modeled_ns', 1423.75), ('modeled_banks', 1)]),
               ('queue', 'request', 474.0, 474.0, None, []),
               ('service', 'request', 474.0, 4736.0, None,
                [('batch', 1), ('ops_eliminated', 0), ('shared_subchains', 0),
                 ('host_merge_ns', 0.0), ('cache_hits', 0), ('cache_misses', 0)]),
               ('maintenance', 'storage', 474.0, 4736.0, None,
                [('kind', 'update'), ('strategy', 'eager'), ('columns', 'status=eager'),
                 ('rows_affected', 3), ('planes_charged', 4), ('cache_invalidations', 0)])],
     'refused': [('request', 'request', 1349.0, 1349.0, None,
                  [('kind', 'BitmapConjunctionRequest'), ('seq', 10), ('priority', 0),
                   ('status', 'rejected'), ('reason', 'queue_full'), ('submitted', 'conjunction'),
                   ('session', 'session')]),
                 ('admission', 'request', 1349.0, 1349.0, None,
                  [('admitted', False), ('reason', 'queue_full')])],
     'shed': [('request', 'request', 952.0, 1481.0, None,
               [('kind', 'BitmapConjunctionRequest'), ('seq', 6), ('priority', 0),
                ('deadline_ns', 1852.0), ('deadline_slack_ns', 900.0), ('submitted', 'conjunction'),
                ('session', 'session'), ('status', 'rejected'), ('reason', 'shed')]),
              ('admission', 'request', 952.0, 952.0, None,
               [('admitted', True), ('modeled_ns', 335.0), ('modeled_banks', 1)])],
     'batch': [('batch 0', 'executor', 381.0, 3396.0, ('batches',),
                [('batch', 0), ('requests', 9), ('fused_ops', 0), ('device_busy_ns', 3015.0),
                 ('cross_batch_overlap_ns', 0.0)]),
               ('ambit_or', 'exec', 381.0, 716.0, ('(0, 0, 0)',),
                [('latency_ns', 335.0), ('release_ns', 381.0), ('banks', 1)]),
               ('ambit_or', 'exec', 716.0, 1051.0, ('(0, 0, 0)',),
                [('latency_ns', 335.0), ('release_ns', 381.0), ('banks', 1)]),
               ('ambit_and', 'exec', 1051.0, 1386.0, ('(0, 0, 0)',),
                [('latency_ns', 335.0), ('release_ns', 381.0), ('banks', 1)]),
               ('ambit_or', 'exec', 1386.0, 1721.0, ('(0, 0, 0)',),
                [('latency_ns', 335.0), ('release_ns', 381.0), ('banks', 1)]),
               ('ambit_or', 'exec', 1721.0, 2056.0, ('(0, 0, 0)',),
                [('latency_ns', 335.0), ('release_ns', 381.0), ('banks', 1)]),
               ('ambit_or', 'exec', 2056.0, 2391.0, ('(0, 0, 0)',),
                [('latency_ns', 335.0), ('release_ns', 381.0), ('banks', 1)]),
               ('ambit_or', 'exec', 2391.0, 2726.0, ('(0, 0, 0)',),
                [('latency_ns', 335.0), ('release_ns', 381.0), ('banks', 1)]),
               ('ambit_and', 'exec', 2726.0, 3061.0, ('(0, 0, 0)',),
                [('latency_ns', 335.0), ('release_ns', 381.0), ('banks', 1)]),
               ('ambit_and', 'exec', 3061.0, 3396.0, ('(0, 0, 0)',),
                [('latency_ns', 335.0), ('release_ns', 381.0), ('banks', 1)])],
     'plan': [('plan', 'planner', 381.0, 381.0, ('batches',),
               [('batch', 0), ('requests', 3), ('primitives', 9), ('ops_eliminated', 0),
                ('shared_subchains', 0)])],
     'gathered': [('cluster_request', 'cluster', 438.0, 2109.0, None,
                   [('kind', 'BitmapConjunctionRequest'), ('seq', 5), ('priority', 1),
                    ('submitted', 'conjunction'), ('session', 'session'), ('status', 'completed'),
                    ('deadline_missed', False)]),
                  ('scatter', 'cluster', 438.0, 438.0, None,
                   [('fanout', 2), ('shard_ids', '0,1'), ('admitted', True)]),
                  ('request', 'request', 438.0, 1859.0, None,
                   [('kind', 'BitmapConjunctionRequest'), ('seq', 4), ('priority', 1), ('shard', 0),
                    ('status', 'completed'), ('deadline_missed', False)]),
                  ('admission', 'request', 438.0, 438.0, None,
                   [('admitted', True), ('modeled_ns', 335.0), ('modeled_banks', 1)]),
                  ('queue', 'request', 438.0, 1524.0, None, []),
                  ('service', 'request', 1524.0, 1859.0, None,
                   [('batch', 0), ('ops_eliminated', 0), ('shared_subchains', 0),
                    ('host_merge_ns', 0.0), ('cache_hits', 0), ('cache_misses', 0)]),
                  ('request', 'request', 438.0, 1677.0, None,
                   [('kind', 'BitmapConjunctionRequest'), ('seq', 1), ('priority', 1), ('shard', 1),
                    ('status', 'completed'), ('deadline_missed', False)]),
                  ('admission', 'request', 438.0, 438.0, None,
                   [('admitted', True), ('modeled_ns', 670.0), ('modeled_banks', 1)]),
                  ('queue', 'request', 438.0, 1007.0, None, []),
                  ('service', 'request', 1007.0, 1677.0, None,
                   [('batch', 0), ('ops_eliminated', 0), ('shared_subchains', 0),
                    ('host_merge_ns', 0.0), ('cache_hits', 0), ('cache_misses', 0)]),
                  ('gather_merge', 'cluster', 1859.0, 2109.0, None,
                   [('parts', 2), ('tree_levels', 1)])],
     'failover': [('cluster_request', 'cluster', 2236.0, 3136.0, None,
                   [('kind', 'BitmapConjunctionRequest'), ('seq', 21), ('priority', 1),
                    ('submitted', 'conjunction'), ('session', 'session'), ('status', 'completed'),
                    ('deadline_missed', False)]),
                  ('scatter', 'cluster', 2236.0, 2236.0, None,
                   [('fanout', 1), ('shard_ids', '0'), ('admitted', True)]),
                  ('request', 'request', 2236.0, 2421.0, None,
                   [('kind', 'BitmapConjunctionRequest'), ('seq', 17), ('priority', 1),
                    ('deadline_ns', 3136.0), ('deadline_slack_ns', 900.0), ('shard', 0),
                    ('status', 'rejected'), ('reason', 'shard_failed')]),
                  ('admission', 'request', 2236.0, 2236.0, None,
                   [('admitted', True), ('modeled_ns', 335.0), ('modeled_banks', 1)]),
                  ('request', 'request', 2472.0, 3136.0, None,
                   [('kind', 'BitmapConjunctionRequest'), ('seq', 11), ('priority', 1),
                    ('deadline_ns', 3136.0), ('deadline_slack_ns', 664.0), ('shard', 1),
                    ('failover', True), ('status', 'completed'), ('deadline_missed', False)]),
                  ('admission', 'request', 2472.0, 2472.0, None,
                   [('admitted', True), ('modeled_ns', 335.0), ('modeled_banks', 1)]),
                  ('queue', 'request', 2472.0, 2801.0, None, []),
                  ('service', 'request', 2801.0, 3136.0, None,
                   [('batch', 4), ('ops_eliminated', 0), ('shared_subchains', 0),
                    ('host_merge_ns', 0.0), ('cache_hits', 0), ('cache_misses', 0)])],
     'failed': [('cluster_request', 'cluster', 2421.0, 2472.0, None,
                 [('kind', 'BitmapConjunctionRequest'), ('seq', 23), ('priority', 1),
                  ('submitted', 'conjunction'), ('session', 'session'), ('status', 'failed'),
                  ('reason', 'shard_unavailable')]),
                ('scatter', 'cluster', 2421.0, 2421.0, None,
                 [('fanout', 1), ('shard_ids', '0'), ('admitted', True)]),
                ('request', 'request', 2421.0, 2421.0, None,
                 [('kind', 'BitmapConjunctionRequest'), ('seq', 19), ('priority', 1), ('shard', 0),
                  ('status', 'rejected'), ('reason', 'shard_failed')]),
                ('admission', 'request', 2421.0, 2421.0, None,
                 [('admitted', True), ('modeled_ns', 1005.0), ('modeled_banks', 1)])],
     'cancelled': [('cluster_request', 'cluster', 1035.0, 1035.0, None,
                    [('kind', 'BitmapConjunctionRequest'), ('seq', 11), ('priority', 1),
                     ('status', 'rejected'), ('reason', 'queue_full'), ('submitted', 'conjunction'),
                     ('session', 'session')]),
                   ('scatter', 'cluster', 1035.0, 1035.0, None,
                    [('fanout', 2), ('shard_ids', '0,1'), ('admitted', False)]),
                   ('request', 'request', 1035.0, 1035.0, None,
                    [('kind', 'BitmapConjunctionRequest'), ('seq', 8), ('priority', 1),
                     ('status', 'rejected'), ('reason', 'cancelled'), ('shard', 0)]),
                   ('admission', 'request', 1035.0, 1035.0, None,
                    [('admitted', True), ('modeled_ns', 0.0), ('modeled_banks', 1)]),
                   ('request', 'request', 1035.0, 1035.0, None,
                    [('kind', 'BitmapConjunctionRequest'), ('seq', 5), ('priority', 1),
                     ('status', 'rejected'), ('reason', 'queue_full'), ('shard', 1)]),
                   ('admission', 'request', 1035.0, 1035.0, None,
                    [('admitted', False), ('reason', 'queue_full')])]}


# ---------------------------------------------------------------------
# Perfetto export
# ---------------------------------------------------------------------
class TestPerfettoExport:
    def test_trace_validates_and_replays_busy_union(self, tmp_path):
        frontend, *_ = _run_service(observe=True)
        path = write_trace(
            tmp_path / "TRACE_obs.json",
            frontend.obs.tracer,
            metrics=frontend.obs.metrics,
        )

        validate_bench = _load_tool("validate_bench")
        assert validate_bench.validate_file(path) == []

        payload = json.loads(path.read_text())
        events = payload["traceEvents"]

        # One track per bank lane, plus the host lane and the batch track.
        lane_names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == 0
        }
        expected = {str(k) for k in frontend.executor.active_bank_keys()}
        assert lane_names == expected | {"host", "batches"}

        # Replaying the exported exec intervals through a fresh busy-union
        # accumulator reproduces the scheduler's own accounting exactly:
        # place() added each placement's interval once, and re-covered
        # intervals contribute exactly 0.0.
        replay = LaneSchedule()
        for event in events:
            if event["ph"] == "X" and event["pid"] == 0 and event.get("cat") == "exec":
                replay._add_interval(
                    event["args"]["start_ns"], event["args"]["finish_ns"]
                )
        assert replay.busy_union_ns == frontend.executor.lanes.busy_union_ns

    def test_trace_event_envelope(self):
        frontend, *_ = _run_service(observe=True)
        payload = build_trace(frontend.obs.tracer, metrics=frontend.obs.metrics)
        assert payload["displayTimeUnit"] == "ns"
        assert "metrics" in payload
        for event in payload["traceEvents"]:
            if event["ph"] != "X":
                continue
            # ts/dur are Perfetto microseconds of the exact ns in args.
            assert event["ts"] == pytest.approx(event["args"]["start_ns"] / 1e3)
            total = event["args"]["finish_ns"] - event["args"]["start_ns"]
            assert event["dur"] == pytest.approx(total / 1e3)

    def test_open_spans_are_skipped(self):
        tracer = Tracer()
        tracer.span("closed", start_ns=0.0, end_ns=10.0)
        tracer.span("open", start_ns=5.0)  # never ended
        names = [e["name"] for e in build_trace(tracer)["traceEvents"] if e["ph"] == "X"]
        assert names == ["closed #0"] or "closed" in " ".join(names)


# ---------------------------------------------------------------------
# The obs-wall-clock lint rule
# ---------------------------------------------------------------------
class TestObsWallClockLint:
    def test_clock_imports_flagged_inside_obs(self):
        lint = _load_tool("lint_invariants")
        findings = lint.lint_source(
            "import time\nimport datetime\n", "src/repro/obs/trace.py"
        )
        assert [f.rule for f in findings] == ["obs-wall-clock", "obs-wall-clock"]

    def test_datetime_allowed_outside_obs(self):
        lint = _load_tool("lint_invariants")
        findings = lint.lint_source(
            "import datetime\nimport time\n", "src/repro/service/executor.py"
        )
        assert [f.rule for f in findings] == ["wall-clock"]

    def test_waiver_suppresses(self):
        lint = _load_tool("lint_invariants")
        source = "import time  # lint: allow[obs-wall-clock]\n"
        assert lint.lint_source(source, "src/repro/obs/export.py") == []

    def test_obs_package_is_clean(self):
        lint = _load_tool("lint_invariants")
        package = Path(__file__).resolve().parent.parent / "src" / "repro" / "obs"
        assert lint.collect_findings([package]) == []


# ---------------------------------------------------------------------
# Text renderers
# ---------------------------------------------------------------------
class TestRenderers:
    def test_lane_timeline_renders_tracks(self):
        frontend, *_ = _run_service(observe=True)
        text = render_lane_timeline(frontend.obs.tracer)
        assert text.startswith("lane timeline:")
        for label in frontend.obs.tracer.tracks:
            assert label in text
        assert "█" in text and "%" in text

    def test_lane_timeline_empty(self):
        assert "no closed spans" in render_lane_timeline(Tracer())

    def test_span_tree_renders_depth_and_attrs(self):
        frontend, _, records = _run_service(observe=True)
        text = render_span_tree(next(r for r in records if r.completed).trace)
        lines = text.splitlines()
        assert lines[0].startswith("request")
        assert any(line.startswith("  ") for line in lines)  # indented children
        assert "status=completed" in text
