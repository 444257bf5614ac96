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

import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis import audit_cluster, audit_executor, render_lane_timeline, render_span_tree
from repro.analysis.metrics import percentile, percentile_or, summarize_queue_records
from repro.api import PimSession
from repro.cluster import ClusterFrontend, ControllerPolicy, ElasticController, ShardRouter
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
from repro.service.frontend import ArrivalEvent, replay
from repro.service.lanes import LaneSchedule
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


def _run_service(observe, seed: int = 3, count: int = 24, max_queue_depth: int = 8):
    rng = np.random.default_rng(seed)
    frontend = _service_frontend(observe, max_queue_depth=max_queue_depth)
    events = poisson_schedule(
        _scan_requests(rng, count=count), rate_per_s=5e6, seed=seed
    )
    result = frontend.run(events, name="obs_test")
    return frontend, result


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
    def test_percentile_returns_none_on_empty(self):
        assert percentile([], 50.0) is None
        assert percentile([4.0], 50.0) == 4.0

    def test_percentile_or_defaults_explicitly(self):
        assert percentile_or([], 50.0) == 0.0
        assert percentile_or([], 50.0, default=-1.0) == -1.0
        # The trap the helper exists for: a legitimate 0.0 percentile must
        # survive (``percentile(...) or default`` would replace it).
        assert percentile_or([0.0, 0.0], 99.0, default=-1.0) == 0.0

    def test_queue_metrics_from_no_samples(self):
        metrics = summarize_queue_records("idle", [], makespan_ns=0.0, busy_ns=0.0, batches=0)
        assert metrics.wait_p50_ns == 0.0
        assert metrics.wait_p99_ns == 0.0
        assert metrics.sojourn_p50_ns == 0.0
        assert metrics.sojourn_p99_ns == 0.0


# ---------------------------------------------------------------------
# The disabled path
# ---------------------------------------------------------------------
class TestDisabledPath:
    def test_observe_false_allocates_no_spans(self):
        frontend, result = None, None
        before = Span.allocated
        frontend, result = _run_service(observe=False)
        assert Span.allocated - before == 0
        assert frontend.obs is NULL_OBSERVER
        assert result.metrics.completed > 0  # the run itself was real

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
        assert plain.metrics == traced.metrics
        assert len(plain.records) == len(traced.records)
        for a, b in zip(plain.records, traced.records):
            assert a.arrival_ns == b.arrival_ns
            assert self._same_ns(a.start_ns, b.start_ns)
            assert self._same_ns(a.finish_ns, b.finish_ns)
            assert a.admitted == b.admitted
            if a.value is None or b.value is None:
                assert a.value is None and b.value is None
            else:
                assert np.array_equal(a.value, b.value)

    def test_service_run_is_bit_exact_with_tracing_on(self):
        _, plain = _run_service(observe=False)
        _, traced = _run_service(observe=True)
        self._assert_runs_identical(plain, traced)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1_000),
        depth=st.integers(min_value=2, max_value=12),
    )
    def test_service_bit_exactness_property(self, seed, depth):
        """Across seeds and shed pressure: tracing never perturbs the run."""
        _, plain = _run_service(observe=False, seed=seed, count=12, max_queue_depth=depth)
        _, traced = _run_service(observe=True, seed=seed, count=12, max_queue_depth=depth)
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
            return cluster, cluster.run(events)

        _, plain = run(False)
        traced_cluster, traced = run(True)
        assert plain.metrics == traced.metrics
        for a, b in zip(plain.records, traced.records):
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


# ---------------------------------------------------------------------
# Observation is invisible: nothing decides from a recording
# ---------------------------------------------------------------------
_CARDINALITIES = {"region": 6, "status": 4, "tier": 3}


def _mixed_events(seed: int, count: int = 24):
    """A mixed read/write stream over its own fresh table (the writes
    mutate it, so every run builds the stream again from the seed)."""
    rng = np.random.default_rng(seed)
    rows = 160
    table = ColumnTable("t", rows)
    for name, cardinality in _CARDINALITIES.items():
        table.add_column(name, rng.integers(0, cardinality, size=rows), cardinality=cardinality)
    index = BitmapIndex(table, list(_CARDINALITIES))
    events, at_ns = [], 0.0
    for i in range(count):
        at_ns += float(rng.integers(40, 400))
        if i % 4 == 3:
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
        # Two priority classes, so a full queue sheds as well as refuses.
        events.append(ArrivalEvent(arrival_ns=at_ns, request=request, priority=i % 2))
    return events


def _noisy_neighbours(plane: Observer) -> None:
    """Other backends recording into ``plane``: a hybrid service reading
    the same column *names* hot, and a cluster rejecting nearly all it is
    offered — everything a decision that read the plane would trip over."""
    reads = [e for e in _mixed_events(seed=999) if not is_write_request(e.request)]
    ServiceFrontend(PipelineConfig(maintenance="hybrid"), engine=_engine(), observe=plane).run(reads)
    rejecting = ClusterFrontend(
        1,
        PipelineConfig(max_queue_depth=1, policy=BatchPolicy(max_batch=4, window_ns=None)),
        engine_factory=_engine,
        observe=plane,
    )
    result = rejecting.run([ArrivalEvent(arrival_ns=0.0, request=e.request) for e in reads])
    assert result.metrics.rejected == len(reads) - 1


#: Reasons only a frontend's door gives (anything else left a queue).
_DOOR_REASONS = ("queue_full", "bank_occupancy")


def _owner_counts(backend, admitted_at_door) -> dict:
    """What the plane's counters describe, read off the owners' state:
    envelopes, batch roll-ups and the cluster's own tallies.  A counter
    the owners have nothing for is left out, as the registry leaves it."""
    shards = getattr(backend, "shards", [backend])
    parts = [q for shard in shards for q in shard.records]
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
        counts["cluster.offered"] = len(backend.records)
        counts["cluster.admitted"] = sum(admitted_at_door)
        # A record completes when it is gathered, not when its last part does.
        counts["cluster.completed"] = sum(not math.isnan(r.finish_ns) for r in backend.records)
        counts["cluster.rejected"] = backend.rejected
    return counts


def _observed_run(tier: str, maintenance: str, plane: str, seed: int):
    """Serve the seeded stream with the plane attached one way; returns
    what the simulation decided: every record's outcome, and the
    controller's decisions on the cluster tier."""
    observe = {"off": False, "own": True, "shared": Observer(), "late": False}[plane]
    if plane == "shared":
        _noisy_neighbours(observe)
    config = PipelineConfig(
        policy=BatchPolicy(max_batch=3, window_ns=500.0),
        max_queue_depth=4,
        shed_low_priority=True,
        maintenance=maintenance,
    )
    controller = None
    if tier == "service":
        backend = ServiceFrontend(config, engine=_engine(), observe=observe)
    else:
        backend = ClusterFrontend(
            2, config, router=ShardRouter(2), engine_factory=_engine, observe=observe
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
    events = _mixed_events(seed)
    half = len(events) // 2
    admitted_at_door = []
    offer = lambda event: admitted_at_door.append(event.offer_to(backend).admitted)  # noqa: E731
    replay(events[:half], offer)
    if plane == "late":
        before = _owner_counts(backend, admitted_at_door)
        PimSession(backend, observe=True)  # binds a fresh plane mid-stream
        assert backend.obs.enabled
    replay(events[half:], offer)
    backend.drain()
    backend.result()  # cluster: gather
    if plane == "late":
        # A display counts from the moment it is bound: every counter
        # equals its owner's state delta since then, whether or not the
        # request it counts was traced from arrival.
        counters = backend.obs.snapshot()["counters"]
        after = _owner_counts(backend, admitted_at_door)
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
        for r in backend.records
    ]
    return records, (controller.events if controller else None)


class TestObservationIsInvisible:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        tier=st.sampled_from(["service", "cluster"]),
        maintenance=st.sampled_from(["eager", "lazy", "hybrid"]),
        plane=st.sampled_from(["own", "shared", "late"]),
    )
    def test_no_way_of_attaching_a_plane_changes_a_run(self, seed, tier, maintenance, plane):
        """Own plane, a plane shared with noisy neighbours, a plane bound
        mid-stream: every record and every controller decision equals the
        ``observe=False`` run's.  (Hybrid hotness and the elastic
        controller used to read their inputs back out of the registry.)"""
        assert _observed_run(tier, maintenance, plane, seed) == _observed_run(
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
        assert any(events for _, events in outcomes)
        assert any(not admitted for records, _ in outcomes for admitted, *_ in records)


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
        result = frontend.run(
            poisson_schedule(_scan_requests(rng, count=20), rate_per_s=5e6, seed=12)
        )
        assert result.metrics.completed == 20
        return frontend, result

    def test_unsanitized_lanes_retain_no_placements(self):
        plain, plain_result = self._run()
        audited, audited_result = self._run(sanitize=True)
        assert plain.executor.lanes.log is None
        assert len(audited.executor.lanes.log) == audited.executor.lanes.requests == 20
        # Same schedule, same accounting: only the recording differs.
        assert plain.lane_metrics() == audited.lane_metrics()
        assert plain_result.metrics == audited_result.metrics
        assert audit_executor(audited.executor).report.placements == 20

    def test_auditing_a_logless_schedule_says_why(self):
        plain, _ = self._run()
        for audit in (
            lambda: check_schedule(plain.executor.lanes),
            lambda: audit_executor(plain.executor),
            lambda: audit_cluster(ClusterFrontend(2, engine_factory=_engine)),
        ):
            with pytest.raises(ValueError, match="sanitize=True"):
                audit()
        # A hand-built schedule still logs — and audits — by default.
        lanes = LaneSchedule(["a"])
        lanes.place(["a"], 10.0)
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
        assert result.metrics == expected.metrics

    def test_hand_built_executor_follows_its_sanitize(self):
        rng = np.random.default_rng(13)
        requests = _scan_requests(rng, count=6)
        for sanitize in (False, True):
            executor = BatchExecutor(engine=_engine(), sanitize=sanitize)
            executor.run(requests)
            assert (executor.lanes.log is not None) == sanitize
            assert executor.lanes.requests == 6


# ---------------------------------------------------------------------
# The recorded span trees and metrics
# ---------------------------------------------------------------------
class TestAdopt:
    @settings(max_examples=60, deadline=None)
    @given(
        script=st.lists(
            st.one_of(st.none(), st.tuples(st.integers(0, 30), st.integers(0, 30))),
            max_size=40,
        )
    )
    def test_roots_match_the_forward_scan_reference(self, script):
        """``adopt`` finds its span from the tail of ``roots``; whatever
        the interleaving of opens and adopts (re-adopting an adopted
        span included), ``roots`` ends up exactly as the front-to-back
        scan left it."""
        tracer = Tracer()
        opened, reference = [], []
        for step in script:
            if step is None or not opened:
                opened.append(tracer.span(f"s{len(opened)}"))
                reference.append(opened[-1])
                continue
            child, parent = (opened[i % len(opened)] for i in step)
            if child is parent:
                continue
            tracer.adopt(child, parent)
            for position, root in enumerate(reference):
                if root is child:
                    del reference[position]
                    break
            assert child.parent is parent and parent.children[-1] is child
        assert len(tracer.roots) == len(reference)
        assert all(a is b for a, b in zip(tracer.roots, reference))


class TestRecordedSpans:
    def test_completed_request_tree_shape(self):
        frontend, result = _run_service(observe=True)
        completed = result.completed()
        assert completed
        record = completed[0]
        assert record.trace is not None
        names = [span.name for span in record.trace.walk()]
        assert names == ["request", "admission", "queue", "service"]
        assert record.trace.end_ns == record.finish_ns
        assert record.trace.attrs["status"] == "completed"
        service = record.trace.find("service")
        assert service.start_ns == record.start_ns
        assert service.end_ns == record.finish_ns

    def test_rejected_request_tree_and_counters(self):
        frontend, result = _run_service(observe=True, max_queue_depth=2)
        metrics = result.metrics
        assert metrics.rejected > 0
        counters = frontend.obs.snapshot()["counters"]
        assert counters["frontend.offered"] == metrics.offered
        assert counters["frontend.completed"] == metrics.completed
        assert counters["frontend.rejected"] == metrics.rejected
        rejected = [r for r in result.records if not r.admitted]
        span = rejected[0].trace
        assert span.attrs["status"] == "rejected"
        assert span.attrs["reason"]
        admission = span.find("admission")
        assert admission.attrs["admitted"] is False

    def test_executor_lanes_become_tracks(self):
        frontend, _ = _run_service(observe=True)
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
# Perfetto export
# ---------------------------------------------------------------------
class TestPerfettoExport:
    def test_trace_validates_and_replays_busy_union(self, tmp_path):
        frontend, _ = _run_service(observe=True)
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
        frontend, _ = _run_service(observe=True)
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
        frontend, _ = _run_service(observe=True)
        text = render_lane_timeline(frontend.obs.tracer)
        assert text.startswith("lane timeline:")
        for label in frontend.obs.tracer.tracks:
            assert label in text
        assert "█" in text and "%" in text

    def test_lane_timeline_empty(self):
        assert "no closed spans" in render_lane_timeline(Tracer())

    def test_span_tree_renders_depth_and_attrs(self):
        frontend, result = _run_service(observe=True)
        text = render_span_tree(result.completed()[0].trace)
        lines = text.splitlines()
        assert lines[0].startswith("request")
        assert any(line.startswith("  ") for line in lines)  # indented children
        assert "status=completed" in text
