"""Metric containers and summary statistics used across the stack."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(slots=True)
class OperationMetrics:
    """Latency, energy, and data-movement volume of one simulated operation.

    Attributes:
        name: Label of the operation (e.g. ``"bulk_and"``).
        latency_ns: End-to-end latency.
        energy_j: Total energy.
        bytes_moved_on_channel: Bytes that crossed the off-chip channel.
        bytes_produced: Bytes of result data produced.
        notes: Free-form annotation (e.g. which engine executed it).
    """

    name: str
    latency_ns: float
    energy_j: float
    bytes_moved_on_channel: int = 0
    bytes_produced: int = 0
    notes: str = ""

    @property
    def latency_s(self) -> float:
        """Latency in seconds."""
        return self.latency_ns * 1e-9

    @property
    def throughput_bytes_per_s(self) -> float:
        """Result bytes produced per second (0 when latency is 0)."""
        if self.latency_ns <= 0:
            return 0.0
        return self.bytes_produced / self.latency_s

    @property
    def throughput_gops64(self) -> float:
        """Throughput in giga 64-bit-word operations per second.

        This is the metric the Ambit comparison uses: one "operation"
        consumes/produces one 64-bit word of the result vector.
        """
        return self.throughput_bytes_per_s / 8 / 1e9

    @property
    def energy_per_byte_j(self) -> float:
        """Energy per produced byte (0 when nothing was produced)."""
        if self.bytes_produced <= 0:
            return 0.0
        return self.energy_j / self.bytes_produced

    def speedup_over(self, baseline: "OperationMetrics") -> float:
        """Latency ratio ``baseline / self`` (>1 means this one is faster)."""
        if self.latency_ns <= 0:
            raise ValueError("cannot compute speedup with non-positive latency")
        return baseline.latency_ns / self.latency_ns

    def energy_reduction_over(self, baseline: "OperationMetrics") -> float:
        """Energy ratio ``baseline / self`` (>1 means this one uses less energy)."""
        if self.energy_j <= 0:
            raise ValueError("cannot compute energy reduction with non-positive energy")
        return baseline.energy_j / self.energy_j


@dataclass(kw_only=True)
class PlanCounts:
    """What the plan optimizer and the result cache did for a unit of work.

    Declared once and inherited by every holder on the way from the device
    model to a report — a lowered group, both request envelopes,
    :class:`BatchMetrics`, :class:`QueueMetrics`, the session's response
    details — and moved between them *whole* (:meth:`add_counts`): an
    envelope takes its lowered group's, a batch sums its groups', a cluster
    record its parts', a roll-up its completed envelopes'.

    Attributes:
        ops_eliminated: Device ops that did not run because the batch plan
            optimizer shared or restructured a chain (cross-request CSE).
        shared_subchains: Predicate sub-chains served from another
            request's (or an earlier duplicate's) lowered output.
        cache_hits: Sub-chains (or whole conjunctions) served from the
            cross-batch result cache instead of re-running bank work.
        cache_misses: Result-cache lookups that missed (0 with caching off).
        cache_invalidations: Cached bitmaps a write dropped.
    """

    ops_eliminated: int = 0
    shared_subchains: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0

    def plan_counts(self) -> Dict[str, int]:
        """The counters by name (constructor keywords of any holder)."""
        return {f.name: getattr(self, f.name) for f in fields(PlanCounts)}

    def add_counts(self, other: "PlanCounts") -> None:
        """Add ``other``'s counters onto this holder's."""
        self.ops_eliminated += other.ops_eliminated
        self.shared_subchains += other.shared_subchains
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_invalidations += other.cache_invalidations


@dataclass(kw_only=True)
class ElasticCounts:
    """A cluster's lifetime failover and scale accounting (all zero for a
    healthy fixed pool): bumped by the :class:`~repro.cluster.frontend
    .ClusterFrontend`, inherited by :class:`ClusterMetrics`.

    Attributes:
        shard_failures / shard_revivals / shards_joined / shards_retired:
            Pool lifecycle events (fault injection, controller actions).
        failovers: Queued shard parts migrated off a failed or draining
            shard onto survivors.
        failover_failures: Requests terminally failed because no routable
            replica could take their work (degraded-mode rejections).
        replications: Keys given an extra replica live (re-placement).
        copied_bytes / copy_ns: Bytes and modeled device time of the
            replication copies — charged to the destination shards'
            lanes, so elasticity shows up in ``busy_ns`` too.
    """

    shard_failures: int = 0
    shard_revivals: int = 0
    shards_joined: int = 0
    shards_retired: int = 0
    failovers: int = 0
    failover_failures: int = 0
    replications: int = 0
    copied_bytes: int = 0
    copy_ns: float = 0.0


@dataclass
class BatchMetrics(PlanCounts):
    """Aggregate outcome of executing a batch of operations.

    Energy and bytes are plain sums over the batch (batching never changes
    how much work the hardware does).  Two latencies are kept: the serial
    latency the operations would take executed one after another, and the
    overlapped makespan achieved by scheduling operations onto disjoint
    banks — the only mechanism by which a batch is allowed to be faster.

    Attributes:
        name: Label of the batch.
        requests: Number of requests in the batch.
        latency_ns: Overlapped (scheduled) batch latency — the batch's
            completion horizon measured from its dispatch instant.  Under
            lane pipelining this *includes* time spent queued behind a
            previous batch's lane horizons.
        serial_latency_ns: Latency of executing the batch sequentially.
        energy_j: Total energy (identical to sequential execution).
        bytes_produced: Total result bytes produced.
        device_busy_ns: Device-busy time this batch *added* (the union of
            its scheduled intervals not already covered by earlier
            batches' lanes).  None for a batch-synchronous batch, where
            the makespan is the busy time.
        cross_batch_overlap_ns: Work of this batch that ran before the
            previous batch's completion horizon (0 without pipelining) —
            the time a barrier would have wasted.
        notes: Free-form annotation.

    The inherited :class:`PlanCounts` sum over the batch's requests.
    """

    name: str
    requests: int
    latency_ns: float
    serial_latency_ns: float
    energy_j: float
    bytes_produced: int = 0
    device_busy_ns: Optional[float] = None
    cross_batch_overlap_ns: float = 0.0
    notes: str = ""

    @property
    def busy_ns(self) -> float:
        """Executor busy time attributable to this batch.

        The overlap-aware :attr:`device_busy_ns` when the batch was lane
        pipelined, else the batch makespan (batch-synchronous semantics).
        """
        if self.device_busy_ns is not None:
            return self.device_busy_ns
        return self.latency_ns

    @property
    def latency_s(self) -> float:
        """Overlapped latency in seconds."""
        return self.latency_ns * 1e-9

    @property
    def batching_speedup(self) -> float:
        """Serial latency over overlapped latency (>1 means overlap helped)."""
        if self.latency_ns <= 0:
            return 1.0
        return self.serial_latency_ns / self.latency_ns

    @property
    def throughput_bytes_per_s(self) -> float:
        """Result bytes produced per second at the overlapped latency."""
        if self.latency_ns <= 0:
            return 0.0
        return self.bytes_produced / self.latency_s


@dataclass
class LaneMetrics:
    """Per-lane utilization roll-up of a persistent lane schedule.

    Produced by :meth:`repro.service.lanes.LaneSchedule.metrics` and
    surfaced through :meth:`ServiceFrontend.lane_metrics`; quantifies how
    well cross-batch pipelining keeps the banks busy.

    Attributes:
        name: Label of the schedule.
        lanes: Number of lanes (active banks, plus the host lane once
            host-only work has been scheduled).
        span_ns: The overall completion horizon (busiest lane's busy-until).
        busy_union_ns: Virtual time during which at least one lane was
            busy — the honest device-busy measure for throughput math.
        cross_batch_overlap_ns: Work that ran before the previous batch's
            completion horizon — the time a batch barrier would have
            wasted (0 without pipelining).
        requests: Requests placed across the schedule's lifetime.
        batches: Batches dispatched across the schedule's lifetime.
        per_lane_busy_ns: Busy time per lane key (host lane included).
        host_lane_key: Key of the host lane within ``per_lane_busy_ns``
            (excluded from the *bank* utilization aggregates below).
    """

    name: str
    lanes: int
    span_ns: float
    busy_union_ns: float
    cross_batch_overlap_ns: float = 0.0
    requests: int = 0
    batches: int = 0
    per_lane_busy_ns: Dict = field(default_factory=dict)
    host_lane_key: object = "host"

    def _bank_busy(self) -> List[float]:
        return [
            busy for key, busy in self.per_lane_busy_ns.items()
            if key != self.host_lane_key
        ]

    @property
    def per_lane_utilization(self) -> Dict:
        """Busy fraction of the span, per lane (host lane included)."""
        if self.span_ns <= 0.0:
            return {key: 0.0 for key in self.per_lane_busy_ns}
        return {key: busy / self.span_ns for key, busy in self.per_lane_busy_ns.items()}

    @property
    def mean_bank_utilization(self) -> float:
        """Mean busy fraction across the bank lanes (host lane excluded)."""
        busy = self._bank_busy()
        if not busy or self.span_ns <= 0.0:
            return 0.0
        return sum(busy) / (len(busy) * self.span_ns)

    @property
    def bank_idle_fraction(self) -> float:
        """Fraction of bank-lane time spent idle over the span."""
        return 1.0 - self.mean_bank_utilization

    @property
    def device_idle_fraction(self) -> float:
        """Fraction of the span during which *no* lane was busy."""
        if self.span_ns <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.busy_union_ns / self.span_ns)


@dataclass
class QueueMetrics(PlanCounts):
    """Queueing outcome of serving a request stream through the frontend.

    Latency percentiles are computed over the *completed* requests only;
    rejected requests never enter service and are counted separately.  Two
    latencies are tracked per request: the **wait** (admission until the
    request starts on its banks) and the **sojourn** (admission until its
    last bank finishes), so ``sojourn - wait`` is the in-service time.

    Attributes:
        name: Label of the run.
        offered: Requests presented to the frontend.
        admitted: Requests accepted into the queue.
        rejected: Requests refused by admission control (including shed).
        shed: Admitted requests later evicted by priority-class load
            shedding (a subset of ``rejected``).
        completed: Requests that finished service.
        deadline_misses: Completed requests that finished past their deadline.
        wait_p50_ns / wait_p99_ns: Wait-time percentiles.
        sojourn_p50_ns / sojourn_p99_ns: Sojourn-time percentiles.
        makespan_ns: Virtual-clock end of the last served batch, measured
            from the start of the observation window (the clock starts at
            0, so idle time before the first arrival is included).
        busy_ns: Time the executor spent serving batches.
        serial_latency_ns: Latency of serving the completed requests one at
            a time (the no-overlap baseline).
        energy_j: Total energy of the completed requests (identical to
            sequential execution; batching never changes it).
        batches: Number of batches the planner closed.
        host_merge_ns: Host time charged for result merges (the
            optimizer's split-mode cross-predicate joins here; the gather
            merge tree at the cluster tier).

    The inherited :class:`PlanCounts` sum over the completed requests.
    """

    name: str
    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    shed: int = 0
    completed: int = 0
    deadline_misses: int = 0
    wait_p50_ns: float = 0.0
    wait_p99_ns: float = 0.0
    sojourn_p50_ns: float = 0.0
    sojourn_p99_ns: float = 0.0
    makespan_ns: float = 0.0
    busy_ns: float = 0.0
    serial_latency_ns: float = 0.0
    energy_j: float = 0.0
    batches: int = 0
    host_merge_ns: float = 0.0

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered requests refused by admission control."""
        if self.offered <= 0:
            return 0.0
        return self.rejected / self.offered

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of completed requests that missed their deadline."""
        if self.completed <= 0:
            return 0.0
        return self.deadline_misses / self.completed

    @property
    def pipeline_speedup(self) -> float:
        """Serial latency over executor busy time (>1 means overlap helped)."""
        if self.busy_ns <= 0:
            return 1.0
        return self.serial_latency_ns / self.busy_ns


def summarize_envelopes(records: Iterable) -> Tuple[Dict, List]:
    """Common queueing summary over request envelopes, folded in one pass.

    The one place the per-request roll-up arithmetic lives, so no tier or
    window can drift on what a count or a percentile means.  Returns the
    :class:`QueueMetrics` keywords — counts, wait/sojourn percentiles,
    serial latency/energy and summed :class:`PlanCounts` of the completed
    work — and the completed envelopes, in record order, for callers that
    window them further.  ``records`` are
    :class:`~repro.service.requests.RequestEnvelope` subclasses.
    """
    offered = admitted = shed = deadline_misses = 0
    completed: List = []
    totals = PlanCounts()
    waits: List[float] = []
    sojourns: List[float] = []
    for record in records:
        offered += 1
        admitted += record.admitted
        shed += record.rejected_reason == "shed"
        if record.completed:
            completed.append(record)
            totals.add_counts(record)
            deadline_misses += record.deadline_missed
            waits.append(record.wait_ns)
            sojourns.append(record.sojourn_ns)
    waits.sort()
    sojourns.sort()
    return dict(
        offered=offered,
        admitted=admitted,
        rejected=offered - admitted,
        shed=shed,
        completed=len(completed),
        deadline_misses=deadline_misses,
        wait_p50_ns=_sorted_percentile(waits, 50, 0.0),
        wait_p99_ns=_sorted_percentile(waits, 99, 0.0),
        sojourn_p50_ns=_sorted_percentile(sojourns, 50, 0.0),
        sojourn_p99_ns=_sorted_percentile(sojourns, 99, 0.0),
        # Float totals stay ``sum()`` over the completed envelopes in record
        # order: Python 3.12's ``sum`` is compensated, a ``+=`` loop is not.
        serial_latency_ns=sum(r.metrics.latency_ns for r in completed),
        energy_j=sum(r.metrics.energy_j for r in completed),
        host_merge_ns=sum(r.host_merge_ns for r in completed),
        **totals.plan_counts(),
    ), completed


def summarize_queue_records(
    name: str,
    records: Sequence,
    makespan_ns: float,
    busy_ns: float,
    batches: int,
) -> QueueMetrics:
    """Queueing summary over a window of request envelopes.

    Used by :meth:`ServiceFrontend.result` over the frontend's lifetime,
    by :meth:`PimSession.report` over just one session's records, and by
    the host backend — so a shared or reused backend never folds earlier
    traffic into a later report.
    """
    return QueueMetrics(
        name=name,
        makespan_ns=makespan_ns,
        busy_ns=busy_ns,
        batches=batches,
        **summarize_envelopes(records)[0],
    )


@dataclass
class ClusterMetrics(QueueMetrics, ElasticCounts):
    """Roll-up of serving a request stream across a sharded cluster.

    The :class:`QueueMetrics` surface at cluster level, plus what only a
    cluster has.  The cluster frontend's scatter-gather records (one per
    *cluster-level* request, however many shards it fanned out to) supply
    the counts and percentiles: a conjunction scattered over three shards
    is one offered/completed request here, while each shard's
    ``per_shard`` entry counts its local sub-request.  Wait runs to the
    first sub-request's start and sojourn to the last one's finish, merge
    included.  ``makespan_ns`` is the slowest shard, extended by any
    gather merge that completes after it (a request is not done until the
    host has merged it); ``busy_ns`` and ``batches`` sum over the shards;
    ``host_merge_ns`` is the gather merge tree — partials merge pairwise
    in parallel, so each record is charged ``ceil(log2(fanout))`` levels
    of the cluster frontend's ``merge_ns_per_op``.

    Attributes:
        shards: Number of shard executors in the cluster.
        utilization: Per-shard busy time over the cluster makespan.
        imbalance: Hottest shard's busy time over the mean shard busy time
            (1.0 = perfectly balanced).
        cross_shard_fanout: Mean number of shards a completed request
            touched (1.0 = no scatter).
        merge_ops: Host-side bitwise merges the gather stage performed.
        per_shard: Each shard frontend's own queueing summary.

    The inherited :class:`ElasticCounts` are the cluster's lifetime
    failover/scale accounting (:meth:`ClusterFrontend.elastic_summary`).
    """

    shards: int = 0
    utilization: List[float] = field(default_factory=list)
    imbalance: float = 1.0
    cross_shard_fanout: float = 0.0
    merge_ops: int = 0
    per_shard: List[QueueMetrics] = field(default_factory=list)

    @property
    def mean_utilization(self) -> float:
        """Mean per-shard utilization over the cluster makespan."""
        if not self.utilization:
            return 0.0
        return sum(self.utilization) / len(self.utilization)

    @classmethod
    def from_records(
        cls,
        name: str,
        records: Iterable,
        per_shard: List[QueueMetrics],
        clock_offset: float = 0.0,
        elastic: Optional[Dict[str, Any]] = None,
    ) -> "ClusterMetrics":
        """Build the roll-up from cluster records plus per-shard summaries.

        ``records`` are :class:`~repro.cluster.frontend.ClusterRecord`
        envelopes (the cluster package defines them; metrics stays
        import-free of it).  ``clock_offset`` is the absolute virtual-clock
        origin of the observation window (0 for a whole-life roll-up):
        record finish times are measured against it so the makespan can
        be extended past the shard makespans by late host merges.
        """
        summary, completed = summarize_envelopes(records)
        makespan = max(
            [m.makespan_ns for m in per_shard]
            + [r.finish_ns - clock_offset for r in completed]
            + [0.0]
        )
        busy = [m.busy_ns for m in per_shard]
        mean_busy = sum(busy) / len(busy) if busy else 0.0
        return cls(
            name=name,
            shards=len(per_shard),
            makespan_ns=makespan,
            busy_ns=sum(busy),
            batches=sum(m.batches for m in per_shard),
            utilization=[b / makespan if makespan > 0 else 0.0 for b in busy],
            imbalance=max(busy) / mean_busy if mean_busy > 0 else 1.0,
            cross_shard_fanout=(
                sum(r.fanout for r in completed) / len(completed) if completed else 0.0
            ),
            merge_ops=sum(r.merge_ops for r in completed),
            per_shard=list(per_shard),
            **summary,
            **(elastic or {}),
        )


def combine_serial(name: str, metrics: Iterable[OperationMetrics]) -> OperationMetrics:
    """Sum a sequence of operations as if executed back to back."""
    metrics = list(metrics)
    return OperationMetrics(
        name=name,
        latency_ns=sum(m.latency_ns for m in metrics),
        energy_j=sum(m.energy_j for m in metrics),
        bytes_moved_on_channel=sum(m.bytes_moved_on_channel for m in metrics),
        bytes_produced=sum(m.bytes_produced for m in metrics),
        notes=f"serial combination of {len(metrics)} operations",
    )


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; raises on empty or non-positive input."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    values = list(values)
    if not values:
        raise ValueError("arithmetic_mean of empty sequence")
    return sum(values) / len(values)


def ratio(baseline: float, improved: float) -> float:
    """Improvement factor ``baseline / improved`` (>1 means improvement)."""
    if improved <= 0:
        raise ValueError("improved value must be positive")
    return baseline / improved


def reduction_percent(baseline: float, improved: float) -> float:
    """Percentage reduction from ``baseline`` to ``improved`` (0–100)."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return (baseline - improved) / baseline * 100.0


def harmonic_mean(values: Iterable[float]) -> float:
    """Harmonic mean of positive values."""
    values = list(values)
    if not values:
        raise ValueError("harmonic_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("harmonic_mean requires strictly positive values")
    return len(values) / sum(1.0 / v for v in values)


def _sorted_percentile(data: Sequence[float], q: float, default: float) -> float:
    """Linear-interpolated percentile ``q`` of already-sorted ``data``
    (``default`` when it is empty)."""
    if not data:
        return default
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    if len(data) == 1:
        return data[0]
    position = (len(data) - 1) * q / 100.0
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return data[low]
    fraction = position - low
    return data[low] * (1 - fraction) + data[high] * fraction


def percentile(values: Iterable[float], q: float) -> Optional[float]:
    """Linear-interpolated percentile ``q`` (0–100) of ``values``."""
    data = sorted(values)
    return _sorted_percentile(data, q, 0.0) if data else None


def percentile_or(values: Iterable[float], q: float, default: float = 0.0) -> float:
    """:func:`percentile` with an explicit no-samples default (a bare
    ``percentile(xs, q) or default`` would also replace a legitimate 0.0)."""
    return _sorted_percentile(sorted(values), q, default)
