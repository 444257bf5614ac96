"""The service frontend: arrivals, admission control, and the request queue.

:class:`ServiceFrontend` is the first stage of the service pipeline
(frontend → planner → executor).  It accepts a *stream* of requests — from
a Poisson arrival process, a recorded trace, or direct :meth:`offer` calls
— into a bounded priority queue, applies admission control, and drives the
:class:`~repro.service.planner.BatchPlanner` /
:class:`~repro.service.executor.BatchExecutor` pair on a virtual clock.

**Admission control.**  A request is rejected (never queued, never served)
when the queue is at ``max_queue_depth``, or when the modeled bank
occupancy already exceeds ``max_backlog_ns``.  Occupancy is tracked as a
**per-bank backlog vector**: each queued request charges its sequential
latency to the banks it is modeled to occupy (its column's banks, its
placement, its bank-offset hint), and requests with no affinity spread
evenly.  The admission bound applies to the *hottest* bank the candidate
would touch, so under bank skew the frontend rejects work piling onto a
hot bank while still admitting work bound for idle banks — with balanced
traffic the behaviour matches the older scalar model (queued serial
latency / banks) and ``max_backlog_ns`` keeps its meaning.  Rejected
requests are counted and returned to the caller with a reason; a real
deployment would translate this into backpressure (see
:class:`~repro.service.client.RetryClient` for a retrying client model).

**How the backlog vector is kept.**  Unpinned shares (``modeled_ns /
banks``, on admit and on pop) wait in an ordered list that is added to
every bank lane, in order, just before the vector is read or a pinned
charge lands: the same float additions in the same order, so exact.  An
emptied queue drops the list (the vector resets), and a list of
:data:`PENDING_SHARES` is applied at once.

**Load shedding.**  With ``shed_low_priority`` enabled, a request that
would be refused makes room by evicting queued work of *strictly lower*
priority (youngest of the lowest class first) — but only when shedding
actually lets the candidate fit.  Shed requests are marked
``rejected_reason="shed"`` and counted in
:attr:`~repro.analysis.metrics.QueueMetrics.shed`.

**Queue order.**  Higher ``priority`` first, then earliest deadline, then
FIFO — so latency-critical classes overtake bulk work without starving it
(the batch window bounds the wait of everything admitted).  The next
close instant (``BatchPlanner.next_close_ns``) is kept: lowered at each
admission, recomputed when requests leave; as rounding is monotonic,
``min(arrival) + window`` is the least ``arrival + window`` bit for bit.

**Virtual time.**  The frontend simulates in nanoseconds, consistent with
the rest of the stack: arrivals happen at their timestamps, and requests
arriving during service are admitted (against the live queue) before the
next batch closes.  Per-request wait and sojourn times, deadline misses,
and rejections are summarized in
:class:`~repro.analysis.metrics.QueueMetrics`.

**Lane pipelining.**  With a pipelined executor (the default), serving a
batch does *not* occupy the clock for the batch's makespan: the batch is
dispatched onto the executor's persistent per-bank lane timelines
(:class:`~repro.service.lanes.LaneSchedule`), and the next batch may be
dispatched as soon as *some* bank lane has drained
(:meth:`BatchExecutor.ready_ns`) — so a straggler on one bank no longer
holds every other bank idle.  Completion accounting then reads lane
horizons instead of batch makespans: request finish times come from the
lane schedule, :attr:`completion_ns` extends the clock by the in-flight
horizon, admission occupancy counts each bank's in-flight remainder on
top of its queued backlog, and each batch's
:attr:`~repro.analysis.metrics.BatchMetrics.busy_ns` is the
overlap-aware device-busy time it added rather than its makespan.  With
``pipeline=False`` every one of these reduces to the batch-synchronous
behaviour: the clock rides through each makespan and in-flight
remainders are zero.

Every knob named here is a field of
:class:`~repro.service.config.PipelineConfig`, declared and validated there.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union, get_args

import numpy as np

from repro.analysis.metrics import BatchMetrics, LaneMetrics
from repro.ambit.engine import AmbitEngine
from repro.obs import DerivedSpan, Observer, resolve_observe
from repro.service.config import PipelineConfig
from repro.service.executor import BatchExecutor
from repro.service.lanes import HOST_LANE
from repro.service.planner import BatchPlanner, LoweredGroup
from repro.service.requests import (
    BatchResult,
    CopyRequest,
    FrontendRequest,
    QueuedRequest,
    RequestResult,
    check_copy_request,
    check_request_type,
    checked_arrival,
)
from repro.storage.requests import WriteRequest, check_row_ids

#: Every request type a frontend (either tier) serves: the members of the
#: request unions themselves, so a new kind is declared in one place.
_WRITE_TYPES: Tuple[type, ...] = get_args(WriteRequest)
SERVED_REQUEST_TYPES: Tuple[type, ...] = get_args(FrontendRequest) + _WRITE_TYPES

#: Most unpinned shares a frontend holds back unapplied.  A constant, not
#: a knob: applying early changes no number.
PENDING_SHARES = 64


def check_frontend_request(request: object) -> None:
    """Refuse a request a frontend's ``offer`` could not serve — an unknown
    type (``TypeError``; the planner's :class:`BoundChain` among them), a
    copy whose size or mode RowClone cannot price
    (:func:`~repro.service.requests.check_copy_request`), or a write whose
    row ids or codes the table cannot take (the mutator's own error) —
    before anything is recorded or any clock moves.

    Both tiers expose it as ``check_request``: ``offer`` runs it beside
    :func:`~repro.service.requests.checked_arrival`, and a session runs it
    before its pre-arrival advance.
    """
    check_request_type(request, SERVED_REQUEST_TYPES)
    if isinstance(request, CopyRequest):
        check_copy_request(request)
    elif isinstance(request, _WRITE_TYPES):
        check_row_ids(request)


@dataclass(slots=True)
class ArrivalEvent:
    """One request arriving at a point of virtual time.

    Attributes:
        request: The request (primitive or high-level).
        arrival_ns: Arrival timestamp on the frontend's clock.
        priority: Larger values are served first.
        deadline_ns: Absolute completion deadline, or None.
    """

    request: FrontendRequest
    arrival_ns: float
    priority: int = 0
    deadline_ns: Optional[float] = None


def replay(events: Iterable[ArrivalEvent], arrive: Callable[[ArrivalEvent], Any]) -> List:
    """Feed an arrival stream to ``arrive`` in virtual-time order.

    The one arrival loop (:meth:`PimSession.submit_stream`): simultaneous
    arrivals keep their stream order, and the results come back in *event*
    order.
    """
    events = list(events)
    results: List = [None] * len(events)
    for i in sorted(range(len(events)), key=lambda i: events[i].arrival_ns):
        results[i] = arrive(events[i])
    return results


def poisson_schedule(
    requests: Sequence[FrontendRequest],
    rate_per_s: float,
    seed: int = 0,
    priorities: Optional[Sequence[int]] = None,
    deadline_slack_ns: Optional[float] = None,
    start_ns: float = 0.0,
) -> List[ArrivalEvent]:
    """Schedule requests as a Poisson arrival process.

    Args:
        requests: The requests, in arrival order.
        rate_per_s: Mean arrival rate (requests per second).
        seed: Seed of the exponential inter-arrival draws.
        priorities: Optional per-request priorities.
        deadline_slack_ns: When given, each request's deadline is its
            arrival time plus this slack.
        start_ns: Virtual-clock origin of the process.  When feeding a
            frontend that has already served traffic, pass its
            ``clock_ns`` — arrivals stamped before the frontend's current
            clock would be accounted as having waited since t=0.
    """
    if not 0 < rate_per_s < math.inf:
        raise ValueError("rate_per_s must be finite and positive")
    rng = np.random.default_rng(seed)
    arrivals: List[float] = []
    now = float(start_ns)
    for _ in requests:
        now += rng.exponential(1e9 / rate_per_s)
        arrivals.append(now)
    deadlines = None
    if deadline_slack_ns is not None:
        deadlines = [at + deadline_slack_ns for at in arrivals]
    return trace_schedule(requests, arrivals, priorities, deadlines)


def trace_schedule(
    requests: Sequence[FrontendRequest],
    arrival_times_ns: Sequence[float],
    priorities: Optional[Sequence[int]] = None,
    deadlines_ns: Optional[Sequence[Optional[float]]] = None,
) -> List[ArrivalEvent]:
    """Schedule requests at recorded trace timestamps."""
    per_request = dict(
        arrival_times_ns=arrival_times_ns, priorities=priorities, deadlines_ns=deadlines_ns
    )
    for name, values in per_request.items():
        if values is not None and len(values) != len(requests):
            raise ValueError(f"requests and {name} differ in length")
    events = []
    for i, (request, at) in enumerate(zip(requests, arrival_times_ns)):
        events.append(
            ArrivalEvent(
                request=request,
                arrival_ns=float(at),
                priority=priorities[i] if priorities is not None else 0,
                deadline_ns=deadlines_ns[i] if deadlines_ns is not None else None,
            )
        )
    return events


class RequestSpan(DerivedSpan):
    """A request's root span, derived from its envelope when the trace is
    read: ``admission``, then ``queue``, ``service`` and (for a write or a
    read that paid for rebuilds) ``maintenance`` once it completed.

    ``facts`` is what the envelope does not hold: ``(left_ns,)`` when it
    was refused after admission (shed, cancelled, made stale), or the
    ``maintenance`` attributes as pairs.  ``note`` is the future of the
    session that submitted it, or ``(shard, failover, refused at the
    scatter)`` once a cluster adopted it as a part.
    """

    __slots__ = ()

    def derive(self):
        queued = self.source
        arrival = queued.arrival_ns
        attrs: Dict[str, Any] = dict(
            kind=type(queued.request).__name__, seq=queued.seq, priority=queued.priority
        )
        if queued.deadline_ns is not None:
            attrs.update(deadline_ns=queued.deadline_ns, deadline_slack_ns=queued.deadline_ns - arrival)
        door = not queued.admitted and self.facts is None
        if door:
            admission = dict(admitted=False, reason=queued.rejected_reason)
        else:
            admission = dict(
                admitted=True, modeled_ns=queued.modeled_ns, modeled_banks=len(queued.modeled_banks)
            )
        children: List[Any] = [("admission", "request", arrival, arrival, admission)]
        end, outcome = None, {}
        if not queued.admitted:
            end = arrival if door else self.facts[0]
            outcome = dict(status="rejected", reason=queued.rejected_reason)
        elif queued.completed:
            start, end = queued.start_ns, queued.finish_ns
            children.append(("queue", "request", arrival, start, {}))
            service = dict(
                batch=queued.batch_index,
                ops_eliminated=queued.ops_eliminated,
                shared_subchains=queued.shared_subchains,
                host_merge_ns=queued.host_merge_ns,
                cache_hits=queued.cache_hits,
                cache_misses=queued.cache_misses,
            )
            children.append(("service", "request", start, end, service))
            if self.facts is not None:
                children.append(("maintenance", "storage", start, end, dict(self.facts)))
            outcome = dict(status="completed", deadline_missed=queued.deadline_missed)
        # Refused inside the offer: at this door, or (a part) at the scatter.
        early = door or (type(self.note) is tuple and self.note[2])
        return "request", "request", arrival, end, self._ordered(attrs, outcome, early), children


class ServiceFrontend:
    """Admission-controlled request frontend over the batch pipeline.

    Args:
        config: Every pipeline knob (admission bounds, batch policy,
            executor mode, optimizer, cache, maintenance); the frontend
            builds its own :attr:`executor` and :attr:`planner` from it.
            Defaults to ``PipelineConfig()``.
        engine: The :class:`~repro.ambit.engine.AmbitEngine` to execute
            on (a vectorized default is built when omitted).
        observe: Observability plane (``repro.obs``): ``True`` records a
            span tree per request (admission → queue → service) plus
            frontend counters/gauges/histograms, and is pushed down to the
            executor (batch + lane spans) and the maintenance policy; an
            :class:`~repro.obs.Observer` shares one plane across
            components.  Recording never changes admission, schedules,
            results, or accounting.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        engine: Optional[AmbitEngine] = None,
        observe: Union[bool, Observer] = False,
    ) -> None:
        config = config or PipelineConfig()
        self.config = config
        self.executor = BatchExecutor(
            engine=engine, pipeline=config.pipeline, sanitize=config.sanitize
        )
        self.planner = BatchPlanner(self.executor, config)
        self.cache = self.planner.result_cache
        # Hoisted: `offer` and `serve_batch` read these per request.
        self.max_queue_depth = config.max_queue_depth
        self.max_backlog_ns = config.max_backlog_ns
        self.functional = config.functional
        self.shed_low_priority = config.shed_low_priority
        self.clock_ns = 0.0
        #: One :class:`BatchMetrics` roll-up per served batch, in service
        #: order.  Only the roll-up is kept, so retention stays O(in-flight):
        #: a batch's primitives, operand/result vectors and per-op metrics
        #: are released once its envelopes hold their values.  Hold the
        #: :class:`BatchResult` that :meth:`serve_batch` returns to keep them.
        self.batches: List[BatchMetrics] = []
        #: Called with (this frontend, the envelope) the moment one goes
        #: terminal, after its recording is published; a cluster installs
        #: its part handler here.
        self.on_settled: Optional[Callable[["ServiceFrontend", QueuedRequest], None]] = None
        self._heap: List = []
        self._seq = 0
        self._bank_backlog: Dict = {key: 0.0 for key in self.executor.active_bank_keys()}
        # Unpinned shares not yet added to the bank lanes, in charge order.
        self._pending: List[float] = []
        # The planner's next close instant for the queue as it stands.
        self._close_ns = math.inf
        self.bind_observer(resolve_observe(observe))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def bind_observer(self, obs: Observer) -> None:
        """Adopt an observability plane and push it to the executor."""
        self.obs = obs
        self.executor.bind_observer(obs)
        # The maintenance policy publishes its per-column read counts
        # (``storage.reads.<column>``) to the same plane, so hybrid
        # strategy decisions are inspectable wherever the frontend's
        # metrics land; it never reads them back.
        self.planner.maintenance.bind_observer(obs)

    def _obs_offered(self, queued: QueuedRequest) -> None:
        """Register the request's root span at arrival."""
        queued.trace = RequestSpan(self.obs.tracer, queued)
        self.obs.metrics.counters["frontend.offered"].inc()

    def _obs_admitted(self, queued: QueuedRequest) -> None:
        """Count the admission and refresh the queue gauges."""
        registry = self.obs.metrics
        registry.counters["frontend.admitted"].inc()
        registry.gauges["frontend.queue_depth"].set(float(len(self._heap)))
        registry.gauges["frontend.backlog_ns"].set(self.backlog_ns)

    def _obs_maintenance(self, queued: QueuedRequest, group: LoweredGroup) -> Optional[Tuple]:
        """The ``maintenance`` child's attributes, as ``(key, value)`` pairs
        for the request's span: a write's strategy decisions (per-column
        eager/lazy split, planes charged, invalidations), or the columns a
        read's service window rebuilt; None for neither."""
        outcome = group.write_outcome
        strategy = self.planner.maintenance.strategy
        if outcome is not None:
            columns = ",".join(f"{col}={strat}" for col, strat in sorted(outcome.strategies.items()))
            return (
                ("kind", outcome.request.kind),
                ("strategy", strategy),
                ("columns", columns),
                ("rows_affected", outcome.rows_affected),
                ("planes_charged", outcome.planes_charged),
                ("cache_invalidations", queued.cache_invalidations),
            )
        if group.rebuild_columns:
            return (("kind", "rebuild"), ("strategy", strategy), ("columns", ",".join(group.rebuild_columns)))
        return None

    # ------------------------------------------------------------------
    # Settling: the one door per outcome through which an envelope becomes
    # terminal — where the outcome is stamped, the counts are taken, the
    # request's span is touched and ``on_settled`` is told.  Counters and
    # histograms count every transition that happens while the plane
    # records; a span exists only for a request registered at arrival (a
    # plane bound mid-stream has none for the requests already queued).
    # ------------------------------------------------------------------
    def _settle_rejected(
        self, queued: QueuedRequest, reason: str, left_ns: Optional[float] = None
    ) -> None:
        """Refuse ``queued``: at the door (``left_ns`` None — it was never
        admitted), or at ``left_ns`` when it leaves the queue it was in."""
        queued.admitted = False
        queued.rejected_reason = reason
        if queued.trace is not None:
            queued.trace.touch(None if left_ns is None else (left_ns,))
        if self.obs.enabled:
            counters = self.obs.metrics.counters
            counters["frontend.rejected"].inc()
            counters[f"frontend.rejected.{reason}"].inc()
        if self.on_settled is not None:
            self.on_settled(self, queued)

    def _settle_completed(
        self,
        group: LoweredGroup,
        batch_index: int,
        start_ns: float,
        finish_ns: float,
        own: List[RequestResult],
    ) -> None:
        """Complete a lowered ``group``'s request, served from ``start_ns`` to
        ``finish_ns`` (host merge excluded) as the group's ``own`` results."""
        queued = group.queued
        queued.batch_index = batch_index
        queued.start_ns = start_ns
        queued.finish_ns = finish_ns + group.host_merge_ns
        queued.host_merge_ns = group.host_merge_ns
        queued.metrics = self.planner.group_metrics(group, own)
        queued.value = group.finalize(own)
        queued.add_counts(group)
        if queued.trace is not None:
            queued.trace.touch(self._obs_maintenance(queued, group))
        if self.obs.enabled:
            registry = self.obs.metrics
            registry.counters["frontend.completed"].inc()
            if queued.deadline_missed:
                registry.counters["frontend.deadline_misses"].inc()
            registry.histograms["frontend.wait_ns"].observe(queued.wait_ns)
            registry.histograms["frontend.sojourn_ns"].observe(queued.sojourn_ns)
        if self.on_settled is not None:
            self.on_settled(self, queued)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    check_request = staticmethod(check_frontend_request)

    @property
    def queue_depth(self) -> int:
        """Requests admitted and waiting for a batch."""
        return len(self._heap)

    @property
    def backlog_ns(self) -> float:
        """Modeled queued occupancy of the hottest lane (the admission-binding value)."""
        self._apply_pending()
        return max(self._bank_backlog.values(), default=0.0)

    @property
    def completion_ns(self) -> float:
        """When everything dispatched so far finishes: the clock, extended
        by any in-flight lane horizon a pipelined executor still carries."""
        return max(self.clock_ns, self.executor.horizon_ns())

    def lane_metrics(self, name: str = "lanes") -> LaneMetrics:
        """Per-lane utilization snapshot of the executor's timelines."""
        return self.executor.lane_metrics(name)

    def _banks(self) -> int:
        return max(1, self.executor.banks_available())

    def _inflight_ns(self, key) -> float:
        """In-flight (dispatched, unfinished) time still ahead of one lane.

        Zero for a barrier executor, whose in-service time rides on the
        clock itself; for a pipelined one it is the lane's horizon beyond
        the current clock, so admission occupancy keeps counting work the
        banks have accepted but not yet drained.
        """
        return max(0.0, self.executor.lane_horizon_ns(key) - self.clock_ns)

    def _occupancy_with(self, backlog: Dict, queued: QueuedRequest) -> float:
        """Hottest-lane occupancy if ``queued`` were charged onto ``backlog``.

        Occupancy of a lane is its queued backlog plus its in-flight
        remainder; pinned candidates bind on the hottest lane they would
        touch, unpinned ones on the hottest *bank* lane (host-lane load
        never blocks bank-bound work).
        """
        if queued.modeled_banks:
            return max(
                backlog.get(key, 0.0) + self._inflight_ns(key) + queued.modeled_ns
                for key in queued.modeled_banks
            )
        share = queued.modeled_ns / self._banks()
        hottest = max(
            (
                backlog.get(key, 0.0) + self._inflight_ns(key)
                for key in backlog
                if key != HOST_LANE
            ),
            default=0.0,
        )
        return hottest + share

    def _charge(self, queued: QueuedRequest, sign: float, banks: int = 0) -> None:
        """Charge (``sign`` 1) or release (-1) ``queued``'s load: onto its
        lanes, or pending for every bank lane (``banks``: :meth:`_banks`)."""
        pending = self._pending
        if queued.modeled_banks:
            if pending:
                self._apply_pending()
            self._charge_onto(self._bank_backlog, queued, sign * queued.modeled_ns)
        else:
            pending.append(sign * queued.modeled_ns / (banks or self._banks()))
            if len(pending) >= PENDING_SHARES:
                self._apply_pending()

    def _apply_pending(self) -> None:
        """Add the pending shares to every bank lane, in charge order."""
        pending = self._pending
        if pending:
            backlog = self._bank_backlog
            for key, value in backlog.items():
                if key != HOST_LANE:
                    for share in pending:
                        value += share
                    backlog[key] = value
            pending.clear()

    def _charge_onto(self, backlog: Dict, queued: QueuedRequest, amount: float) -> None:
        """Add ``amount`` of ``queued``'s load to a backlog vector: onto its
        modeled lanes, or spread over the bank lanes when it has none."""
        if queued.modeled_banks:
            for key in queued.modeled_banks:
                backlog[key] = backlog.get(key, 0.0) + amount
        else:
            share = amount / self._banks()
            for key in backlog:
                if key != HOST_LANE:
                    backlog[key] += share

    def _release(self, left: Sequence[QueuedRequest]) -> None:
        """Release requests that ``left`` the queue and recompute its close
        instant; an emptied queue resets the vector (and float drift)."""
        if self._heap:
            banks = self._banks()
            for queued in left:
                self._charge(queued, -1.0, banks)
            self._close_ns = self.planner.next_close_ns(self.queued(), self.clock_ns)
            return
        self._pending.clear()
        for key in self._bank_backlog:
            self._bank_backlog[key] = 0.0
        self._close_ns = math.inf

    # ------------------------------------------------------------------
    # Priority-class load shedding
    # ------------------------------------------------------------------
    def _shed_order(self, candidate_priority: int) -> List[QueuedRequest]:
        """Sheddable queued work: lowest priority class first, youngest first."""
        victims = [q for _, q in self._heap if q.priority < candidate_priority]
        victims.sort(key=lambda q: (q.priority, -q.seq))
        return victims

    def _remove_queued(self, queued: QueuedRequest, reason: str) -> None:
        self._heap = [entry for entry in self._heap if entry[1] is not queued]
        heapq.heapify(self._heap)
        self._release((queued,))
        # The request leaves the system at the shed/cancel instant, not
        # at its arrival.
        self._settle_rejected(queued, reason, left_ns=self.clock_ns)

    def cancel(self, queued: QueuedRequest, reason: str = "cancelled") -> bool:
        """Withdraw a queued, not-yet-served request; True when removed.

        The envelope is marked rejected with ``reason``.  The cluster
        frontend uses this to keep scatter admission all-or-nothing: when
        one shard refuses a sub-request, the siblings already queued on
        other shards are withdrawn instead of running as wasted work.
        """
        if any(entry[1] is queued for entry in self._heap):
            self._remove_queued(queued, reason)
            return True
        return False

    def _plan_occupancy_shed(
        self, candidate: QueuedRequest, pre_evicted: Sequence[QueuedRequest] = ()
    ) -> Optional[List[QueuedRequest]]:
        """Victims (beyond ``pre_evicted``) whose eviction fits ``candidate``.

        Planned against a copy of the backlog vector: returns the victim
        list ([] when the candidate already fits), or None when evicting
        the *entire* lower-priority backlog still would not admit it — in
        which case nothing may be shed (work is never wasted on a doomed
        admission).
        """
        backlog = dict(self._bank_backlog)
        for victim in pre_evicted:
            self._charge_onto(backlog, victim, -victim.modeled_ns)
        chosen: List[QueuedRequest] = []
        for victim in self._shed_order(candidate.priority):
            if any(victim is evicted for evicted in pre_evicted):
                continue
            if self._occupancy_with(backlog, candidate) <= self.max_backlog_ns:
                break
            self._charge_onto(backlog, victim, -victim.modeled_ns)
            chosen.append(victim)
        if self._occupancy_with(backlog, candidate) > self.max_backlog_ns:
            return None
        return chosen

    def offer(
        self,
        request: FrontendRequest,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        arrival_ns: Optional[float] = None,
    ) -> QueuedRequest:
        """Offer one request; returns its envelope (possibly rejected).

        Admission control runs at the request's arrival time against the
        current queue; a rejected envelope has ``admitted=False`` and a
        ``rejected_reason`` and will never be served.
        """
        arrival = checked_arrival(self.clock_ns, arrival_ns, deadline_ns, priority)
        self.check_request(request)
        self.clock_ns = max(self.clock_ns, arrival)
        queued = QueuedRequest(
            request=request,
            arrival_ns=arrival,
            priority=priority,
            deadline_ns=deadline_ns,
            seq=self._seq,
        )
        self._seq += 1
        observe = self.obs.enabled
        if observe:
            self._obs_offered(queued)

        # Depth check first: a queue-full rejection must not pay for the
        # latency model (for scans that is a full host-side evaluation).
        # With shedding on, a lower-priority victim *can* make room — but
        # its eviction is deferred until the whole admission plan (depth
        # plus occupancy) is known to fit, so no victim is ever destroyed
        # for a candidate that is rejected anyway.
        victims: List[QueuedRequest] = []
        if len(self._heap) >= self.max_queue_depth:
            if self.shed_low_priority:
                sheddable = self._shed_order(priority)
                if sheddable:
                    victims.append(sheddable[0])
            if not victims:
                self._settle_rejected(queued, "queue_full")
                return queued
        queued.modeled_ns = self.planner.modeled_latency_ns(request)
        queued.modeled_banks = self.planner.modeled_banks(request)
        if self.max_backlog_ns is not None:
            self._apply_pending()
            extra: Optional[List[QueuedRequest]] = []
            if self.shed_low_priority:
                extra = self._plan_occupancy_shed(queued, pre_evicted=victims)
            elif self._occupancy_with(self._bank_backlog, queued) > self.max_backlog_ns:
                extra = None
            if extra is None:
                self._settle_rejected(queued, "bank_occupancy")
                return queued
            victims.extend(extra)
        for victim in victims:
            self._remove_queued(victim, "shed")
        heapq.heappush(self._heap, (queued.sort_key(), queued))
        window_ns = self.planner.policy.window_ns
        if window_ns is not None:
            self._close_ns = min(self._close_ns, arrival + window_ns)
        if deadline_ns is not None:
            self._close_ns = min(self._close_ns, deadline_ns - queued.modeled_ns)
        self._charge(queued, 1.0)
        if observe:
            self._obs_admitted(queued)
        return queued

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def queued(self) -> List[QueuedRequest]:
        """The admitted requests still waiting for a batch (heap order)."""
        return [q for _, q in self._heap]

    def _dispatch_ready_ns(self) -> float:
        """Earliest instant the *next* batch may be dispatched.

        A pipelined batch dispatches as soon as some bank lane is free
        (:meth:`BatchExecutor.ready_ns`); a batch made entirely of
        host-only work gates on the host lane instead — host work must
        never wait for a bank it will not touch.  Always the current
        clock's past (0) for a barrier executor.
        """
        if not self.executor.pipeline:
            return 0.0
        size = min(self.planner.policy.max_batch, len(self._heap))
        head = heapq.nsmallest(size, self._heap)
        if head and all(q.modeled_banks == [HOST_LANE] for _, q in head):
            return self.executor.lane_horizon_ns(HOST_LANE)
        return self.executor.ready_ns()

    def serve_batch(self) -> Optional[BatchResult]:
        """Close and execute one batch from the queue (None when empty).

        The batch is dispatched at the current clock (lifted, under
        pipelining, to the first instant a bank lane is free).  A barrier
        executor then occupies the clock for the batch makespan; a
        pipelined one leaves the clock at the dispatch instant and lets
        the work ride the lane horizons, so the next batch can dispatch
        onto banks this one never touched — or has already drained.
        Lowered groups report the start of their first primitive and the
        finish of their last (plus any host-side merge the optimizer's
        sub-chain split charges).
        """
        if not self._heap:
            return None
        pipelined = self.executor.pipeline
        if pipelined:
            # Dispatch gate: wait (on the virtual clock) until a lane is free.
            self.clock_ns = max(self.clock_ns, self._dispatch_ready_ns())
        size = min(self.planner.policy.max_batch, len(self._heap))
        closed = [heapq.heappop(self._heap)[1] for _ in range(size)]
        self._release(closed)

        primitives, groups = self.planner.lower_batch(closed)
        batch_start = self.clock_ns
        batch_index = len(self.batches)
        observe = self.obs.enabled
        if observe:
            # Instant marker on the batch row: what planning/optimization
            # did to this batch before it hit the lanes.
            self.obs.tracer.record(
                "plan", "planner", batch_start, batch_start, (self.executor.batches_track(),),
                batch=batch_index,
                requests=len(closed),
                primitives=sum(len(getattr(p, "prices", (p,))) for p in primitives),
                ops_eliminated=sum(g.ops_eliminated for g in groups),
                shared_subchains=sum(g.shared_subchains for g in groups),
            )
        batch = self.executor.run(
            primitives, functional=self.functional, release_ns=batch_start
        )
        # Park the batch's finished bitmaps in the result cache.  This
        # must happen *after* the run (the fill buffers are the lowered
        # chains' output vectors) and rides the optimizer's generation
        # guard: a fill whose column took a write since plan time is
        # bypassed instead of caching a stale bitmap.
        self.planner.commit_cache_fills()
        results = batch.results
        for group in groups:
            if group.refusal:
                self._settle_rejected(group.queued, group.refusal, left_ns=batch_start)
                continue
            # A request's service spans its own steps *plus* any shared
            # steps it consumes (CSE deps bound its finish but are only
            # charged to their owner); the optimizer's host joins extend the
            # finish by the merge tree.
            own = cone = [results[i] for i in group.indices]
            if group.dep_indices:
                cone = own + [results[i] for i in group.dep_indices]
            # Result start times are absolute against the frontend clock
            # (the executor scheduled from ``release_ns``); a request with
            # nothing to run starts and finishes at the dispatch instant.
            start = finish = cone[0].start_ns if cone else batch_start
            for result in cone:
                if result.start_ns < start:
                    start = result.start_ns
                if result.end_ns > finish:
                    finish = result.end_ns
            self._settle_completed(group, batch_index, start, finish, own)
            batch.metrics.add_counts(group)
        if observe:
            registry = self.obs.metrics
            registry.gauges["frontend.queue_depth"].set(float(len(self._heap)))
            registry.gauges["frontend.backlog_ns"].set(self.backlog_ns)
            counters = registry.counters
            if batch.metrics.cache_hits:
                counters["cache.hit"].inc(batch.metrics.cache_hits)
            if batch.metrics.cache_misses:
                counters["cache.miss"].inc(batch.metrics.cache_misses)
            if batch.metrics.cache_invalidations:
                counters["cache.invalidations"].inc(batch.metrics.cache_invalidations)
        if not pipelined:
            self.clock_ns = batch_start + batch.metrics.latency_ns
        self.batches.append(batch.metrics)
        return batch

    def drain(self) -> None:
        """Serve batches until the queue is empty, then ride out the lanes.

        On return the clock sits at the completion horizon, so a reused
        frontend starts its next stream against an idle executor exactly
        as a barrier one would.
        """
        while self._heap:
            self.serve_batch()
        self.clock_ns = max(self.clock_ns, self.executor.horizon_ns())

    def advance_to(self, until_ns: float) -> None:
        """Advance the virtual clock towards ``until_ns``, serving batches.

        Serves every batch the policy closes strictly before ``until_ns``,
        then stops so a pending arrival at ``until_ns`` can be admitted
        against the live queue.  With a barrier executor the clock may
        overshoot by an in-flight batch's makespan (service is
        batch-synchronous); a pipelined executor instead gates dispatch
        on :meth:`BatchExecutor.ready_ns` — a batch closes as soon as
        some bank lane is free, not when the whole previous batch has
        drained.  The clock is *not* lifted to ``until_ns``;
        :meth:`offer` does that at arrival.  Driven by a session (before
        each arrival) and by the cluster frontend.
        """
        max_batch = self.planner.policy.max_batch
        while self._heap and self.clock_ns < until_ns:
            # BatchPlanner.should_close, on the kept close instant.
            if len(self._heap) >= max_batch or self._close_ns <= self.clock_ns:
                ready = self._dispatch_ready_ns()
                if ready > self.clock_ns:
                    # Every lane the next batch would use is busy: the
                    # next dispatch instant is when the first one drains.
                    if ready >= until_ns:
                        break
                    self.clock_ns = ready
                    continue
                self.serve_batch()
                continue
            # Sleep until the policy's next closing instant (window expiry /
            # the last moment a queued deadline can still start on time).
            wake = self._close_ns
            if wake >= until_ns:
                break
            self.clock_ns = wake

    def result(self, name: str = "frontend") -> None:
        """Does nothing: a stream's roll-up is :meth:`PimSession.report`.
        Kept only because the frozen ``perf/tracing.py`` wraps it by name
        (ROADMAP item 1(a) removes it)."""
