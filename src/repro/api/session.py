"""``PimSession``: one submit/future surface over every execution tier.

A session is the one way to submit a query: the same loop runs "the same
workload" against the single-device service tier, the sharded cluster
tier, or the serial host baseline::

    session = PimSession.over_cluster(num_shards=4)   # or .over_service()
    f1 = session.scan(column, "between", 10, 99, priority=1)
    f2 = session.conjunction(index, [("region", (1, 2)), ("status", (0,))])
    f3 = session.range_count(column, 32, 57)
    response = f1.result()          # drains the backend if needed
    print(response.matching_rows, response.latency_ns, response.details)
    print(session.report())         # unified SessionReport, any tier

* **Requests are the one vocabulary**: :meth:`~PimSession.submit` takes
  the :mod:`repro.service.requests` / :mod:`repro.storage.requests`
  dataclasses, and the declarative constructors
  (:meth:`~PimSession.scan`, :meth:`~PimSession.conjunction`,
  :meth:`~PimSession.range_count`, ...) are sugar that builds one and
  submits it at the session's virtual clock.
* **Futures** wrap the backend's envelope: ``done()``, ``status``,
  ``result()`` (which virtually blocks — it drains the backend), and the
  per-request timing surface.
* **One Response shape** regardless of tier: value bits, matching rows,
  scan + host-epilogue latency/energy, queueing timestamps, and a typed
  ``details`` field carrying the tier-specific extras
  (:class:`ServiceDetails` / :class:`ClusterDetails` /
  :class:`HostDetails`).
* **Windowed reporting**: a session snapshots its backend at
  construction and :meth:`~PimSession.report` summarizes only *its own*
  traffic, so several sessions can share one long-lived backend without
  folding each other's requests into their reports.

A session works over anything speaking the
:class:`~repro.api.backends.Backend` protocol; bit-exactness of the same
workload across tiers is pinned by ``tests/test_api_session.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.metrics import (
    ClusterMetrics,
    PlanCounts,
    QueueMetrics,
    summarize_envelopes,
)
from repro.ambit.engine import AmbitEngine
from repro.api.backends import Backend, HostBackend
from repro.cluster.faults import FaultPlan
from repro.cluster.frontend import FAILURE_REASONS, ClusterFrontend
from repro.cluster.router import ShardRouter
from repro.database.bitmap_index import BitmapIndex
from repro.database.queries import QueryEngine
from repro.obs import NULL_OBSERVER, Observer, resolve_observe
from repro.service.config import PipelineConfig
from repro.service.frontend import ArrivalEvent, ServiceFrontend, replay
from repro.service.requests import (
    BitmapConjunctionRequest,
    ScanRequest,
    checked_arrival,
)
from repro.storage.requests import (
    AppendRequest,
    DeleteRequest,
    UpdateRequest,
    is_write_request,
)


class RequestRejected(RuntimeError):
    """Raised by :meth:`Future.result` when admission refused the request.

    Attributes:
        reason: The backend's ``rejected_reason`` (``"queue_full"``,
            ``"bank_occupancy"``, ``"shed"``, ``"cancelled"``, ...).
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"request rejected by admission control ({reason})")
        self.reason = reason


class RequestFailed(RequestRejected):
    """Raised when the request was lost to an infrastructure failure
    rather than refused by admission control.  Subclasses
    :class:`RequestRejected` so existing ``except RequestRejected``
    handlers keep working, but lets fault-aware callers distinguish
    "the system said no" from "the system broke"."""

    def __init__(self, reason: str) -> None:
        RuntimeError.__init__(self, f"request failed ({reason})")
        self.reason = reason


class ShardUnavailable(RequestFailed):
    """Raised when a request was stranded because no routable replica
    could absorb it: the shard holding its data died, drained, or was
    retired with nowhere to re-offer the work (``"shard_failed"``,
    ``"shard_unavailable"``, ``"shard_retired"``)."""


def _rejection(reason: str) -> RequestRejected:
    """Typed outcome for an unadmitted record: failure reasons from the
    cluster's fault path map to :class:`ShardUnavailable`, everything
    else stays a plain admission :class:`RequestRejected`."""
    if reason in FAILURE_REASONS:
        return ShardUnavailable(reason)
    return RequestRejected(reason)


# ----------------------------------------------------------------------
# Tier-specific response details
# ----------------------------------------------------------------------
@dataclass
class ServiceDetails(PlanCounts):
    """Service-tier extras: which batch served the request, what the
    admission model charged for it, and (the inherited
    :class:`~repro.analysis.metrics.PlanCounts`) how the plan optimizer
    and the result cache treated it."""

    batch_index: int
    modeled_ns: float
    modeled_banks: Tuple = ()


@dataclass
class ClusterDetails(PlanCounts):
    """Cluster-tier extras: where the request ran, what the gather cost,
    and (the inherited :class:`~repro.analysis.metrics.PlanCounts`) how
    the shard-local optimizers and result caches treated it."""

    shard_ids: Tuple[int, ...]
    fanout: int
    host_merge_ns: float
    failovers: int = 0


@dataclass(frozen=True)
class HostDetails:
    """Host-tier extras (none: a single core has no placement to report)."""


ResponseDetails = Union[ServiceDetails, ClusterDetails, HostDetails]


@dataclass
class Response:
    """The unified outcome of one session request, identical across tiers.

    The per-request fields live here, the per-stream roll-up in
    :class:`SessionReport`.

    Attributes:
        kind: What was asked (``"scan"``, ``"range_count"``,
            ``"conjunction"``, a write — ``"append"`` / ``"update"`` /
            ``"delete"`` — or ``"request"`` for raw primitives).
        status: ``"completed"`` or ``"rejected"``.
        value: The packed result bitmap (None when rejected, or for
            requests without a bitmap result).  A conjunction's is
            **read-only** on the service and cluster tiers — a repeated
            question shares one array, across batches too, until a write
            touches its columns — so writing through it raises
            ``ValueError``; ``np.array(value)`` is a private, writable copy.
        matching_rows: COUNT(*) of the predicate (None when not a query).
        latency_ns: Scan service latency plus the host epilogue
            (popcount + materialization) — the end-to-end query latency.
        energy_j: Scan plus epilogue energy.
        breakdown: Latency components (``scan_ns`` / ``epilogue_ns``).
        arrival_ns / start_ns / finish_ns: Queueing timestamps on the
            backend's virtual clock (NaN when rejected).
        wait_ns / sojourn_ns: Arrival-to-start / arrival-to-finish.
        deadline_missed: True when service finished past the deadline.
        rejected_reason: Why admission refused it ("" when completed).
        details: Tier-specific extras (typed by backend tier).
        trace: Root :class:`repro.obs.Span` of the request's lifecycle
            when the backend's observability plane was recording
            (``observe=True``); None otherwise.
    """

    kind: str
    status: str
    value: Any = None
    matching_rows: Optional[int] = None
    latency_ns: float = 0.0
    energy_j: float = 0.0
    breakdown: Dict[str, float] = field(default_factory=dict)
    arrival_ns: float = math.nan
    start_ns: float = math.nan
    finish_ns: float = math.nan
    wait_ns: float = math.nan
    sojourn_ns: float = math.nan
    deadline_missed: bool = False
    rejected_reason: str = ""
    details: ResponseDetails = field(default_factory=HostDetails)
    trace: Any = field(default=None, repr=False, compare=False)

    @property
    def completed(self) -> bool:
        """True when the request finished service."""
        return self.status == "completed"


class Future:
    """Handle to one submitted request.

    Cheap to hold, lazy to resolve: the backend simulates in virtual
    time, so :meth:`result` "blocks" by draining the session's backend
    and then materializes the unified :class:`Response`.

    Attributes:
        request: The request the backend queued.
        record: The backend's envelope (a
            :class:`~repro.service.requests.RequestEnvelope`; the
            cluster tier's adds the scatter parts).
    """

    def __init__(
        self, session: "PimSession", request: Any, record: Any, kind: str
    ) -> None:
        self._session = session
        self.request = request
        self.record = record
        self.kind = kind
        self._response: Optional[Response] = None

    def done(self) -> bool:
        """True once the record is completed — its ``finish_ns``, ``value``
        and ``metrics`` are stamped (never for rejected ones)."""
        return bool(self.record.completed)

    @property
    def status(self) -> str:
        """``"queued"``, ``"completed"``, or ``"rejected"``."""
        if not self.record.admitted:
            return "rejected"
        return "completed" if self.record.completed else "queued"

    @property
    def metrics(self) -> Any:
        """The backend-charged service cost (None before service)."""
        return self.record.metrics

    @property
    def wait_ns(self) -> float:
        """Arrival to service start (NaN before service)."""
        return self.record.wait_ns

    @property
    def sojourn_ns(self) -> float:
        """Arrival to completion (NaN before service)."""
        return self.record.sojourn_ns

    @property
    def trace(self) -> Any:
        """Root :class:`repro.obs.Span` of this request's lifecycle, or
        None unless the backend records with ``observe=True``."""
        return self.record.trace

    def result(self) -> Response:
        """The unified response; drains the backend when still queued.

        Raises:
            RequestRejected: When admission refused the request — at the
                door, by load shedding, or by an all-or-nothing scatter.
            ShardUnavailable: When an infrastructure failure stranded it
                — the shard holding its data died or was retired with no
                routable replica to absorb the re-offer.
        """
        if self._response is not None and self._response.completed:
            return self._response
        if not self.record.admitted:
            raise _rejection(self.record.rejected_reason)
        if not self.record.completed:
            self._session.drain()
        if not self.record.admitted:  # e.g. shed or cancelled while queued
            raise _rejection(self.record.rejected_reason)
        if not self.record.completed:
            raise RuntimeError("request did not complete after drain")
        self._response = self._session._build_response(self)
        return self._response

    def response(self) -> Response:
        """Like :meth:`result`, but rejections return a ``"rejected"``
        response instead of raising."""
        try:
            return self.result()
        except RequestRejected:
            return Response(
                kind=self.kind,
                status="rejected",
                rejected_reason=self.record.rejected_reason,
                arrival_ns=self.record.arrival_ns,
                details=self._session._details_for(self.record),
                trace=self.trace,
            )


@lru_cache(maxsize=None)
def _metric_surface(metrics: type) -> frozenset[str]:
    """What a report delegates to tier metrics of class ``metrics``: every
    dataclass field and every derived rate, inherited ones included."""
    rates = {name for name in dir(metrics) if isinstance(getattr(metrics, name), property)}
    return frozenset(f.name for f in fields(metrics)) | rates


@dataclass
class SessionReport:
    """The unified per-stream roll-up, identical in shape across tiers.

    The whole :class:`~repro.analysis.metrics.QueueMetrics` surface
    (counts, percentiles, makespan, busy time, batches, serial latency,
    energy, plan counts, the derived rates) reads directly off the report
    on every tier; the metrics object itself stays available in
    ``details`` — a plain ``QueueMetrics`` for the service and host
    tiers, its subclass :class:`~repro.analysis.metrics.ClusterMetrics`
    for the cluster, whose own fields (utilization, imbalance, fan-out,
    elastic counts, per-shard summaries) read off a cluster report the
    same way and raise ``AttributeError`` off the others.

    Attributes:
        name: Label of the report.
        tier: ``"service"``, ``"cluster"``, or ``"host"``.
        requests: Futures this session submitted.
        details: The underlying tier metrics object.
        obs: Metrics-registry snapshot
            (``{"counters", "gauges", "histograms"}``) when the session's
            observability plane is recording; None otherwise.  Note the
            registry is plane-wide: a shared backend accumulates across
            sessions, unlike the windowed fields above.
    """

    name: str
    tier: str
    requests: int
    details: QueueMetrics
    obs: Optional[Dict[str, Any]] = None

    def __getattr__(self, item: str) -> Any:
        # Delegate the tier metrics' surface; keeps one report shape
        # without duplicating the fields.  ``details`` is read off the
        # instance dict: copy/pickle probe a half-built instance, and
        # ``self.details`` would recurse there.
        details = self.__dict__.get("details")
        if details is not None and item in _metric_surface(type(details)):
            return getattr(details, item)
        raise AttributeError(item)


class PimSession:
    """One submit/future client surface over any :class:`Backend`.

    Args:
        backend: The execution tier — a
            :class:`~repro.service.frontend.ServiceFrontend`, a
            :class:`~repro.cluster.frontend.ClusterFrontend`, or a
            :class:`~repro.api.backends.HostBackend` (anything speaking
            the protocol).
        coster: Host-side query cost model for the epilogue (popcount +
            materialization).  Defaults to a :class:`QueryEngine` sharing
            the backend's engine, so session responses price epilogues
            exactly as :meth:`QueryEngine.execute_scan` does.
        name: Default label of this session's reports.
        observe: Observability plane (``repro.obs``): ``True`` binds a
            fresh recording :class:`~repro.obs.Observer` to the backend
            (span trees per request, counters/histograms in
            ``report().obs``); an observer shares a plane.  ``False``
            (the default) adopts whatever plane the backend already
            carries, so ``PimSession.over_service(observe=True)`` — handed
            to the frontend — also lights up the session surface.  The
            host backend has no spans (it executes immediately); a session
            over it records nothing.
    """

    def __init__(
        self,
        backend: Backend,
        coster: Optional[QueryEngine] = None,
        name: str = "session",
        observe: Union[bool, Observer] = False,
    ) -> None:
        self.backend = backend
        self.name = name
        self.tier = self._tier_of(backend)
        if observe is False:
            self.obs = getattr(backend, "obs", NULL_OBSERVER)
        else:
            self.obs = resolve_observe(observe)
            binder = getattr(backend, "bind_observer", None)
            if binder is not None:
                binder(self.obs)
        self.futures: List[Future] = []
        self._check_request = getattr(backend, "check_request", None)
        self._coster = coster or self._default_coster()
        # Host epilogue (latency_ns, energy_j) per (num_rows, matching):
        # a stream of few templates prices each of its pairs once.  At
        # most one small entry per response the session already holds.
        self._epilogues: Dict[Tuple[int, int], Tuple[float, float]] = {}
        # Window snapshot: report() covers only this session's traffic.
        self._clock0 = backend.clock_ns
        if self.tier == "cluster":
            # Per-shard window origins: never before the session itself
            # (an idle shard's clock lags the cluster), never before the
            # shard's own clock (it may be mid-batch past the origin).
            self._shard_clock0 = [
                max(s.clock_ns, self._clock0) for s in backend.shards
            ]

    # ------------------------------------------------------------------
    # Construction conveniences
    # ------------------------------------------------------------------
    @classmethod
    def over_service(
        cls,
        engine: Optional[AmbitEngine] = None,
        coster: Optional[QueryEngine] = None,
        name: str = "service_session",
        observe: Union[bool, Observer] = False,
        **knobs: Any,
    ) -> "PimSession":
        """A session over a fresh single-device :class:`ServiceFrontend`.

        ``engine`` is the :class:`~repro.ambit.engine.AmbitEngine` to
        execute on (a vectorized default is built when omitted) and
        ``observe`` the frontend's observability plane (the session
        adopts it).  ``knobs`` are the fields of
        :class:`~repro.service.config.PipelineConfig` — the same keywords
        on both tiers — in the loose spellings
        :meth:`~repro.service.config.PipelineConfig.from_knobs` accepts
        (``optimize=True``, ``cache=True``, ``maintenance="hybrid"``).
        """
        frontend = ServiceFrontend(
            PipelineConfig.from_knobs(**knobs), engine=engine, observe=observe
        )
        return cls(frontend, coster=coster, name=name)

    @classmethod
    def over_cluster(
        cls,
        num_shards: int = 2,
        coster: Optional[QueryEngine] = None,
        name: str = "cluster_session",
        router: Optional[ShardRouter] = None,
        engine_factory: Optional[Callable[[], AmbitEngine]] = None,
        observe: Union[bool, Observer] = False,
        faults: Optional[FaultPlan] = None,
        **knobs: Any,
    ) -> "PimSession":
        """A session over a fresh N-shard :class:`ClusterFrontend`.

        The named arguments are the cluster's topology (see
        :class:`~repro.cluster.frontend.ClusterFrontend`); ``knobs`` are
        the per-shard pipeline knobs, exactly as for :meth:`over_service`.
        """
        cluster = ClusterFrontend(
            num_shards,
            PipelineConfig.from_knobs(**knobs),
            router=router,
            engine_factory=engine_factory,
            observe=observe,
            faults=faults,
        )
        return cls(cluster, coster=coster, name=name)

    @classmethod
    def over_host(
        cls, coster: Optional[QueryEngine] = None, name: str = "host_session"
    ) -> "PimSession":
        """A session over the serial host-CPU baseline backend."""
        return cls(HostBackend(coster=coster), coster=coster, name=name)

    # ------------------------------------------------------------------
    # Declarative constructors
    # ------------------------------------------------------------------
    def scan(
        self,
        column,
        kind: str,
        *constants: int,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit one BitWeaving predicate scan; returns its future."""
        request = ScanRequest(column=column, kind=kind, constants=tuple(constants))
        return self._submit(request, "scan", priority, deadline_ns, at_ns)

    def range_count(
        self,
        column,
        low: int,
        high: int,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit ``SELECT COUNT(*) WHERE low <= col <= high``."""
        request = ScanRequest(column=column, kind="between", constants=(low, high))
        return self._submit(request, "range_count", priority, deadline_ns, at_ns)

    def conjunction(
        self,
        index,
        predicates: Sequence[Tuple[str, Sequence[int]]],
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit a bitmap-index conjunction of per-column ``IN`` predicates."""
        request = BitmapConjunctionRequest(index=index, predicates=tuple(predicates))
        return self._submit(request, "conjunction", priority, deadline_ns, at_ns)

    def append(
        self,
        table,
        index,
        rows,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit a row append; the response value is rows appended."""
        request = AppendRequest(table=table, index=index, rows=rows)
        return self._submit(request, "append", priority, deadline_ns, at_ns)

    def update(
        self,
        table,
        index,
        column: str,
        row_ids: Sequence[int],
        values: Sequence[int],
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit ``column[row_ids] = values``; the response value is rows
        overwritten.  Row ids must be unique within one update."""
        request = UpdateRequest(
            table=table,
            index=index,
            column=column,
            row_ids=tuple(row_ids),
            values=tuple(values),
        )
        return self._submit(request, "update", priority, deadline_ns, at_ns)

    def delete(
        self,
        table,
        index,
        row_ids: Sequence[int],
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit a physical row deletion; the response value is rows
        removed (rows after them renumber down)."""
        request = DeleteRequest(table=table, index=index, row_ids=tuple(row_ids))
        return self._submit(request, "delete", priority, deadline_ns, at_ns)

    def submit(
        self,
        work,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        at_ns: Optional[float] = None,
    ) -> Future:
        """Submit any frontend request (the shape arrival schedulers
        produce); it reaches the backend untouched, so its cached
        evaluations are preserved."""
        if isinstance(work, BitmapConjunctionRequest):
            kind = "conjunction"
        elif isinstance(work, ScanRequest):
            kind = "scan"
        elif is_write_request(work):
            kind = work.kind
        else:
            kind = "request"
        return self._submit(work, kind, priority, deadline_ns, at_ns)

    def submit_stream(self, events: Iterable[ArrivalEvent]) -> List[Future]:
        """Submit a whole arrival stream; futures come back in event order.

        Arrivals are processed in virtual-time order (the backend serves
        whatever its policy closes between them), exactly like the
        frontends' own ``run`` loops.
        """
        return replay(
            events,
            lambda event: self.submit(
                event.request,
                priority=event.priority,
                deadline_ns=event.deadline_ns,
                at_ns=event.arrival_ns,
            ),
        )

    # ------------------------------------------------------------------
    # Clock and lifecycle
    # ------------------------------------------------------------------
    @property
    def clock_ns(self) -> float:
        """The backend's virtual clock."""
        return self.backend.clock_ns

    def advance_to(self, until_ns: float) -> None:
        """Advance the backend's clock towards ``until_ns``, serving work."""
        self.backend.advance_to(until_ns)

    def drain(self) -> None:
        """Serve everything queued (futures become resolvable)."""
        self.backend.drain()

    def close(self) -> None:
        """Drain the backend and hand pooled device rows back.

        Call when the session owns a one-shot backend; a shared backend
        should instead be closed by whoever owns it.
        """
        self.drain()
        for executor in self._executors():
            executor.pool.drain()

    def responses(self) -> List[Response]:
        """Every future's response, submission order (rejections included)."""
        self.drain()
        return [future.response() for future in self.futures]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, name: Optional[str] = None) -> SessionReport:
        """Summarize this session's own traffic into a unified report.

        Both ends of the window are the session's own: the start is the
        backend clock at construction, and — once every future is
        terminal — the end is the last own completion (for the service
        and host tiers, busy time and batch counts come from the batches
        that served *this session's* requests).  Traffic other sessions
        push through a shared backend before or after therefore never
        leaks into the time-based fields, matching the counts.
        """
        label = name or self.name
        records = [future.record for future in self.futures]
        if self.tier == "cluster":
            parts_by_shard: Dict[int, List] = {}
            for record in records:
                for shard_id, part in zip(record.shard_ids, record.parts):
                    parts_by_shard.setdefault(shard_id, []).append(part)
            per_shard = [
                self._shard_window(f"{label}/shard{i}", shard, parts_by_shard.get(i, []), i)
                for i, shard in enumerate(self.backend.shards)
            ]
            metrics: QueueMetrics = ClusterMetrics.from_records(
                label,
                records,
                per_shard,
                clock_offset=self._clock0,
                # Failover/scale accounting is cluster-lifetime, not
                # windowed: shard deaths reshape every session's traffic.
                elastic=self.backend.elastic_summary(),
            )
        else:
            # Mid-stream the window covers the in-flight lane horizon, not
            # just the dispatch clock — a pipelined backend's clock lags
            # completions.
            live_ns = getattr(self.backend, "completion_ns", self.backend.clock_ns)
            metrics = self._window(label, records, self.backend, self._clock0, live_ns)
        return SessionReport(
            name=label,
            tier=self.tier,
            requests=len(self.futures),
            details=metrics,
            # A report, not a decision: the one place the plane is read.
            obs=self.obs.snapshot() if self.obs.enabled else None,  # lint: allow[obs-readback]
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _tier_of(backend: Backend) -> str:
        if hasattr(backend, "shards"):
            return "cluster"
        if isinstance(backend, HostBackend):
            return "host"
        return "service"

    def _default_coster(self) -> QueryEngine:
        if self.tier == "host":
            return self.backend.coster
        if self.tier == "cluster":
            return QueryEngine(ambit=self.backend.shards[0].executor.engine)
        return QueryEngine(ambit=self.backend.executor.engine)

    def _executors(self) -> List[Any]:
        if self.tier == "cluster":
            return [shard.executor for shard in self.backend.shards]
        if self.tier == "service":
            return [self.backend.executor]
        return []

    # -- Session-window accounting -------------------------------------
    #
    # Both window ends belong to the session: makespan runs from the
    # construction-time clock to the last own completion (falling back to
    # the live clock while futures are still queued), and busy time /
    # batch counts are attributed through the batches that actually
    # served this session's requests (shared batches split by
    # serial-latency share) — so a shared backend's other traffic never
    # leaks into the time-based fields.

    def _window(
        self, label: str, records: Sequence[Any], frontend: Any, clock0: float, live_ns: float
    ) -> QueueMetrics:
        """``frontend``'s queueing summary over this session's own
        envelopes on it: the window opens at ``clock0`` and closes at the
        last own completion — at ``live_ns`` while any is still queued."""
        summary, completed = summarize_envelopes(records)
        if records and summary["rejected"] + summary["completed"] == summary["offered"]:
            # Every own envelope is terminal.
            makespan = max((r.finish_ns - clock0 for r in completed), default=0.0)
        else:
            makespan = live_ns - clock0
        if self.tier == "host":  # every request is its own "batch"
            busy, batches = summary["serial_latency_ns"], summary["completed"]
        else:
            busy, batches = self._batch_share(frontend, completed)
        return QueueMetrics(
            name=label, makespan_ns=makespan, busy_ns=busy, batches=batches, **summary
        )

    @staticmethod
    def _batch_share(frontend: Any, completed: Sequence[Any]) -> Tuple[float, int]:
        """Executor busy time attributed to the batches that served
        ``completed``, and how many batches those are.

        A batch that also served another session's requests is split by
        serial-latency share, so concurrently interleaved sessions over
        one backend sum to the backend's actual busy time instead of each
        counting the shared batch in full.  Each batch contributes its
        overlap-aware device-busy time (:attr:`BatchMetrics.busy_ns`):
        under lane pipelining that is the busy-union the batch *added*,
        so completion time a batch spent overlapped with its predecessor
        on other banks is never double-counted; for a batch-synchronous
        backend it is exactly the batch makespan.
        """
        own_serial: Dict[int, float] = {}
        for record in completed:
            if 0 <= record.batch_index < len(frontend.batches):
                own_serial[record.batch_index] = (
                    own_serial.get(record.batch_index, 0.0) + record.metrics.latency_ns
                )
        busy = 0.0
        for index, serial in own_serial.items():
            batch = frontend.batches[index]
            if batch.serial_latency_ns > 0:
                busy += batch.busy_ns * min(1.0, serial / batch.serial_latency_ns)
        return busy, len(own_serial)

    def _shard_window(self, label: str, shard, own_parts, shard_id: int) -> QueueMetrics:
        """One shard's queueing summary over this session's own parts."""
        # Shards joined elastically after the session opened have no
        # recorded origin; their window starts at the session's own.
        clock0 = (
            self._shard_clock0[shard_id]
            if shard_id < len(self._shard_clock0)
            else self._clock0
        )
        # A shard none of this session's work touched has an empty window.
        live_ns = shard.completion_ns if own_parts else clock0
        return self._window(label, own_parts, shard, clock0, live_ns)

    def _submit(self, request, kind, priority, deadline_ns, at_ns) -> Future:
        # Validated before the clock advances: a rejected stamp — or a
        # request the backend says it cannot serve — must leave the
        # backend untouched.
        arrival = checked_arrival(self.backend.clock_ns, at_ns, deadline_ns)
        if self._check_request is not None:
            self._check_request(request)
        # Serve whatever the policy closes before this arrival, so
        # admission sees the live queue — identical to the frontends'
        # own run() loops.
        self.backend.advance_to(arrival)
        record = self.backend.offer(
            request, priority=priority, deadline_ns=deadline_ns, arrival_ns=arrival
        )
        if self.obs.enabled and record.trace is not None:
            record.trace.set(submitted=kind, session=self.name)
        future = Future(self, request, record, kind)
        self.futures.append(future)
        return future

    def _details_for(self, record) -> ResponseDetails:
        if self.tier == "host":
            return HostDetails()
        details: Union[ServiceDetails, ClusterDetails]
        if self.tier == "cluster":
            details = ClusterDetails(
                shard_ids=tuple(record.shard_ids),
                fanout=record.fanout,
                host_merge_ns=record.host_merge_ns,
                failovers=record.failovers,
            )
        else:
            details = ServiceDetails(
                batch_index=record.batch_index,
                modeled_ns=record.modeled_ns,
                modeled_banks=tuple(record.modeled_banks),
            )
        details.add_counts(record)
        return details

    def _build_response(self, future: Future) -> Response:
        record = future.record
        scan = record.metrics
        value = record.value
        matching: Optional[int] = None
        epilogue_ns = 0.0
        epilogue_j = 0.0
        # Only a query's value is a result bitmap with rows to count (a
        # write's is rows affected, a raw primitive's an operand vector).
        request = future.request
        num_rows: Optional[int] = None
        if isinstance(request, ScanRequest):
            num_rows = request.column.num_rows
        elif isinstance(request, BitmapConjunctionRequest):
            num_rows = request.index.num_rows
        if num_rows is not None and value is not None:
            matching = BitmapIndex.count(value, num_rows)
            priced = self._epilogues.get((num_rows, matching))
            if priced is None:
                epilogue = self._coster.epilogue_cost(num_rows, matching)
                priced = self._epilogues[num_rows, matching] = (
                    epilogue.latency_ns,
                    epilogue.energy_j,
                )
            epilogue_ns, epilogue_j = priced
        return Response(
            kind=future.kind,
            status="completed",
            value=value,
            matching_rows=matching,
            latency_ns=scan.latency_ns + epilogue_ns,
            energy_j=scan.energy_j + epilogue_j,
            breakdown={"scan_ns": scan.latency_ns, "epilogue_ns": epilogue_ns},
            arrival_ns=record.arrival_ns,
            start_ns=record.start_ns,
            finish_ns=record.finish_ns,
            wait_ns=record.wait_ns,
            sojourn_ns=record.sojourn_ns,
            deadline_missed=record.deadline_missed,
            details=self._details_for(record),
            trace=record.trace,
        )
