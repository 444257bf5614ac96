"""The scatter-gather cluster frontend over N shard executors.

:class:`ClusterFrontend` turns the single-device service pipeline
(frontend → planner → executor) into a multi-shard cluster: one
:class:`~repro.service.frontend.ServiceFrontend` — with its own
:class:`~repro.service.executor.BatchExecutor` over its own
:class:`~repro.ambit.engine.AmbitEngine`-backed device — per shard, an
admission story inherited wholesale from the per-shard frontends, and a
router (:class:`~repro.cluster.router.ShardRouter`) deciding where data
lives.

**Routing.**  A predicate scan has column affinity: it goes to the shard
holding its column's planes — or, for a replicated hot column, to the
*least-loaded* replica, measured by the per-shard backlog vector
(:meth:`shard_load`: remaining in-service time plus the shard's queued
hottest-bank backlog).  Work with no affinity (bulk ops over host
vectors, copies) goes wherever the backlog is smallest, which is what
rebalances the cluster under skew.

**Scatter-gather.**  A :class:`~repro.service.requests
.BitmapConjunctionRequest` whose predicate columns live on different
shards is *scattered*: each shard gets a sub-conjunction over its own
:class:`~repro.database.sharding.BitmapIndexShardView` (lowered and
executed entirely shard-locally), and the gather path merges the partial
bitmaps host-side with bitwise ANDs — bit-exact with single-device
evaluation, because every predicate is applied exactly once.  A scatter
is all-or-nothing, at the door and after it: the instant any part is lost
— refused at admission, shed or cancelled while queued, its failover
replacement refused — the siblings are withdrawn
(:meth:`ServiceFrontend.cancel`) and the cluster record is rejected; the
instant its last part completes, the record is gathered.  Each shard
reports its settled envelopes as they happen
(:attr:`ServiceFrontend.on_settled`); nothing polls.

**Virtual time.**  Every shard runs its own virtual clock; the cluster
drives them together: arrivals are processed in global order, each shard
serves whatever batches its policy closes before the next arrival, and
routing decisions read the shard loads *at the arrival instant*.

**Configuration.**  Every shard — initial or joined — is built from the
cluster's one :class:`~repro.service.config.PipelineConfig`, where the
per-shard knobs are declared; the constructor takes only the topology.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.ambit.engine import AmbitEngine
from repro.analysis.metrics import ElasticCounts, combine_serial
from repro.cluster.faults import FaultPlan
from repro.cluster.router import PlacementUnavailable, ShardRouter, check_count
from repro.database.bitmap_index import BitmapIndex
from repro.database.sharding import BitmapIndexShardView
from repro.obs import DerivedSpan, Observer, resolve_observe
from repro.service.config import MERGE_TREE_NS, PipelineConfig
from repro.service.frontend import ServiceFrontend, check_frontend_request
from repro.service.planner import CHAIN_INTERN_CAPACITY, AnswerSlot
from repro.service.requests import (
    BitmapConjunctionRequest,
    CopyRequest,
    FrontendRequest,
    QueuedRequest,
    RequestEnvelope,
    ScanRequest,
    checked_arrival,
)
from repro.storage.requests import WriteRequest, charged_columns, is_write_request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.controller import ElasticController

#: ``rejected_reason`` values that mean infrastructure failure (a shard
#: died or no replica holds the data), not admission-control refusal.
#: :meth:`repro.api.session.Future.result` maps these to the typed
#: :class:`~repro.api.session.ShardUnavailable` outcome.
FAILURE_REASONS = frozenset({"shard_failed", "shard_unavailable", "shard_retired"})


@dataclass(slots=True)
class ClusterRecord(RequestEnvelope):
    """Envelope of one cluster-level request across its shard parts.

    A request that scatters over G shards has G ``parts`` (one per-shard
    :class:`~repro.service.requests.QueuedRequest`); a routed scan has
    one.  The shared envelope fields read at cluster level: ``admitted``
    is False once any part was refused or lost, ``start_ns`` is the first
    part's service start and ``finish_ns`` the last part's finish plus
    the gather merge, ``value`` is the gathered result (merged partial
    bitmaps for a scattered conjunction; the part's own value otherwise),
    ``metrics`` the serial device cost across the parts and the plan
    counts the sum of the parts' (plus, for a write, the cache entries
    the coordinator invalidated).  The
    gather-side AND-merges are host work, tallied in ``host_merge_ns``
    (and :attr:`ClusterMetrics.merge_ops`) rather than in ``metrics``;
    shard-local host merges (the plan optimizer's sub-chain joins) are
    already inside each part's finish.

    A gathered conjunction answer is shared and read-only: records asking
    the same predicates over the same index at one write generation carry
    the one array (copy it before writing).  Once merged, the parts drop
    their partial bitmaps; a single part's value is the record's answer.

    Attributes:
        shard_ids: Shards the request was routed/scattered to.
        parts: Per-shard sub-request envelopes, aligned with shard_ids.
    """

    shard_ids: List[int] = field(default_factory=list)
    parts: List[QueuedRequest] = field(default_factory=list)
    #: Rows the coordinator's functional mutation touched (write requests
    #: only; the authoritative gather value — charge-only scatter parts
    #: report pre-deduplication estimates).
    rows_affected: Optional[int] = None
    #: Times any part of this record was re-offered off a failed or
    #: draining shard (0 for requests untouched by faults).
    failovers: int = 0
    #: The cancelled originals of re-offered parts, in migration order
    #: (the live replacements sit in :attr:`parts`); audit trail for the
    #: conservation property — nothing is dropped, only re-homed.
    migrated_parts: List[QueuedRequest] = field(default_factory=list)
    #: The index's write generation over a conjunction's columns when it
    #: was offered, before any part lowered (None for other requests).
    generation: Optional[int] = None

    @property
    def fanout(self) -> int:
        """Shards this request touched."""
        return len(self.shard_ids)

    @property
    def merge_ops(self) -> int:
        """Host-side bitwise merges gathering this request's parts takes."""
        return max(0, len(self.parts) - 1)


class ClusterSpan(DerivedSpan):
    """A cluster record's root span, derived from the record when the trace
    is read: ``scatter``, the parts' request spans in adoption order
    (failed-over parts last), then ``gather_merge`` once a scattered
    conjunction was merged.

    ``facts`` is ``(left_ns, status)`` once the record was refused or lost
    after its scatter; ``note`` the future of the session that submitted
    it.  ``adopted`` stays None until a failover re-homes a part: until
    then the adoption list is the record's own ``shard_ids`` / ``parts``,
    which the failover splices.
    """

    __slots__ = ("adopted",)

    def __init__(self, tracer, record: ClusterRecord) -> None:
        super().__init__(tracer, record)
        self.adopted: Optional[List[Tuple[int, QueuedRequest, bool]]] = None

    def failover(self, shard_id: int, part: QueuedRequest) -> None:
        """Adopt a part a failover re-offered to ``shard_id``."""
        if self.adopted is None:
            record = self.source
            self.adopted = [(shard, p, False) for shard, p in zip(record.shard_ids, record.parts)]
        self.adopted.append((shard_id, part, True))
        self.touch()

    def derive(self):
        record = self.source
        arrival = record.arrival_ns
        door = not record.admitted and self.facts is None
        adopted = self.adopted
        if adopted is None:
            adopted = [(shard, part, False) for shard, part in zip(record.shard_ids, record.parts)]
        scattered = [shard for shard, _, failover in adopted if not failover]
        scatter = dict(fanout=len(scattered), shard_ids=",".join(map(str, scattered)), admitted=not door)
        children: List[Any] = [("scatter", "cluster", arrival, arrival, scatter)]
        for shard, part, failover in adopted:
            if part.trace is not None and part.trace.tracer is self.tracer:
                part.trace.note = (shard, failover, door)
                children.append(part.trace)
        end, outcome = None, {}
        if record.completed:
            end = record.finish_ns
            if record.host_merge_ns > 0.0:
                parts = len(record.parts)
                merge = dict(parts=parts, tree_levels=(parts - 1).bit_length())
                children.append(("gather_merge", "cluster", end - record.host_merge_ns, end, merge))
            outcome = dict(status="completed", deadline_missed=record.deadline_missed)
        elif not record.admitted:
            end, status = (arrival, "rejected") if door else self.facts
            outcome = dict(status=status, reason=record.rejected_reason)
        attrs: Dict[str, Any] = dict(
            kind=type(record.request).__name__, seq=record.seq, priority=record.priority
        )
        attrs = self._ordered(attrs, outcome, door)
        return "cluster_request", "cluster", arrival, end, attrs, children


@dataclass(frozen=True)
class ClusterHealth:
    """What :meth:`ClusterFrontend.health` returns (documented there)."""

    backlogs: Dict[int, float]
    imbalance: float
    rejection_rate: float


class ClusterFrontend:
    """Routes, scatters, and gathers requests over N shard executors.

    Args:
        num_shards: Shard executors to build.
        config: The :class:`~repro.service.config.PipelineConfig` every
            shard frontend is built from (defaults to ``PipelineConfig()``).
            At the coordinator, ``sanitize`` also certifies every scatter,
            write scatter and failover re-offer, and a write invalidates
            the affected entries of every shard's cache (see :meth:`offer`).
        router: Placement/routing policy (defaults to a hash router with
            no replication over ``num_shards`` shards).
        engine_factory: Builds one engine **per shard** — each shard is
            its own device; sharing an engine would share banks and void
            the scaling story.  Omitted, every shard builds the executor's
            default engine.
        observe: Observability plane (``repro.obs``): ``True`` records
            one span tree per cluster request (scatter → per-shard parts
            → gather-merge) with every shard's frontend and executor
            sharing the plane (shard-prefixed lane tracks), plus
            cluster-level counters/histograms.  Recording never changes
            routing, admission, schedules, or results.
        faults: The fault schedule driven by :meth:`advance_to` /
            :meth:`drain` (None runs the healthy fixed pool).
    """

    def __init__(
        self,
        num_shards: int = 2,
        config: Optional[PipelineConfig] = None,
        router: Optional[ShardRouter] = None,
        engine_factory: Optional[Callable[[], AmbitEngine]] = None,
        observe: Union[bool, Observer] = False,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        check_count("num_shards", num_shards)
        config = config or PipelineConfig()
        #: One policy for the coordinator's functional write step and
        #: every shard planner's charging: pinned into the config the
        #: shards (and :meth:`join_shard`) are built from.
        self.maintenance = config.new_maintenance()
        self.config = dataclasses.replace(config, maintenance=self.maintenance)
        self._engine_factory = engine_factory
        self.shards = [self._build_shard() for _ in range(num_shards)]
        self.router = router or ShardRouter(len(self.shards))
        if self.router.num_shards != len(self.shards):
            raise ValueError("router shard count must match the cluster's")
        self.clock_ns = 0.0
        self._seq = 0
        self.bind_observer(resolve_observe(observe))
        # Shard views per index, pinned by the index object itself (id()
        # reuse must not hand one index's placement to another) and by
        # the router's placement epoch (live re-placement, joins, and
        # retires must re-partition the shard views).
        self._index_views: Dict[int, Tuple[BitmapIndex, int, Dict[int, BitmapIndexShardView]]] = {}
        # The gathered answer of each scattered conjunction shape, least
        # recently used first (see _gather).
        self._answers: "OrderedDict[Tuple[Any, ...], AnswerSlot]" = OrderedDict()
        #: The fault schedule driven by :meth:`advance_to`/:meth:`drain`
        #: (None runs the healthy fixed-pool behaviour untouched).
        self.faults = faults
        #: The elastic controller, when one is attached
        #: (:class:`~repro.cluster.controller.ElasticController` registers
        #: itself here).
        self.controller: Optional["ElasticController"] = None
        #: Cluster records rejected so far, on any path.
        self.rejected = 0
        #: Read touches per router key label, counted while a controller
        #: is attached or the plane records (what re-replication ranks).
        self.key_reads: Dict[str, int] = {}
        #: Failover/scale accounting, bumped where the events happen (the
        #: ``cluster.failover.*`` / ``cluster.scale.*`` counters record
        #: the same events, so obs-off runs report identically).
        self.elastic = ElasticCounts()

    def _build_shard(self) -> ServiceFrontend:
        factory = self._engine_factory
        shard = ServiceFrontend(self.config, engine=factory() if factory else None)
        shard.on_settled = self._part_settled
        return shard

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def bind_observer(self, obs: Observer) -> None:
        """Share one observability plane across the whole cluster.

        Every shard frontend and executor records into the same tracer
        and metrics registry; each shard's executor gets a ``shard<i>/``
        track prefix so identical bank keys on different shard devices
        stay distinct Perfetto tracks.
        """
        self.obs = obs
        for shard_id, shard in enumerate(self.shards):
            shard.executor.obs_prefix = f"shard{shard_id}/"
            shard.bind_observer(obs)

    def _obs_offered(self, record: ClusterRecord) -> None:
        """Register the cluster record's root span at arrival."""
        record.trace = ClusterSpan(self.obs.tracer, record)
        self.obs.metrics.counters["cluster.offered"].inc()

    def _obs_scattered(self, record: ClusterRecord) -> None:
        """Count the scatter outcome."""
        counters = self.obs.metrics.counters
        counters["cluster.fanout"].inc(float(record.fanout))
        if record.admitted:
            counters["cluster.admitted"].inc()

    def _count_key_reads(self, request: FrontendRequest) -> None:
        """Count per-key read touches (the controller's hotness signal);
        a recording plane gets the same counts as ``cluster.key_reads.*``."""
        keys: List[Any] = []
        if isinstance(request, ScanRequest):
            keys = [request.column]
        elif isinstance(request, BitmapConjunctionRequest):
            keys = [column for column, _ in request.predicates]
        counters = self.obs.metrics.counters if self.obs.enabled else None
        for key in keys:
            label = self.router.key_label(key)
            self.key_reads[label] = self.key_reads.get(label, 0) + 1
            if counters is not None:
                counters[f"cluster.key_reads.{label}"].inc()

    def _obs_gathered(self, record: ClusterRecord) -> None:
        """Count the gathered record."""
        registry = self.obs.metrics
        registry.counters["cluster.completed"].inc()
        registry.counters["cluster.merge_ops"].inc(float(record.merge_ops))
        registry.histograms["cluster.sojourn_ns"].observe(record.sojourn_ns)
        if record.host_merge_ns > 0.0:
            registry.histograms["cluster.host_merge_ns"].observe(record.host_merge_ns)

    # ------------------------------------------------------------------
    # Load and placement
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_load(self, shard_id: int, at_ns: Optional[float] = None) -> float:
        """Backlog of one shard at an instant: remaining in-service time
        (how far the shard's completion horizon — its clock, or with
        pipelining the busiest lane's in-flight horizon — sits past
        ``at_ns``) plus its queued hottest-bank backlog."""
        at = self.clock_ns if at_ns is None else at_ns
        shard = self.shards[shard_id]
        return max(0.0, shard.completion_ns - at) + shard.backlog_ns

    def health(self, at_ns: Optional[float] = None) -> ClusterHealth:
        """The cluster's health at an instant, read off its own state (never
        off the observability plane): the routable shards' ``backlogs``
        (shard id → :meth:`shard_load`, ascending), their ``imbalance``
        (hottest over mean; 1.0 when idle) and the cumulative
        ``rejection_rate`` (rejected / offered records)."""
        backlogs = {s: self.shard_load(s, at_ns) for s in self.router.routable_shards()}
        mean = sum(backlogs.values()) / len(backlogs) if backlogs else 0.0
        imbalance = max(backlogs.values()) / mean if mean > 0.0 else 1.0
        offered = self._seq
        return ClusterHealth(backlogs, imbalance, self.rejected / offered if offered else 0.0)

    def _views_for(self, index: BitmapIndex) -> Dict[int, BitmapIndexShardView]:
        entry = self._index_views.get(id(index))
        if entry is not None and entry[0] is index and entry[1] == self.router.epoch:
            return entry[2]
        placed = self.router.partition(index.indexed_columns())
        views = {
            shard: index.shard_view(columns)
            for shard, columns in enumerate(placed)
            if columns
        }
        self._index_views[id(index)] = (index, self.router.epoch, views)
        return views

    # ------------------------------------------------------------------
    # Admission (routing + scatter)
    # ------------------------------------------------------------------
    check_request = staticmethod(check_frontend_request)

    def offer(
        self,
        request: FrontendRequest,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        arrival_ns: Optional[float] = None,
    ) -> ClusterRecord:
        """Route one request to its shard(s); returns the cluster envelope.

        Scans go to the least-loaded replica of their column's shard set;
        conjunctions scatter into shard-local sub-conjunctions; everything
        else goes to the least-loaded shard.  A scatter is all-or-nothing:
        one refused part withdraws the rest.

        A write commits its table and index mutation here, at its offer
        (:meth:`_commit_write`), not when its batch is lowered as on the
        service tier.  So the tiers order reads and writes differently: a
        read submitted before a write, and still queued when the write is
        offered, answers over the written rows here and over the old rows
        on a service frontend.
        """
        arrival = checked_arrival(self.clock_ns, arrival_ns, deadline_ns, priority)
        self.check_request(request)
        self.clock_ns = max(self.clock_ns, arrival)
        record = ClusterRecord(
            request=request,
            arrival_ns=arrival,
            priority=priority,
            deadline_ns=deadline_ns,
            seq=self._seq,
        )
        self._seq += 1
        if self.obs.enabled:
            self._obs_offered(record)

        load = lambda shard: self.shard_load(shard, arrival)  # noqa: E731
        try:
            if is_write_request(request):
                plan = self._scatter_write(request, load)
            else:
                plan = self._route_read(request, load)
        except PlacementUnavailable:
            # Degraded mode: no routable replica holds the data.  Reject
            # with a failure-typed reason (mapped to ShardUnavailable by
            # the session layer) instead of serving a wrong answer.
            if self.obs.enabled:
                self.obs.metrics.counter("cluster.failover.unavailable").inc()
            self._reject_record(record, "shard_unavailable")
            return record
        if self.controller is not None or self.obs.enabled:
            self._count_key_reads(request)
        if isinstance(request, BitmapConjunctionRequest):
            record.generation = request.index.generation(c for c, _ in request.predicates)

        for shard_id, sub_request in plan:
            part = self.shards[shard_id].offer(
                sub_request,
                priority=priority,
                deadline_ns=deadline_ns,
                arrival_ns=arrival,
            )
            record.shard_ids.append(shard_id)
            record.parts.append(part)
            part.parent = record
            if not part.admitted:
                self._reject_record(record, part.rejected_reason)
                return record
        if is_write_request(request):
            # The scatter parts are charge-only; the functional mutation
            # and the shard-cache invalidations commit exactly once, at
            # the coordinator, only after the all-or-nothing admission
            # held (a rejected write must not mutate the table).
            self._commit_write(request, record)
        if self.obs.enabled:
            self._obs_scattered(record)
        return record

    def _scatter_write(
        self, request: WriteRequest, load
    ) -> List[Tuple[int, WriteRequest]]:
        """Split a write into charge-only shard parts by column placement.

        Every shard holding an affected column gets a part restricted to
        its locally-placed columns (``apply=False`` — the coordinator's
        :meth:`_commit_write` performs the mutation and the parent-index
        maintenance once).  A replicated column appears in every
        replica's part: each replica's device pays to maintain its copy.
        A write touching no placed column (e.g. an update of an
        unindexed column) still charges its row traffic on the
        least-loaded shard.
        """
        views = self._views_for(request.index)
        charged = charged_columns(request)
        parts: List[Tuple[int, WriteRequest]] = []
        covered: set = set()
        placed_anywhere: set = set()
        for shard_id, view in sorted(views.items()):
            local = tuple(c for c in charged if c in view.columns)
            placed_anywhere.update(local)
            if not self.router.is_routable(shard_id):
                # A down/draining replica skips its maintenance charge —
                # the surviving replicas still cover the column (checked
                # below); the copy is rebuilt by re-replication, not here.
                continue
            if local:
                covered.update(local)
                parts.append(
                    (shard_id, dataclasses.replace(request, columns=local, apply=False))
                )
        missing = placed_anywhere - covered
        if missing:
            column = sorted(missing)[0]
            raise PlacementUnavailable(
                f"no routable replica holds written column {column!r}", key=column
            )
        if not parts:
            parts = [
                (
                    self.router.route_any(load),
                    dataclasses.replace(request, columns=(), apply=False),
                )
            ]
        if self.config.sanitize:
            from repro.verify.plan_lint import check_write_scatter  # local: avoid cycle

            # Certify the scatter before any shard sees its part: the
            # charged columns must all land on some replica, and no part
            # may charge a column the write does not affect.
            check_write_scatter(charged, [(s, p.columns or ()) for s, p in parts])
        return parts

    def _commit_write(self, request: WriteRequest, record: ClusterRecord) -> None:
        """Apply the mutation + parent maintenance; invalidate shard caches.

        Runs at the write's arrival instant, so every read lowered after
        it computes from (and caches) post-write planes, while fills
        planned from pre-write planes are killed by the caches' generation
        guards — the coordinator's mutation advances the parent index's
        write generation, which every shard view reads.  The returned
        primitives are discarded: maintenance *cost* is charged by the
        shard parts, on the devices that hold the columns.
        """
        coordinator = dataclasses.replace(request, columns=None, apply=True)
        outcome = self.maintenance.lower_write(
            coordinator, self.shards[record.shard_ids[0]].planner
        )
        record.rows_affected = outcome.rows_affected
        if self.config.sanitize:
            from repro.verify.plan_lint import lint_index_partition  # local: avoid cycle

            lint_index_partition(request.index, outcome.invalidate_columns)
        views = self._views_for(request.index)
        dropped = 0
        for shard_id, shard in enumerate(self.shards):
            cache = shard.cache
            view = views.get(shard_id)
            if cache is None or view is None:
                continue
            if outcome.invalidate_all:
                dropped += cache.invalidate_index(view)
            else:
                local = [c for c in outcome.invalidate_columns if c in view.columns]
                if local:
                    dropped += cache.invalidate_columns(view, local)
        record.cache_invalidations = dropped

    def _scatter_conjunction(
        self, request: BitmapConjunctionRequest, load
    ) -> List[Tuple[int, BitmapConjunctionRequest]]:
        """Split a conjunction into shard-local sub-conjunctions.

        A sub-conjunction being re-homed by failover (its index is
        already a shard view) re-scatters over its parent index.
        """
        index = request.index
        if isinstance(index, BitmapIndexShardView):
            index = index.index
        views = self._views_for(index)
        assignment = self.router.assign_scatter(
            [column for column, _ in request.predicates], load
        )
        by_shard: Dict[int, List[Tuple[str, Tuple[int, ...]]]] = {}
        for (column, values), (_, shard) in zip(request.predicates, assignment):
            by_shard.setdefault(shard, []).append((column, values))
        parts = [
            (
                shard,
                BitmapConjunctionRequest(
                    index=views[shard], predicates=tuple(predicates)
                ),
            )
            for shard, predicates in sorted(by_shard.items())
        ]
        if self.config.sanitize:
            from repro.verify.plan_lint import check_scatter_coverage  # local: avoid cycle

            # Certify the scatter before any shard sees its part: the
            # shard-local sub-conjunctions must cover the predicate set
            # exactly once, else the gather AND silently corrupts.
            check_scatter_coverage(
                request.predicates,
                [(shard, sub.predicates) for shard, sub in parts],
            )
        return parts

    def _route_read(
        self, request: FrontendRequest, load
    ) -> List[Tuple[int, FrontendRequest]]:
        """The (shard, sub-request) parts of anything but a write:
        conjunctions scatter, scans follow their column's replicas, the
        rest goes wherever the backlog is smallest."""
        if isinstance(request, BitmapConjunctionRequest):
            return self._scatter_conjunction(request, load)
        if isinstance(request, ScanRequest):
            return [(self.router.route(request.column, load), request)]
        return [(self.router.route_any(load), request)]

    def _reject_record(
        self,
        record: ClusterRecord,
        reason: str,
        part_reason: str = "cancelled",
        left_ns: Optional[float] = None,
        status: str = "rejected",
    ) -> None:
        """The one door through which a record is rejected, all-or-nothing:
        every part is let go of and, if still queued, withdrawn (parts
        already served are wasted work, as in a real scatter).  The record
        leaves at ``left_ns`` — None when :meth:`offer` refuses it at the
        door, where the scatter outcome is recorded first."""
        record.admitted = False
        record.rejected_reason = reason
        self.rejected += 1
        for shard, sibling in zip(record.shard_ids, record.parts):
            sibling.parent = None
            if sibling.admitted and not sibling.completed:
                self.shards[shard].cancel(sibling, reason=part_reason)
        if record.trace is not None:
            record.trace.touch(None if left_ns is None else (left_ns, status))
        if not self.obs.enabled:
            return
        if left_ns is None:
            self._obs_scattered(record)
        self.obs.metrics.counters["cluster.rejected"].inc()

    # ------------------------------------------------------------------
    # Service
    # ------------------------------------------------------------------
    def _next_event_ns(self, include_controller: bool = True) -> Optional[float]:
        """Next fault event or controller tick due, or None."""
        candidates: List[float] = []
        if self.faults is not None:
            due = self.faults.next_fire_ns()
            if due is not None:
                candidates.append(due)
        if include_controller and self.controller is not None:
            candidates.append(self.controller.next_tick_ns())
        return min(candidates) if candidates else None

    def _fire_events(self, at_ns: float) -> None:
        """Apply every fault event and controller tick due at ``at_ns``.

        The caller must have advanced all shards to ``at_ns`` first, so
        a kill lands exactly at its scheduled instant: dispatched batches
        have completed (fail-stop at the dispatch boundary) and the
        victim's still-queued work migrates from the current state.
        """
        if self.faults is not None:
            self.faults.fire_due(self, at_ns)
        if self.controller is not None:
            self.controller.run_due(at_ns)

    def advance_to(self, until_ns: float) -> None:
        """Advance every shard's virtual clock towards ``until_ns``,
        firing fault events and controller ticks at their due instants."""
        until = float(until_ns)
        while True:
            due = self._next_event_ns()
            if due is None or due > until:
                break
            fire_at = max(due, self.clock_ns)
            for shard in self.shards:
                shard.advance_to(fire_at)
            self.clock_ns = max(self.clock_ns, fire_at)
            self._fire_events(fire_at)
        for shard in self.shards:
            shard.advance_to(until)
        self.clock_ns = max(self.clock_ns, until)

    def drain(self) -> None:
        """Serve every shard until all queues are empty.

        Fault events and controller ticks due before the work horizon
        still fire in order; events scheduled past the horizon stay
        pending (an empty cluster does not spin its clock forward to
        meet a far-future kill).
        """
        while True:
            busy = any(shard.queue_depth > 0 for shard in self.shards)
            due = self._next_event_ns(include_controller=busy)
            if due is None:
                break
            horizon = max(
                [self.clock_ns] + [shard.completion_ns for shard in self.shards]
            )
            if due > horizon:
                if not busy:
                    break
                # Serve the queued work up to the event instant, then
                # re-evaluate: if the queues empty before ``due`` the
                # event lies beyond this stream and stays pending.
                progressed = False
                for shard in self.shards:
                    before = (shard.clock_ns, shard.queue_depth)
                    shard.advance_to(due)
                    if (shard.clock_ns, shard.queue_depth) != before:
                        progressed = True
                if not progressed:
                    # Batch policies sleeping for arrivals that never
                    # come are forced batch-by-batch, exactly as an
                    # eventless drain would close them (their dispatch
                    # instants precede the event: horizon < due).
                    for shard in self.shards:
                        if shard.queue_depth > 0:
                            shard.serve_batch()
                continue
            fire_at = max(due, self.clock_ns)
            for shard in self.shards:
                shard.advance_to(fire_at)
            self.clock_ns = max(self.clock_ns, fire_at)
            self._fire_events(fire_at)
        for shard in self.shards:
            shard.drain()
        self.clock_ns = max(
            [self.clock_ns] + [s.clock_ns for s in self.shards]
        )

    # ------------------------------------------------------------------
    # Faults and failover
    # ------------------------------------------------------------------
    def fail_shard(self, shard_id: int, at_ns: Optional[float] = None) -> bool:
        """Kill one shard at an instant (fail-stop at the dispatch
        boundary): work already dispatched to its lanes completes, work
        still queued on it is cancelled and re-offered to surviving
        replicas.  Returns False when the shard was already down/retired.
        """
        now = self.clock_ns if at_ns is None else float(at_ns)
        if not self.router.mark_down(shard_id):
            return False
        self._count("shard_failures", "cluster.failover.kills")
        self._migrate_queued(shard_id, now, reason="shard_failed")
        return True

    def revive_shard(self, shard_id: int, at_ns: Optional[float] = None) -> bool:
        """Bring a failed shard back into the routable pool.  Its replicas
        were never unplaced (placement is orthogonal to health), so reads
        route to it again immediately.  False when it was not down."""
        del at_ns  # revival is a pure health flip; nothing to reschedule
        if not self.router.mark_up(shard_id):
            return False
        self._count("shard_revivals", "cluster.failover.revives")
        return True

    def drain_shard(self, shard_id: int, at_ns: Optional[float] = None) -> bool:
        """Stop routing new work to a shard and migrate its queue off
        (the retirement prelude).  In-flight batches complete in place."""
        now = self.clock_ns if at_ns is None else float(at_ns)
        if not self.router.is_routable(shard_id):
            return False
        self.router.mark_draining(shard_id)
        if self.obs.enabled:
            self.obs.metrics.counter("cluster.scale.drains").inc()
        self._migrate_queued(shard_id, now, reason="shard_draining")
        return True

    def retire_shard(self, shard_id: int, at_ns: Optional[float] = None) -> bool:
        """Permanently remove a shard: drain its queue, move the last
        copy of every key it solely holds onto a surviving shard (the
        copy bytes are charged to the destination's lanes), then retire
        it in the router.  Returns False when the pool cannot absorb the
        shard's data (the retire is then abandoned, shard left draining).
        """
        now = self.clock_ns if at_ns is None else float(at_ns)
        if self.router.is_retired(shard_id):
            return False
        if self.router.is_routable(shard_id):
            self.router.mark_draining(shard_id)
            self._migrate_queued(shard_id, now, reason="shard_retired")
        load = lambda shard: self.shard_load(shard, now)  # noqa: E731
        for key in self.router.placed_keys(shard_id):
            survivors = [
                s
                for s in self.router.replicas(key)
                if s != shard_id and not self.router.is_retired(s)
            ]
            if not survivors:
                try:
                    target = self.router.route_any(load)
                except PlacementUnavailable:
                    return False  # nowhere to move the last copy
                self.add_replica(key, target, at_ns=now, force=True)
            self.router.drop_replica(key, shard_id)
        self.router.retire(shard_id)
        self._count("shards_retired", "cluster.scale.retires")
        return True

    def join_shard(self, at_ns: Optional[float] = None) -> int:
        """Grow the pool by one shard (built from the cluster's own
        :attr:`config`) starting life at ``at_ns``; returns its id.
        Existing placements are sticky — the new shard takes load via
        affinity-free routing, controller re-replication, and keys first
        seen after the join."""
        now = self.clock_ns if at_ns is None else float(at_ns)
        shard = self._build_shard()
        shard.clock_ns = max(shard.clock_ns, now)
        self.shards.append(shard)
        new_id = self.router.add_shard()
        if new_id != len(self.shards) - 1:
            raise RuntimeError(
                "router and cluster shard counts diverged on join "
                f"(router says {new_id}, cluster has {len(self.shards)} shards)"
            )
        if self.obs.enabled:
            # Re-bind so the joined shard records into the shared plane
            # with its own shard-prefixed lane tracks.
            self.bind_observer(self.obs)
        self._count("shards_joined", "cluster.scale.joins")
        return new_id

    def _migrate_queued(self, shard_id: int, now: float, reason: str) -> int:
        """Cancel every record part still queued on ``shard_id`` and
        re-offer it to surviving shards, in (record, part position) order;
        returns how many parts migrated.  Parts already dispatched complete
        in place (fail-stop boundary); a part with no surviving placement,
        or whose replacement is refused, sinks its whole record (a typed
        outcome, never a silent drop)."""

        def position(part: QueuedRequest) -> int:
            return next(k for k, p in enumerate(part.parent.parts) if p is part)

        shard = self.shards[shard_id]
        queued = [part for part in shard.queued() if part.parent is not None]
        queued.sort(key=lambda part: (part.parent.seq, position(part)))
        migrated = 0
        for part in queued:
            record = part.parent
            if record is None:
                continue  # its record sank with a part migrated before it
            k = position(part)
            part.parent = None  # detached: this cancel must not sink the record
            shard.cancel(part, reason=reason)
            if self._reoffer_part(record, k, shard_id, part, now) is not None:
                migrated += 1
        return migrated

    def _reoffer_part(
        self,
        record: ClusterRecord,
        k: int,
        old_shard: int,
        part: QueuedRequest,
        now: float,
    ) -> Optional[int]:
        """Re-offer one cancelled part of ``record`` onto surviving
        shards at ``now``; returns how many replacement parts took its
        place in :attr:`ClusterRecord.parts`, or None when the record sank
        with it (siblings withdrawn): no surviving placement exists, or a
        target shard refused its replacement at the door."""
        load = lambda shard: self.shard_load(shard, now)  # noqa: E731
        request = part.request
        plan: List[Tuple[int, FrontendRequest]]
        try:
            if is_write_request(request):
                # Charge-only maintenance part: prefer a surviving replica
                # of one of its columns, else charge the least-loaded shard.
                target: Optional[int] = None
                for column in request.columns or ():
                    try:
                        target = self.router.route(column, load)
                        break
                    except PlacementUnavailable:
                        continue
                if target is None:
                    target = self.router.route_any(load)
                plan = [(target, request)]
            else:
                plan = self._route_read(request, load)
        except PlacementUnavailable:
            # Terminal degraded-mode failure (typed, never a silent drop).
            reason = "shard_unavailable"
            self._reject_record(record, reason, part_reason=reason, left_ns=now, status="failed")
            self._count("failover_failures", "cluster.failover.records_failed")
            return None
        if self.config.sanitize:
            from repro.verify.plan_lint import check_failover_reoffer  # local: avoid cycle

            check_failover_reoffer(self.router, old_shard, [s for s, _ in plan])
        new_ids: List[int] = []
        new_parts: List[QueuedRequest] = []
        for shard_id, sub_request in plan:
            new_part = self.shards[shard_id].offer(
                sub_request,
                priority=record.priority,
                deadline_ns=record.deadline_ns,
                arrival_ns=now,
            )
            new_part.parent = record
            new_ids.append(shard_id)
            new_parts.append(new_part)
            if record.trace is not None and new_part.trace is not None:
                record.trace.failover(shard_id, new_part)
        record.shard_ids[k : k + 1] = new_ids
        record.parts[k : k + 1] = new_parts
        record.migrated_parts.append(part)
        record.failovers += 1
        self._count("failovers", "cluster.failover.migrated_parts")
        if self.obs.enabled:
            self.obs.metrics.counter("cluster.failover.reoffers").inc(float(len(plan)))
        refused = next((p for p in new_parts if not p.admitted), None)
        if refused is not None:
            # All-or-nothing holds for a replacement too.
            self._reject_record(record, refused.rejected_reason, left_ns=now)
            return None
        return len(new_parts)

    # ------------------------------------------------------------------
    # Elasticity (controller surface)
    # ------------------------------------------------------------------
    def add_replica(
        self,
        key,
        shard_id: int,
        at_ns: Optional[float] = None,
        priority: int = 0,
        force: bool = False,
    ) -> bool:
        """Replicate ``key`` onto ``shard_id``, charging the copy bytes
        to the destination shard's lanes as a
        :class:`~repro.service.requests.CopyRequest` through its own
        admission path.  Returns False when the shard already holds the
        key, is unroutable, or refuses the copy (``force=True`` places
        anyway — the retire path must not strand data)."""
        now = self.clock_ns if at_ns is None else float(at_ns)
        if shard_id in self.router.replicas(key):
            return False
        if not force and not self.router.is_routable(shard_id):
            return False
        num_bytes = self._replica_bytes(key)
        copy = self.shards[shard_id].offer(
            CopyRequest(num_bytes=num_bytes), priority=priority, arrival_ns=now
        )
        if not copy.admitted and not force:
            return False
        self.router.add_replica(key, shard_id)
        self._count("replications", "cluster.scale.replications")
        self._count("copied_bytes", "cluster.scale.copied_bytes", num_bytes)
        self._count("copy_ns", "cluster.scale.copy_ns", copy.modeled_ns if copy.admitted else 0.0)
        return True

    def _replica_bytes(self, key) -> int:
        """Bytes a new replica of ``key`` must copy onto its shard."""
        if isinstance(key, str):
            total = 0
            for index, _, _ in self._index_views.values():
                planes = index.bitmaps.get(key)
                if planes:
                    total += sum(int(plane.size) for plane in planes.values())
            if total:
                return total
        else:
            size = getattr(key, "storage_bytes", None)
            if callable(size):
                return int(size())
        return 8192  # one DRAM row: conservative floor for unknown keys

    def publish_gauges(self, at_ns: Optional[float] = None) -> ClusterHealth:
        """Publish the health gauges (per-shard backlog and queue depth,
        pool size, imbalance, rejection rate) and return the :meth:`health`
        they show: the controller decides from what an operator watches."""
        now = self.clock_ns if at_ns is None else float(at_ns)
        health = self.health(now)
        if not self.obs.enabled:
            return health
        registry = self.obs.metrics
        for shard_id, shard in enumerate(self.shards):
            backlog = health.backlogs.get(shard_id)
            if backlog is None:  # down / draining / retired: display only
                backlog = self.shard_load(shard_id, now)
            registry.gauge(f"cluster.backlog_ns.shard{shard_id}").set(backlog)
            registry.gauge(f"cluster.queue_depth.shard{shard_id}").set(float(shard.queue_depth))
        registry.gauge("cluster.shards_alive").set(float(len(self.router.alive_shards())))
        registry.gauge("cluster.shards_routable").set(float(len(health.backlogs)))
        registry.gauge("cluster.imbalance").set(health.imbalance)
        registry.gauge("cluster.rejection_rate").set(health.rejection_rate)
        return health

    def _count(self, name: str, counter: str, amount: float = 1) -> None:
        """Bump one of the :attr:`elastic` counts and publish the event."""
        setattr(self.elastic, name, getattr(self.elastic, name) + amount)
        if self.obs.enabled:
            self.obs.metrics.counter(counter).inc(float(amount))

    def elastic_summary(self) -> Dict[str, Any]:
        """Failover/scale accounting so far, as :class:`ClusterMetrics`
        keywords."""
        return dataclasses.asdict(self.elastic)

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def _part_settled(self, shard: ServiceFrontend, part: QueuedRequest) -> None:
        """A shard's settle doors report here (``on_settled``): a part lost
        after admission sinks its record at that shard's instant, the last
        part to complete gathers it.  A part with no ``parent`` — detached,
        its record already terminal, or no record's part — is not ours."""
        record = part.parent
        if record is None:
            return
        if not part.admitted:
            self._reject_record(record, part.rejected_reason, left_ns=shard.clock_ns)
        elif all(p.completed for p in record.parts):
            self._gather(record)

    def _gather(self, record: ClusterRecord) -> None:
        """The one door through which a record completes: merge its shard
        parts into its final value, take their counts, publish."""
        parts = record.parts
        record.start_ns = min(p.start_ns for p in parts)
        record.finish_ns = max(p.finish_ns for p in parts)
        for part in parts:
            part.parent = None
            record.add_counts(part)
        if is_write_request(record.request):
            # A write's parts carry charge-only estimates; the gather
            # value is the coordinator's authoritative rows-affected
            # count, and there is no bitmap merge to price.
            record.value = (
                record.rows_affected
                if record.rows_affected is not None
                else parts[0].value
            )
            record.metrics = (
                parts[0].metrics
                if len(parts) == 1
                else combine_serial("cluster_write", (p.metrics for p in parts))
            )
        elif len(parts) == 1:
            record.value = parts[0].value
            record.metrics = parts[0].metrics
        else:
            # Scattered conjunction: AND the per-shard partial bitmaps.  The
            # merge runs host-side (it is NOT charged as device work); device
            # cost is the serial combination of the shard chains.  The host
            # cost model charges the *merge tree*: partials merge pairwise in
            # parallel, so a G-way gather costs ceil(log2(G)) levels of
            # `MERGE_NS_PER_OP` on the record's completion time — a gathered
            # result is not ready until the host has actually merged it, but
            # independent pairs never serialize behind each other.
            record.value = self._merged(record)
            tree_depth = (len(parts) - 1).bit_length()
            record.host_merge_ns = MERGE_TREE_NS[tree_depth]
            record.finish_ns += record.host_merge_ns
            merged = combine_serial("cluster_gather", (p.metrics for p in parts))
            merged.notes = (
                f"{len(parts)} shard partials, host-side AND merge tree "
                f"({tree_depth} levels)"
            )
            record.metrics = merged
        if record.trace is not None:
            record.trace.touch()
        if self.obs.enabled:
            self._obs_gathered(record)

    def _merged(self, record: ClusterRecord) -> np.ndarray:
        """A scattered conjunction's answer, read-only: the AND of its parts'
        partials, which the parts then drop.  While its columns' generation
        is still ``record.generation`` (stamped at offer, before any part
        lowered), every partial was lowered at it, so the answer is the
        shape's at that generation: held in the shape's :class:`AnswerSlot`
        and handed out again without merging (merged and compared under
        ``sanitize``).  A record that straddled a write keeps its own merge."""
        parts, request = record.parts, record.request
        index, columns = request.index, [column for column, _ in request.predicates]

        def merge() -> np.ndarray:
            return np.bitwise_and.reduce([p.value for p in parts])

        if index.generation(columns) == record.generation:
            answers, key = self._answers, request.predicates
            slot = answers.get(key)
            if slot is None:
                slot = answers[key] = AnswerSlot()
                if len(answers) > CHAIN_INTERN_CAPACITY:
                    answers.popitem(last=False)
            else:
                answers.move_to_end(key)
            value = slot.stamp(index, columns, self.config.sanitize)(merge)
        else:
            value = merge()
            value.setflags(write=False)  # like the shard partials it merges
        for part in parts:
            part.value = None
        return value

    def gather(self) -> None:
        """Does nothing: a record is gathered the instant its last part
        completes (:meth:`_part_settled`).  Kept only because the frozen
        ``perf/tracing.py`` wraps it by name (ROADMAP item 1(a) removes it)."""
