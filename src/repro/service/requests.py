"""Request and result types of the bulk-operation service layer.

A request describes one unit of client work — an Ambit bulk bitwise
operation, a BitWeaving predicate scan, a RowClone bulk copy, or a
high-level bitmap-index conjunction — without saying anything about *when*
or *where* it runs.  The pipeline stages consume these types in order:

* the :class:`~repro.service.frontend.ServiceFrontend` wraps each request
  in a :class:`QueuedRequest` envelope carrying its arrival time, priority
  and deadline;
* the :class:`~repro.service.planner.BatchPlanner` *lowers* high-level
  requests (:class:`BitmapConjunctionRequest`) into the primitive kinds;
* the :class:`~repro.service.executor.BatchExecutor` runs primitives and
  returns one :class:`RequestResult` per request plus batch aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.analysis.metrics import BatchMetrics, OperationMetrics, PlanCounts
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn, ScanPlan
from repro.rowclone.engine import CopyMode

#: Predicate kinds a ScanRequest understands (dispatched to
#: :meth:`BitWeavingColumn.scan`).
SCAN_KINDS = ("less_than", "less_equal", "equal", "between")


@dataclass(slots=True)
class BulkOpRequest:
    """One Ambit bulk bitwise operation: ``out = op(a, b)``.

    Attributes:
        op: One of ``not, and, or, nand, nor, xor, xnor``.
        a: First operand.
        b: Second operand (binary ops only).
        out: Optional pre-allocated destination.
    """

    op: str
    a: BulkBitVector
    b: Optional[BulkBitVector] = None
    out: Optional[BulkBitVector] = None
    #: Optional bank-placement hint for host-only operands: requests with
    #: the same hint contend for the same modeled banks (the planner pins
    #: every lowered step of one conjunction to one hint so data-dependent
    #: steps never overlap in the schedule).
    bank_offset: Optional[int] = None
    #: Batch-local indices of the primitives that produce this request's
    #: operands.  When any request of a batch carries dependencies the
    #: executor schedules in submission order and lifts each request's
    #: release to its producers' finish times, so optimizer-built DAGs
    #: (shared sub-chains consumed from other lanes) stay causally
    #: ordered even when the operands live on different bank lanes.
    after: Tuple[int, ...] = ()


@dataclass
class ScanRequest:
    """One BitWeaving predicate scan over a vertical column.

    Attributes:
        column: The BitWeaving/V column to scan.
        kind: Predicate kind (see :data:`SCAN_KINDS`).
        constants: One constant, or (low, high) for ``between``.
    """

    column: BitWeavingColumn
    kind: str
    constants: tuple
    _scan_cache: Optional[Tuple[np.ndarray, ScanPlan]] = field(
        default=None, repr=False, compare=False
    )
    #: The executor's priced roll-up of the scan, beside the evaluation it
    #: prices: ``(weak ref to the executor, banks_parallel, OperationMetrics
    #: fields)`` — see :meth:`BatchExecutor._scan_metrics`, its only user.
    _scan_price: Optional[Tuple[Any, int, Tuple[Any, ...]]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in SCAN_KINDS:
            raise ValueError(f"unknown scan kind {self.kind!r}")
        expected = 2 if self.kind == "between" else 1
        if len(self.constants) != expected:
            raise ValueError(
                f"{self.kind} takes {expected} constant(s), got {len(self.constants)}"
            )

    def scan_result(self) -> Tuple[np.ndarray, ScanPlan]:
        """(packed expected bits, plan) — evaluated once and cached so the
        planner's latency model and the executor share one evaluation."""
        if self._scan_cache is None:
            self._scan_cache = self.column.scan(self.kind, *self.constants)
        return self._scan_cache


@dataclass
class CopyRequest:
    """One RowClone bulk copy/initialization.

    Attributes:
        num_bytes: Bytes to copy (or fill when ``fill`` is True).
        mode: RowClone mechanism to use.
        fill: Zero-initialize instead of copying.
    """

    num_bytes: int
    mode: CopyMode = CopyMode.FPM
    fill: bool = False


#: Primitive request kinds the executor runs directly.
ServiceRequest = Union[BulkOpRequest, ScanRequest, CopyRequest]


def checked_non_negative(name: str, value: float) -> float:
    """``value`` as a float, refused unless finite and non-negative.

    The one check behind every time and cost a caller hands in (arrival
    stamps, ``merge_ns_per_op``, ``urgency_slack_ns``): NaN passes any
    ``< 0`` guard and then poisons every clock it is added to, stranding
    requests in no terminal state.
    """
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def checked_arrival(
    clock_ns: float, arrival_ns: Optional[float], deadline_ns: Optional[float]
) -> float:
    """The arrival instant of one offer: ``arrival_ns``, or the backend's
    ``clock_ns`` when the offer is unstamped.

    Every backend's ``offer`` resolves its arrival here, before it appends
    a record or moves its clock: a NaN or infinite arrival would poison
    the clock and every percentile of the window, a negative one predates
    the clock's origin, and a NaN deadline can never be missed.
    """
    arrival = checked_non_negative("arrival time", clock_ns if arrival_ns is None else arrival_ns)
    if deadline_ns is not None and math.isnan(deadline_ns):
        raise ValueError("deadline_ns must not be NaN")
    return arrival


def check_request_type(
    request: object, served: Tuple[type, ...], refusal: str = "unknown request type"
) -> None:
    """Refuse a request whose type the backend cannot serve.

    Every backend's ``offer`` calls this beside :func:`checked_arrival`,
    for the same reason: the latency model and the planner would raise
    the same ``TypeError`` later — after the envelope was recorded and
    the clock lifted — and strand a request in no terminal state.
    """
    if not isinstance(request, served):
        raise TypeError(f"{refusal} {type(request).__name__}")


@dataclass
class BitmapConjunctionRequest:
    """One bitmap-index conjunction: ``AND`` of per-column ``IN`` predicates.

    This is a *high-level* request: the executor does not understand it.
    The :class:`~repro.service.planner.BatchPlanner` lowers it — binding
    the :class:`repro.api.plans.CompiledChain` of its predicates — into a
    chain of primitive :class:`BulkOpRequest` steps (the OR of each
    predicate's value bitmaps, then the AND across predicates), pinned to
    one bank-offset hint so the data-dependent chain serializes on its
    banks.

    Construction is the API boundary: a predicate the index cannot answer
    raises here, not inside ``serve_batch`` after its batch was popped.

    Attributes:
        index: The bitmap source holding the per-value bitmaps (a
            :class:`BitmapIndex` or a shard view of one).
        predicates: (column, values) pairs; each contributes an ``IN``.
    """

    index: BitmapIndex
    predicates: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ValueError("predicates must not be empty")
        normalized = []
        for column, values in self.predicates:
            values = tuple(values)
            if not values:
                raise ValueError(f"predicate on {column!r} has no values")
            normalized.append((column, values))
        self.predicates = tuple(normalized)
        self.index.check_predicates(self.predicates)


#: Everything the frontend accepts (primitives plus high-level requests).
FrontendRequest = Union[ServiceRequest, BitmapConjunctionRequest]


@dataclass
class RequestEnvelope(PlanCounts):
    """What every tier's per-request envelope carries.

    The arrival-side attributes (arrival time, priority, deadline) and,
    after service, the outcome (start/finish times, value, metrics) — the
    one declaration :class:`QueuedRequest` (a frontend's queue entry) and
    :class:`~repro.cluster.frontend.ClusterRecord` (a scatter-gather
    record over several of them) both extend, and the surface
    :func:`~repro.analysis.metrics.summarize_envelopes` and the session
    layer read.  The inherited :class:`~repro.analysis.metrics.PlanCounts`
    are taken when the envelope completes.  Times are absolute nanoseconds
    on the owning frontend's virtual clock.  ``admitted``,
    ``rejected_reason`` and ``finish_ns`` make an envelope terminal: only
    its tier's settle methods write them (``terminal-write`` lint rule).

    Attributes:
        request: The wrapped request (primitive or high-level).
        arrival_ns: When the request was offered to the frontend.
        priority: Larger values are served first (default 0).
        deadline_ns: Absolute completion deadline, or None.
        seq: Admission sequence number (FIFO tiebreak within a priority).
        admitted: False when admission control rejected the request.
        rejected_reason: Why admission control refused it ("" if admitted).
        start_ns: When the request started on its banks.
        finish_ns: When its last bank finished (host merge included).
        value: Result payload (see :attr:`RequestResult.value`); for a
            conjunction, the packed result bitmap.
        metrics: Sequential-execution device cost of the request (for a
            lowered or scattered request, the serial combination of its
            primitive steps / shard parts).
    """

    request: FrontendRequest
    arrival_ns: float = 0.0
    priority: int = 0
    deadline_ns: Optional[float] = None
    seq: int = 0
    admitted: bool = True
    rejected_reason: str = ""
    start_ns: float = math.nan
    finish_ns: float = math.nan
    value: Any = None
    metrics: Optional[OperationMetrics] = None
    #: Host-side merge cost charged into ``finish_ns``: the optimizer's
    #: split-mode cross-lane joins on a queue entry, the gather merge tree
    #: on a cluster record (0.0 when nothing was merged).
    host_merge_ns: float = 0.0
    #: Root :class:`repro.obs.Span` of this request's lifecycle — set by
    #: the frontend only when its observability plane is recording
    #: (``observe=True``); None under the default no-op plane.
    trace: Any = field(default=None, repr=False, compare=False)

    @property
    def completed(self) -> bool:
        """True once ``finish_ns`` is stamped — the one definition on every
        tier: the completion door stamps it together with ``value`` and
        ``metrics``, so a completed envelope always has a finite sojourn."""
        return self.admitted and not math.isnan(self.finish_ns)

    @property
    def wait_ns(self) -> float:
        """Admission to service start (NaN before service)."""
        return self.start_ns - self.arrival_ns

    @property
    def sojourn_ns(self) -> float:
        """Admission to completion (NaN before service)."""
        return self.finish_ns - self.arrival_ns

    @property
    def deadline_missed(self) -> bool:
        """True when the request completed after its deadline."""
        return (
            self.deadline_ns is not None
            and self.completed
            and self.finish_ns > self.deadline_ns + 1e-9
        )


@dataclass
class QueuedRequest(RequestEnvelope):
    """Envelope of one request inside the frontend's admission queue.

    Attributes:
        batch_index: Which batch served the request (-1 before service).
    """

    #: Modeled sequential service latency (filled at admission; drives the
    #: planner's deadline urgency and the frontend's backlog accounting).
    modeled_ns: float = 0.0
    #: Bank keys the request is modeled to occupy (filled at admission;
    #: empty = unpinned, spread evenly).  Drives the frontend's per-bank
    #: backlog vector.
    modeled_banks: List = field(default_factory=list)
    batch_index: int = -1
    #: The :class:`~repro.cluster.frontend.ClusterRecord` this envelope is
    #: a live part of: set by the cluster when it takes the part, cleared
    #: when the record settles or the part is detached to be re-homed.
    parent: Any = field(default=None, repr=False, compare=False)

    def sort_key(self) -> Tuple[float, float, int]:
        """Queue order: priority first, then earliest deadline, then FIFO."""
        deadline = self.deadline_ns if self.deadline_ns is not None else math.inf
        return (-self.priority, deadline, self.seq)


@dataclass(slots=True)
class RequestResult:
    """Outcome of one request within a batch.

    Attributes:
        request: The request that produced this result.
        metrics: Latency/energy of the request executed on its own (the
            sequential-execution cost; batching never changes it).
        value: The result payload — the output vector of a bulk op, the
            packed result bits of a scan, or None for a copy.
        start_ns: When the schedule started the request, absolute against
            the batch's dispatch clock (``release_ns``; 0 for a directly
            executed batch).
        bank_ids: Identities of the banks the request occupied (real
            placement keys for placed vectors, modeled slots otherwise;
            empty for host-only work, which rides the dedicated host
            lane).
    """

    request: ServiceRequest
    metrics: OperationMetrics
    value: Optional[Union[BulkBitVector, np.ndarray]] = None
    start_ns: float = 0.0
    bank_ids: List = field(default_factory=list)

    @property
    def banks(self) -> int:
        """How many banks the request occupied."""
        return max(1, len(self.bank_ids))


@dataclass
class BatchResult:
    """Outcome of one :meth:`BatchExecutor.run` call.

    Attributes:
        results: One entry per request, in submission order.
        metrics: Aggregated batch metrics (overlapped and serial latency,
            total energy, total bytes).
    """

    results: List[RequestResult] = field(default_factory=list)
    metrics: Optional[BatchMetrics] = None

    def __len__(self) -> int:
        return len(self.results)

    def values(self) -> List[Optional[Union[BulkBitVector, np.ndarray]]]:
        """The result payloads in submission order."""
        return [r.value for r in self.results]
