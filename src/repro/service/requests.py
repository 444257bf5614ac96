"""Request and result types of the bulk-operation service layer.

A request describes one unit of client work — an Ambit bulk bitwise
operation, a BitWeaving predicate scan, a RowClone bulk copy, or a
high-level bitmap-index conjunction — without saying anything about *when*
or *where* it runs.  The pipeline stages consume these types in order:

* the :class:`~repro.service.frontend.ServiceFrontend` wraps each request
  in a :class:`QueuedRequest` envelope carrying its arrival time, priority
  and deadline;
* the :class:`~repro.service.planner.BatchPlanner` *lowers* high-level
  requests into the primitive kinds — a :class:`BitmapConjunctionRequest`
  into one planner-internal :class:`BoundChain` (under the optimizer, one
  per predicate sub-chain);
* the :class:`~repro.service.executor.BatchExecutor` runs primitives and
  returns one :class:`RequestResult` per request plus batch aggregates.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.analysis.metrics import BatchMetrics, OperationMetrics, PlanCounts
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn, ScanPlan
from repro.rowclone.engine import CopyMode

def _is_int(value: object) -> bool:
    """An integer that is not a bool (NumPy's integer scalars included).
    Callers test ``type(value) is int`` first: the ABC check costs calls."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


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
    #: the same hint contend for the same modeled banks.  A host-only op
    #: without one runs on the host lane.
    bank_offset: Optional[int] = None


@dataclass(slots=True)
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
        # Construction is the API boundary: a constant the column cannot
        # compare against is refused here, not by the evaluation that
        # admission prices after the envelope was recorded.
        if self.kind not in SCAN_KINDS:
            raise ValueError(f"unknown scan kind {self.kind!r}")
        expected = 2 if self.kind == "between" else 1
        if len(self.constants) != expected:
            raise ValueError(
                f"{self.kind} takes {expected} constant(s), got {len(self.constants)}"
            )
        bits = self.column.num_bits
        for constant in self.constants:
            if type(constant) is not int and not _is_int(constant):
                raise TypeError(f"scan constants must be ints, not {constant!r}")
            if not 0 <= constant < 1 << bits:
                raise ValueError(f"constant {constant} does not fit in {bits} bits")
        if expected == 2 and self.constants[0] > self.constants[1]:
            raise ValueError("low must be <= high")

    def scan_result(self) -> Tuple[np.ndarray, ScanPlan]:
        """(packed expected bits, plan) — evaluated once and cached so the
        planner's latency model and the executor share one evaluation."""
        if self._scan_cache is None:
            self._scan_cache = self.column.scan(self.kind, *self.constants)
        return self._scan_cache


@dataclass(slots=True)
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


def check_copy_request(request: CopyRequest) -> None:
    """Refuse a copy RowClone cannot price: ``num_bytes`` must be a
    non-negative integer (a bool is not one) and ``mode`` a
    :class:`CopyMode`.  ``num_bytes=0`` is a valid, one-row copy."""
    num_bytes = request.num_bytes
    if not _is_int(num_bytes):
        raise TypeError(f"CopyRequest.num_bytes must be an int, not {num_bytes!r}")
    if num_bytes < 0:
        raise ValueError(f"CopyRequest.num_bytes must be non-negative, got {num_bytes}")
    if not isinstance(request.mode, CopyMode):
        raise TypeError(f"CopyRequest.mode must be a CopyMode, not {request.mode!r}")


#: Primitive request kinds the executor runs directly.
ServiceRequest = Union[BulkOpRequest, ScanRequest, CopyRequest]


@dataclass(slots=True)
class BoundChain:
    """A lowered conjunction's bound steps, or one of the optimizer's
    predicate sub-chains, run and placed as one primitive (planner-internal:
    not a :data:`FrontendRequest`).  As one run on its banks, no schedule
    can put a consumer step before its producers.

    A chain whose answer is already current is *priced-only*: ``steps`` is
    empty, and it is charged and placed exactly as its bound twin while
    nothing runs.  So is every plane-maintenance charge (a write's, a lazy
    rebuild's): N ``or`` prices, placed as N back-to-back one-op requests
    would be.  Count a chain's steps with ``prices``, not ``steps``.

    Attributes:
        steps: The bound ``(op, a, b, out)`` steps, data-dependent in order
            (empty for a priced-only chain).
        bank_offset: The index's stable bank offset (the offset the
            optimizer chose, for a sub-chain).
        prices / latencies: Each step's ``op_cost`` and latency (per shape).
        serial: :class:`OperationMetrics` fields of the chain's roll-up.
        rows: Device rows each of the chain's vectors spans.
    """

    steps: List[Tuple[str, BulkBitVector, BulkBitVector, BulkBitVector]]
    bank_offset: int
    prices: Tuple[OperationMetrics, ...]
    latencies: Tuple[float, ...]
    serial: Tuple[Any, ...]
    rows: int


#: What the executor runs: a primitive request or a lowered chain.
Primitive = Union[ServiceRequest, BoundChain]


def checked_non_negative(name: str, value: float) -> float:
    """``value`` as a float, refused unless finite and non-negative.

    The check behind every arrival stamp a caller hands in: NaN passes
    any ``< 0`` guard and then poisons every clock it is added to,
    stranding requests in no terminal state.
    """
    value = float(value)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def checked_arrival(
    clock_ns: float,
    arrival_ns: Optional[float],
    deadline_ns: Optional[float],
    priority: int = 0,
) -> float:
    """The arrival instant of one offer: ``arrival_ns``, or the backend's
    ``clock_ns`` when the offer is unstamped.

    Every backend's ``offer`` resolves its arrival here, before it appends
    a record or moves its clock: a NaN or infinite arrival would poison
    the clock and every percentile of the window, a negative one predates
    the clock's origin, and a NaN deadline can never be missed.  The
    offer's ``priority`` must be an ``int`` (a bool, a float or NaN is
    refused): the queue orders on it, and would raise only after the
    envelope was recorded.

    Two stamps are legal on purpose.  An arrival earlier than
    ``clock_ns``: a barrier executor's clock overshoots the arrivals it
    serves (a batch ends past the next stamp), so a stream replayed at its
    own stamps lands behind it; the request queues at the live clock and
    its wait and sojourn count from its stamp.  A deadline before its
    arrival: the request is admitted and, once served, reported missed
    (``deadline_missed``).
    """
    if type(priority) is not int and not _is_int(priority):
        raise TypeError(f"priority must be an int, not {priority!r}")
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


@dataclass(slots=True)
class BitmapConjunctionRequest:
    """One bitmap-index conjunction: ``AND`` of per-column ``IN`` predicates.

    This is a *high-level* request: the executor does not understand it.
    The :class:`~repro.service.planner.BatchPlanner` lowers it — binding
    the :class:`repro.api.plans.CompiledChain` of its predicates — into
    one :class:`BoundChain` (the OR of each predicate's value bitmaps,
    then the AND across predicates), pinned to its index's bank offset and
    placed as one run, so the data-dependent steps serialize on its banks.

    Construction is the API boundary: a predicate the index cannot answer
    raises here, not inside ``serve_batch`` after its batch was popped — a
    column the index does not cover (``KeyError``), a value that is not a
    non-bool ``int`` (``TypeError``) or a negative one (``ValueError``).
    A code at or past the column's cardinality is a value no row holds
    yet: it matches nothing until a write adds it.  Predicates that are
    already a tuple of ``(str, non-empty tuple)`` pairs are kept as given.

    Attributes:
        index: The bitmap source holding the per-value bitmaps (a
            :class:`BitmapIndex` or a shard view of one).
        predicates: (column, values) pairs; each contributes an ``IN``.
    """

    index: BitmapIndex
    predicates: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        predicates = self.predicates
        if not predicates:
            raise ValueError("predicates must not be empty")
        # Rebuilt only when the caller's object is not already normalized.
        normalized: Optional[list] = None if type(predicates) is tuple else []
        for k, pair in enumerate(predicates):
            column, values = pair
            if normalized is None and not (
                type(pair) is tuple and type(column) is str and type(values) is tuple
            ):
                normalized = list(predicates[:k])
            values = values if type(values) is tuple else tuple(values)
            if not values:
                raise ValueError(f"predicate on {column!r} has no values")
            for value in values:
                if type(value) is not int and not _is_int(value):
                    raise TypeError(f"predicate value on {column!r} must be an int, not {value!r}")
                if value < 0:
                    raise ValueError(f"predicate value on {column!r} must not be negative: {value}")
            if normalized is not None:
                normalized.append((column, values))
        if normalized is not None:
            self.predicates = tuple(normalized)
        self.index.check_predicates(self.predicates)


#: Everything the frontend accepts (primitives plus high-level requests).
FrontendRequest = Union[ServiceRequest, BitmapConjunctionRequest]


@dataclass(slots=True)
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
    #: cross-lane sub-chain joins on a queue entry, the gather merge tree
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


@dataclass(slots=True)
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
    #: backlog vector.  Shared with the executor's span memo: read-only.
    modeled_banks: Sequence = ()
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
        bank_ids: Identities of the lanes the request occupied (real
            placement keys for placed vectors, the executor's shared span
            tuple for modeled slots; ``[HOST_LANE]`` for host-only work).
        end_ns: When the schedule finished the request's run (its last
            step), on the same clock as ``start_ns``.
    """

    request: Primitive
    metrics: OperationMetrics
    value: Optional[Union[BulkBitVector, np.ndarray]] = None
    start_ns: float = 0.0
    bank_ids: Sequence = ()
    end_ns: float = 0.0

    @property
    def banks(self) -> int:
        """How many banks the request occupied."""
        return max(1, len(self.bank_ids))

    @property
    def step_prices(self) -> Tuple[OperationMetrics, ...]:
        """What each step of the run was charged, in order: a chain's
        prices, else the request's own metrics (a run of one)."""
        request = self.request
        return request.prices if type(request) is BoundChain else (self.metrics,)


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
