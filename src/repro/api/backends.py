"""The ``Backend`` protocol and the serial host-CPU backend.

:class:`Backend` is the ``clock_ns`` / ``offer`` / ``advance_to`` /
``drain`` surface every execution tier speaks and the only thing a
:class:`~repro.api.session.PimSession` needs.  A backend keeps no history:
the session holds the envelopes it submitted and rolls them up
(:meth:`~repro.api.session.PimSession.report`).

Three implementations exist today:

* :class:`~repro.service.frontend.ServiceFrontend` — one device, full
  admission control, batched bank-overlapped execution;
* :class:`~repro.cluster.frontend.ClusterFrontend` — N devices behind
  scatter-gather routing;
* :class:`HostBackend` (here) — the no-PIM baseline: every scan and
  conjunction runs serially on the host CPU's cache-aware cost model.
  It admits everything (a host has no bank occupancy to protect) and
  serves each request the instant it arrives: a single-server FIFO
  queue.

Because all three speak the protocol, the *same* client code — a
session, a retry client, an arrival schedule — runs an identical
workload against any tier, which is the paper's end-to-end comparison
made into an API.
"""

from __future__ import annotations

from typing import Optional, Protocol, runtime_checkable

from repro.database.queries import QueryEngine
from repro.service.requests import (
    BitmapConjunctionRequest,
    FrontendRequest,
    QueuedRequest,
    ScanRequest,
    check_request_type,
    checked_arrival,
)

_HOST_REFUSAL = "the host backend serves scans and conjunctions, not"


@runtime_checkable
class Backend(Protocol):
    """The execution surface every tier offers a session.

    A backend owns a virtual clock (``clock_ns``), admits requests with
    :meth:`offer` (returning a duck-typed envelope carrying ``admitted``,
    ``rejected_reason``, ``completed``, ``value``, ``metrics`` and the
    wait/sojourn accounting), and serves queued work as its clock
    advances — settling each envelope the instant its outcome is known, so
    what a caller reads off one is never stale.  It keeps no envelope once
    settled: whoever offered one holds it.

    The three tiers here also offer ``check_request(request)``, raising
    for a request :meth:`offer` would refuse outright (a type the tier
    does not serve, row ids the table cannot take); :meth:`offer` runs it
    before recording anything, and a session runs it — when the backend
    has one — before its pre-arrival :meth:`advance_to`.
    """

    clock_ns: float

    def offer(
        self,
        request: FrontendRequest,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        arrival_ns: Optional[float] = None,
    ):
        """Admit one request at its arrival time; returns its envelope."""
        ...

    def advance_to(self, until_ns: float) -> None:
        """Advance the virtual clock towards ``until_ns``, serving work."""
        ...

    def drain(self) -> None:
        """Serve everything queued."""
        ...


class HostBackend:
    """Serial host-CPU execution behind the :class:`Backend` protocol.

    The host baseline the paper argues against: scans and conjunctions
    are evaluated functionally on the host and charged at the CPU scan
    cost model (cache-resident fraction, de-rated DRAM bandwidth — see
    :meth:`QueryEngine.cpu_scan_cost`).  A single core offers no bank
    overlap, so service is a FIFO single-server queue: each request
    starts at ``max(clock, arrival)`` and occupies the server for its
    full scan latency.  Admission never rejects — the envelope surface
    (waits, sojourns, deadline misses) still fills in, so host and PIM
    tiers report through one shape.

    Args:
        coster: Query cost model supplying ``cpu_scan_cost`` (a default
            :class:`QueryEngine` is created when omitted).
    """

    def __init__(self, coster: Optional[QueryEngine] = None) -> None:
        self.coster = coster or QueryEngine()
        self.clock_ns = 0.0
        self._seq = 0

    @staticmethod
    def check_request(request: object) -> None:
        """Refuse (``TypeError``) anything but a scan or a conjunction,
        before anything is recorded or the clock moves."""
        check_request_type(request, (ScanRequest, BitmapConjunctionRequest), _HOST_REFUSAL)

    def offer(
        self,
        request: FrontendRequest,
        priority: int = 0,
        deadline_ns: Optional[float] = None,
        arrival_ns: Optional[float] = None,
    ) -> QueuedRequest:
        """Serve one request immediately (FIFO single server, no rejection)."""
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
        value, metrics = self._execute(request)
        queued.modeled_ns = metrics.latency_ns
        queued.start_ns = self.clock_ns
        queued.finish_ns = queued.start_ns + metrics.latency_ns
        queued.metrics = metrics
        queued.value = value
        self.clock_ns = queued.finish_ns
        return queued

    def _execute(self, request: FrontendRequest):
        if isinstance(request, ScanRequest):
            bits, plan = request.scan_result()
            return bits, self.coster.cpu_scan_cost(plan)
        if isinstance(request, BitmapConjunctionRequest):
            bits, plan = request.index.evaluate_conjunction(list(request.predicates))
            return bits, self.coster.cpu_scan_cost(plan)
        raise TypeError(f"{_HOST_REFUSAL} {type(request).__name__}")

    def advance_to(self, until_ns: float) -> None:
        """No-op: host service is synchronous, nothing is ever queued."""

    def drain(self) -> None:
        """No-op: host service is synchronous, nothing is ever queued."""
