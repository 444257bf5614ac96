"""A retrying client model: rejected requests re-offer after backoff.

Admission control turns overload into rejections; a real client does not
let its request vanish — it backs off exponentially and offers it again.
:class:`RetryClient` models exactly that on the frontend's virtual clock:
every rejected offer is rescheduled ``base_ns * multiplier**attempt``
later (with optional seeded jitter to de-synchronize retry storms), up to
``max_attempts`` total tries.  The deadline, priority, and the request
itself are preserved across attempts — only the arrival time moves.

Two fault-tolerance refinements: the retry budget is **deadline-aware**
(a retry whose backoff delay would land past the request's deadline is
not offered at all — the budget is the remaining slack, not a fixed
attempt count), and jitter draws are **keyed** per (request, attempt)
from the client seed, so the de-synchronization is deterministic on the
virtual clock and independent of the order retries interleave — exactly
what keeps a post-failure retry storm from re-spiking the surviving
shards in lockstep.

The client drives a :class:`~repro.api.session.PimSession` — one it is
handed, or one it opens over anything that speaks the
:class:`~repro.api.backends.Backend` protocol (the single-device
:class:`~repro.service.frontend.ServiceFrontend`, the sharded
:class:`~repro.cluster.frontend.ClusterFrontend`, the serial
:class:`~repro.api.backends.HostBackend`) — with one ``submit`` per
attempt, so the session's report counts every attempt.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.service.frontend import ArrivalEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.backends import Backend
    from repro.api.session import PimSession, SessionReport


@dataclass
class BackoffPolicy:
    """Exponential backoff with optional jitter.

    Attributes:
        base_ns: Delay before the first retry.
        multiplier: Growth factor per attempt (2.0 = classic doubling).
        max_attempts: Total tries (first offer included); 1 disables
            retrying.
        jitter: Fractional spread: each delay is scaled by a uniform
            draw from ``[1 - jitter, 1 + jitter]``.  0 is deterministic.
    """

    base_ns: float = 5_000.0
    multiplier: float = 2.0
    max_attempts: int = 4
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base_ns <= 0:
            raise ValueError("base_ns must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay_ns(self, attempt: int, *, seed: int = 0, key: int = 0) -> float:
        """Backoff before retry number ``attempt`` (1-based).

        Jitter draws come from a generator keyed on ``(seed, key,
        attempt)`` — every (request, attempt) pair gets its own
        deterministic draw, independent of the order retries pop off the
        virtual-time heap.  Keyed jitter is what de-synchronizes the
        retry storm after a shard failure: the victims' re-offers spread
        over the backoff window instead of landing on the survivors in
        one spike.
        """
        delay = self.base_ns * self.multiplier ** (attempt - 1)
        if self.jitter > 0.0:
            rng = np.random.default_rng((seed, key, attempt))
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


@dataclass
class RetryRecord:
    """One logical request's journey through its offer attempts.

    Attributes:
        event: The original arrival.
        attempts: The frontend envelope of every offer, in attempt order
            (the last one is the final outcome).
    """

    event: ArrivalEvent
    attempts: List = field(default_factory=list)

    @property
    def final(self):
        """The envelope of the last attempt."""
        return self.attempts[-1]

    @property
    def delivered(self) -> bool:
        """True when some attempt was admitted."""
        return self.final.admitted

    @property
    def retries(self) -> int:
        """Re-offers beyond the first attempt."""
        return len(self.attempts) - 1

    @property
    def gave_up(self) -> bool:
        """True when every attempt was rejected."""
        return not self.delivered


@dataclass
class RetryOutcome:
    """Outcome of serving a stream through a retrying client.

    Attributes:
        result: The driven session's report: every attempt is one of its
            requests.
        records: Per logical request, its attempts.
    """

    result: Optional["SessionReport"]
    records: List[RetryRecord] = field(default_factory=list)

    @property
    def delivered(self) -> int:
        return sum(1 for r in self.records if r.delivered)

    @property
    def delivered_after_retry(self) -> int:
        """Requests that only got in thanks to a retry."""
        return sum(1 for r in self.records if r.delivered and r.retries > 0)

    @property
    def gave_up(self) -> int:
        return sum(1 for r in self.records if r.gave_up)

    @property
    def total_attempts(self) -> int:
        return sum(len(r.attempts) for r in self.records)


class RetryClient:
    """Drives a session, re-offering rejected requests after backoff.

    Args:
        frontend: A :class:`~repro.api.session.PimSession`, whose futures
            the attempts join, or any :class:`~repro.api.backends.Backend`
            — a :class:`ServiceFrontend`, a
            :class:`~repro.cluster.frontend.ClusterFrontend`, a
            :class:`~repro.api.backends.HostBackend` — which each
            :meth:`run` drives through a session of its own.
        policy: Backoff schedule (defaults to 5 µs doubling, 4 attempts).
        seed: Seed of the jitter draws.
    """

    def __init__(
        self,
        frontend: Union["Backend", "PimSession"],
        policy: Optional[BackoffPolicy] = None,
        seed: int = 0,
    ) -> None:
        self.frontend = frontend
        self.policy = policy or BackoffPolicy()
        self.seed = seed
        #: Retries skipped because the remaining deadline slack could not
        #: cover the backoff delay (the attempt budget was cut short).
        self.deadline_exhausted = 0

    def run(self, events: Iterable[ArrivalEvent], name: str = "retry_client") -> RetryOutcome:
        """Serve a stream, retrying rejections, and report both views.

        Offers are processed in virtual-time order across first offers and
        retries together; the backend serves batches in between exactly
        as it would for a plain arrival stream.
        """
        from repro.api.session import PimSession  # local: avoid cycle

        session = self.frontend
        if not isinstance(session, PimSession):
            session = PimSession(session)
        outcome = RetryOutcome(result=None)
        heap: List[Tuple[float, int, int, RetryRecord]] = []
        for i, event in enumerate(sorted(events, key=lambda e: e.arrival_ns)):
            record = RetryRecord(event=event)
            outcome.records.append(record)
            heapq.heappush(heap, (event.arrival_ns, i, 1, record))
        while heap:
            offer_ns, key, attempt, record = heapq.heappop(heap)
            envelope = session.submit(
                record.event.request,
                priority=record.event.priority,
                deadline_ns=record.event.deadline_ns,
                at_ns=offer_ns,
            ).record
            record.attempts.append(envelope)
            if not envelope.admitted and attempt < self.policy.max_attempts:
                # Jitter is keyed per (request, attempt): deterministic,
                # order-independent, and de-synchronized across victims
                # of the same shard failure.
                delay = self.policy.delay_ns(
                    attempt, seed=self.seed, key=key
                )
                deadline = record.event.deadline_ns
                if deadline is not None and offer_ns + delay >= deadline:
                    # The remaining slack cannot cover the backoff: the
                    # retry would arrive already late, so the budget is
                    # capped here rather than wasting a doomed offer.
                    self.deadline_exhausted += 1
                    continue
                heapq.heappush(heap, (offer_ns + delay, key, attempt + 1, record))
        session.drain()
        outcome.result = session.report(name)
        return outcome
