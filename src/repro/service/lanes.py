"""Persistent per-bank lane timelines for cross-batch pipelining.

A :class:`LaneSchedule` carries one *lane* per schedulable resource — each
DRAM bank the executor rotates work onto, plus one dedicated
:data:`HOST_LANE` for work that never touches a bank — and remembers each
lane's **busy-until horizon** *across* batches.  That persistence is what
replaces the batch-synchronous barrier: when the executor dispatches a new
batch, requests bound for banks the previous batch has already drained
start immediately, while requests bound for a still-busy bank queue behind
that lane's horizon.  Within one dependency chain nothing moves — a
request still occupies all of its banks for its full sequential latency,
and requests contending for a bank serialize in dispatch order — so lane
pipelining changes *when* work runs, never *what* it computes or what the
hardware is charged.  A lowered conjunction's chain is placed as one
*run*: its steps occupy the same banks back to back, in chain order.

Besides the horizons, the schedule keeps the accounting that makes the
pipelining win measurable:

* **per-lane busy time** — the sequential latency charged onto each lane,
  from which per-lane utilization and the bank idle fraction derive;
* **device-busy union** — the union of all scheduled ``[start, finish)``
  intervals across lanes, i.e. the virtual time during which *any* lane
  was busy.  This is the honest "busy" for throughput math: summing batch
  makespans would double-count the overlap pipelining creates;
* **cross-batch overlap** — the portion of each batch's work that ran
  before the previous batch's completion horizon, which is exactly the
  time the barrier used to waste.

With ``keep_log`` (an executor's schedules: only under ``sanitize=True``)
every placement is additionally appended to an **interval log**
(:attr:`LaneSchedule.log` of :class:`LanePlacement` entries) — the primary
input of the schedule race detector
(:mod:`repro.verify.schedule_check`), which replays the log to certify
that no two requests overlapped on a lane, that causality held (no start
before release, completions within the barrier bound), and that the
busy/union/overlap accounting above reconciles with the placements that
produced it (and, on an executor's log, consumes them batch by batch).
Without that reader, :meth:`place` builds and keeps nothing.

The schedule is deliberately policy-free: the executor decides lane
membership (bank assignment) and places in submission order, the frontend
decides dispatch instants; :meth:`place` only advances the timelines.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.metrics import LaneMetrics

#: Lane key of work that runs host-side and occupies no DRAM bank.  Kept a
#: string so it can never collide with the device's ``(channel, rank,
#: bank)`` tuple keys — host-only bulk operations must not contend with
#: real bank-0 traffic.
HOST_LANE = "host"

#: Key type of a lane: a device bank key tuple, or :data:`HOST_LANE`.
LaneKey = Hashable


@dataclass(frozen=True, slots=True)
class LanePlacement:
    """One scheduled request interval, as the race detector consumes it.

    Attributes:
        lanes: Lane keys the request occupied (all for ``latency_ns``).
        latency_ns: Sequential latency charged to every occupied lane.
        release_ns: Dispatch instant the placement was released at.
        start_ns: Scheduled start (release + queueing behind lanes).
        finish_ns: Scheduled finish (``start_ns + latency_ns``).
        batch_index: Which :meth:`LaneSchedule.open_batch` window the
            placement belongs to (0 before any batch was opened).
    """

    lanes: Tuple[LaneKey, ...]
    latency_ns: float
    release_ns: float
    start_ns: float
    finish_ns: float
    batch_index: int


class LaneSchedule:
    """Per-lane busy-until timelines that persist across batches.

    Args:
        lane_keys: Lanes to pre-create (the executor's active bank keys).
            Further lanes — notably :data:`HOST_LANE` — are created lazily
            the first time work is placed on them.
        keep_log: Keep the interval log the race detector replays (the
            executor passes its ``sanitize``).
    """

    def __init__(self, lane_keys: Iterable[LaneKey] = (), keep_log: bool = True) -> None:
        #: Busy-until horizon per lane (absolute virtual ns).
        self.horizon: Dict[LaneKey, float] = {key: 0.0 for key in lane_keys}
        #: Total busy time charged per lane.
        self.busy: Dict[LaneKey, float] = {key: 0.0 for key in self.horizon}
        #: Virtual time during which at least one lane was busy (the union
        #: of all placed intervals).
        self.busy_union_ns = 0.0
        #: Work that ran before the previous batch's completion horizon.
        self.cross_batch_overlap_ns = 0.0
        #: Requests placed across the schedule's lifetime.
        self.requests = 0
        #: Batches dispatched across the schedule's lifetime.
        self.batches = 0
        #: Interval log of placements, in placement order — the schedule
        #: race detector's input, less what its incremental check has
        #: consumed (see module docstring); None when the schedule was
        #: built without one.
        self.log: Optional[List[LanePlacement]] = [] if keep_log else None
        #: Batch windows opened via :meth:`open_batch` (stamps the log).
        self.batches_opened = 0
        # Disjoint, sorted union intervals (parallel start/end arrays).
        self._starts: List[float] = []
        self._ends: List[float] = []

    # ------------------------------------------------------------------
    # Horizons
    # ------------------------------------------------------------------
    def lane_horizon_ns(self, key: LaneKey) -> float:
        """Busy-until horizon of one lane (0 for an untouched lane)."""
        return self.horizon.get(key, 0.0)

    def horizon_ns(self) -> float:
        """The overall completion horizon (the busiest lane's)."""
        return max(self.horizon.values(), default=0.0)

    def ready_ns(self) -> float:
        """Earliest instant some *bank* lane is idle — the dispatch gate.

        A pipelined frontend may dispatch its next batch as soon as any
        bank has drained (the batch's requests on still-busy banks simply
        queue behind those lanes); the host lane never gates dispatch.
        """
        return min(
            (h for key, h in self.horizon.items() if key != HOST_LANE),
            default=0.0,
        )

    def lane_load_ns(self, keys: Iterable[LaneKey]) -> float:
        """Latest busy-until horizon over ``keys`` (0 if all untouched).

        The batch plan optimizer prices candidate bank offsets with this
        when spreading a request's independent sub-chains: a sub-chain
        lands on the lanes that drain first.
        """
        return max((self.horizon.get(key, 0.0) for key in keys), default=0.0)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def open_batch(self) -> int:
        """Open the next batch window; subsequent placements are stamped
        with its index.  Purely bookkeeping for the interval log (and the
        race detector's per-batch barrier bound); horizons are untouched.
        """
        self.batches_opened += 1
        return self.batches_opened

    def place(
        self,
        lanes: Sequence[LaneKey],
        latencies: Sequence[float],
        release_ns: float = 0.0,
    ) -> Tuple[float, float]:
        """Place a run of steps on its lanes; returns the run's ``(start, end)``.

        The run starts once it is released *and* every one of its lanes
        has drained; step ``k`` then occupies all of them from where step
        ``k - 1`` finished, accounted as if placed on its own.  A lone
        request is a run of one.
        """
        if not latencies:
            raise ValueError("a run needs at least one step")
        horizon, busy, log = self.horizon, self.busy, self.log
        start = release_ns
        for key in lanes:
            drained = horizon.get(key, 0.0)
            if drained > start:
                start = drained
        end = start
        for latency in latencies:
            finish = end + latency
            for key in lanes:
                busy[key] = busy.get(key, 0.0) + latency
            self._add_interval(end, finish)
            self.requests += 1
            if log is not None:
                log.append(
                    LanePlacement(
                        tuple(lanes), latency, release_ns, end, finish, self.batches_opened
                    )
                )
            end = finish
        for key in lanes:
            horizon[key] = end
        return start, end

    def _add_interval(self, start: float, finish: float) -> float:
        """Fold ``[start, finish)`` into the busy union; returns the ns added."""
        if finish <= start:
            return 0.0
        starts, ends = self._starts, self._ends
        if not ends or start >= ends[-1]:
            # Nothing scheduled at or after `start` yet — the common case
            # of a stream placed in time order: the interval opens a new
            # union segment, or extends the last one it touches.  Zero
            # overlap, so `added` is what the general path computes.
            if ends and start == ends[-1]:
                ends[-1] = finish
            else:
                starts.append(start)
                ends.append(finish)
            added = finish - start
            self.busy_union_ns += added
            return added
        i = bisect.bisect_left(ends, start)
        j = bisect.bisect_right(starts, finish)
        overlap = 0.0
        new_start, new_end = start, finish
        for k in range(i, j):
            overlap += max(0.0, min(ends[k], finish) - max(starts[k], start))
            new_start = min(new_start, starts[k])
            new_end = max(new_end, ends[k])
        added = (finish - start) - overlap
        starts[i:j] = [new_start]
        ends[i:j] = [new_end]
        self.busy_union_ns += added
        return added

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics(self, name: str = "lanes") -> LaneMetrics:
        """Snapshot the lane accounting into a :class:`LaneMetrics`."""
        return LaneMetrics(
            name=name,
            lanes=len(self.horizon),
            span_ns=self.horizon_ns(),
            busy_union_ns=self.busy_union_ns,
            cross_batch_overlap_ns=self.cross_batch_overlap_ns,
            requests=self.requests,
            batches=self.batches,
            per_lane_busy_ns=dict(self.busy),
            host_lane_key=HOST_LANE,
        )
