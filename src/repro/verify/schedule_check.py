"""Race detector and accounting auditor for lane schedules.

The executor's correctness story says a :class:`~repro.service.lanes
.LaneSchedule` only ever *moves* work in time: requests serialize on each
bank lane, start no earlier than their dispatch, finish no later than the
batch-synchronous barrier would have finished them, and the busy/union/
overlap accounting is exactly what the placed intervals imply.  Nothing
checked that independently — until now the schedule produced both the
timeline *and* the accounting, so a bug would corrupt both consistently.

:class:`ScheduleSanitizer` is the independent checker: it replays the
schedule's interval log (:attr:`LaneSchedule.log`) through its own
deterministic timeline and certifies, per placement:

* **Bank hazards** — no two placements overlap on one lane (the PIM
  analogue of a data race: two requests driving the same bank's rows at
  once would be electrically meaningless);
* **Causality** — no start before the dispatch release, finish is exactly
  start + latency, the start matches the deterministic replay (any drift
  means the schedule and its log disagree), and every completion stays
  within the ``pipeline=False`` barrier bound — the batch's release (or
  the previous horizon) plus its serial latency — so pipelining provably
  never *delays* work;
* **Accounting conservation** — per-lane busy sums and horizons (of every
  lane recorded or replayed), the device-busy interval union, the
  cross-batch overlap, and the request count recorded by the schedule
  reconcile with the log that produced them.

The checker is *incremental*: an executor constructed with
``sanitize=True`` keeps one sanitizer per schedule, whose
:meth:`~ScheduleSanitizer.check` consumes the placements each new batch
appended, so certifying every dispatch is O(batch) in time and memory,
not O(history).  :func:`check_schedule` runs the same audit over a whole
schedule in one shot and leaves its log in place; with
``raise_on_error=False`` it collects the violations into its report
instead of raising the first.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional

from repro.verify.errors import (
    AccountingError,
    CausalityError,
    LaneHazardError,
    ScheduleVerifyError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily: repro.service.executor imports this module at its
    # top level, so a runtime import back into repro.service would cycle.
    from repro.service.lanes import LanePlacement, LaneSchedule

#: Lane key type (mirrors :data:`repro.service.lanes.LaneKey`, duplicated
#: here so the checker never imports the module it certifies at runtime).
LaneKey = Hashable


def _tolerance(value: float) -> float:
    """Absolute comparison slack for accumulated virtual-time floats."""
    slack = 1e-9 * (-value if value < 0.0 else value)
    return slack if slack > 1e-6 else 1e-6


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= _tolerance(max(abs(a), abs(b)))


class _IntervalUnion:
    """Disjoint sorted interval union (mirrors LaneSchedule's, independently)."""

    def __init__(self) -> None:
        self.total = 0.0
        self._starts: List[float] = []
        self._ends: List[float] = []

    def add(self, start: float, finish: float) -> None:
        if finish <= start:
            return
        starts, ends = self._starts, self._ends
        if not ends or start >= ends[-1]:  # in time order: nothing is re-covered
            if ends and start == ends[-1]:
                ends[-1] = finish
            else:
                starts.append(start)
                ends.append(finish)
            self.total += finish - start
            return
        i = bisect.bisect_left(ends, start)
        j = bisect.bisect_right(starts, finish)
        covered = 0.0
        new_start, new_end = start, finish
        for k in range(i, j):
            covered += max(0.0, min(ends[k], finish) - max(starts[k], start))
            new_start = min(new_start, starts[k])
            new_end = max(new_end, ends[k])
        self.total += (finish - start) - covered
        starts[i:j] = [new_start]
        ends[i:j] = [new_end]


@dataclass
class ScheduleCheckReport:
    """Outcome of auditing a lane schedule.

    Attributes:
        placements: Log entries audited.
        batches: Batch windows observed in the log.
        lanes: Distinct lanes the log touched.
        busy_union_ns: Independently recomputed device-busy union.
        cross_batch_overlap_ns: Independently recomputed overlap.
        per_lane_busy_ns: Independently recomputed per-lane busy sums.
        violations: Typed errors found (empty when the schedule is clean;
            only populated by a non-raising audit).
    """

    placements: int = 0
    batches: int = 0
    lanes: int = 0
    busy_union_ns: float = 0.0
    cross_batch_overlap_ns: float = 0.0
    per_lane_busy_ns: Dict[LaneKey, float] = field(default_factory=dict)
    violations: List[ScheduleVerifyError] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no invariant was violated."""
        return not self.violations


class ScheduleSanitizer:
    """Incremental replay checker over one schedule's interval log.

    Args:
        raise_on_error: Raise the first violation as its typed
            :class:`~repro.verify.errors.ScheduleVerifyError` subclass
            (the ``sanitize=True`` executor path).  When False, findings
            are collected into the report instead (the audit-report path);
            replay then continues from the *recorded* values so one defect
            does not cascade into dozens of derived findings.
    """

    def __init__(self, raise_on_error: bool = True) -> None:
        self.raise_on_error = raise_on_error
        self.violations: List[ScheduleVerifyError] = []
        self._consumed = 0
        self._horizon: Dict[LaneKey, float] = {}
        self._busy: Dict[LaneKey, float] = {}
        self._union = _IntervalUnion()
        self._overlap = 0.0
        self._batch_index: Optional[int] = None
        self._batch_prev_horizon = 0.0
        self._batch_release = 0.0
        self._batch_serial = 0.0
        self._batches_seen = 0

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def _fail(self, error: ScheduleVerifyError) -> None:
        if self.raise_on_error:
            raise error
        self.violations.append(error)

    def _replay(self, index: int, placed: LanePlacement) -> None:
        """Replay one placement and certify it against the log entry."""
        start, finish = placed.start_ns, placed.finish_ns
        latency, release = placed.latency_ns, placed.release_ns
        if latency < 0.0:
            self._fail(
                CausalityError(
                    f"placement {index} carries negative latency {latency}",
                    details={"placement": index},
                )
            )
        if placed.batch_index != self._batch_index:
            # A new batch window: everything before it is the "previous
            # batch" whose completion horizon bounds this batch's overlap
            # and barrier drift.
            self._batch_index = placed.batch_index
            self._batch_prev_horizon = max(self._horizon.values(), default=0.0)
            self._batch_release = release
            self._batch_serial = 0.0
            self._batches_seen += 1
        if release > self._batch_release:
            self._batch_release = release
        self._batch_serial += latency

        # One pass over the lanes: the hazard (starting before a lane it
        # occupies has drained would overlap two requests on that bank)
        # and the deterministic replay's start (released, all lanes
        # drained).
        horizon = self._horizon
        expected_start = release
        for key in placed.lanes:
            busy_until = horizon.get(key, 0.0)
            if start < busy_until and start < busy_until - _tolerance(busy_until):
                self._fail(
                    LaneHazardError(
                        f"placement {index} starts at {start} on lane "
                        f"{key!r} while it is busy until {busy_until}",
                        details={
                            "placement": index,
                            "lane": key,
                            "start_ns": start,
                            "busy_until_ns": busy_until,
                        },
                    )
                )
            if busy_until > expected_start:
                expected_start = busy_until

        # Causality: release <= start, finish = start + latency, and the
        # start equals the replay — any drift means schedule and log
        # disagree.
        if start < release and start < release - _tolerance(release):
            self._fail(
                CausalityError(
                    f"placement {index} starts at {start} before its "
                    f"release at {release}",
                    details={"placement": index},
                )
            )
        if not _close(finish, start + latency):
            self._fail(
                CausalityError(
                    f"placement {index} finish {finish} != start "
                    f"{start} + latency {latency}",
                    details={"placement": index},
                )
            )
        if not _close(start, expected_start):
            self._fail(
                CausalityError(
                    f"placement {index} starts at {start}, replay "
                    f"expects {expected_start} (schedule drift)",
                    details={
                        "placement": index,
                        "start_ns": start,
                        "expected_ns": expected_start,
                    },
                )
            )

        # Barrier bound: a pipeline=False executor would have started this
        # batch once every lane drained (or at its release, whichever is
        # later) and finished it within its serial latency — pipelining
        # may only move completions *earlier* than that.
        prev_horizon = self._batch_prev_horizon
        barrier_start = prev_horizon if prev_horizon > self._batch_release else self._batch_release
        bound = barrier_start + self._batch_serial
        if finish > bound and finish > bound + _tolerance(bound):
            self._fail(
                CausalityError(
                    f"placement {index} finishes at {finish}, past "
                    f"the batch-synchronous barrier bound {bound}",
                    details={
                        "placement": index,
                        "finish_ns": finish,
                        "barrier_bound_ns": bound,
                    },
                )
            )

        # Advance the replay timeline from the *recorded* values so a
        # collected (non-raising) violation does not cascade.
        busy = self._busy
        for key in placed.lanes:
            drained = horizon.get(key, 0.0)
            horizon[key] = finish if finish > drained else drained
            busy[key] = busy.get(key, 0.0) + latency
        self._union.add(start, finish)
        early = (finish if finish < prev_horizon else prev_horizon) - start
        if early > 0.0:
            self._overlap += early

    def _reconcile(self, schedule: LaneSchedule) -> None:
        """Certify the schedule's aggregate accounting against the replay."""
        if schedule.requests != self._consumed:
            self._fail(
                AccountingError(
                    f"schedule counts {schedule.requests} requests but its log "
                    f"holds {self._consumed} placements",
                    details={"requests": schedule.requests, "log": self._consumed},
                )
            )
        for key, busy in schedule.busy.items():
            replayed = self._busy.get(key, 0.0)
            if not _close(busy, replayed):
                self._fail(
                    AccountingError(
                        f"lane {key!r} records {busy} ns busy; its placements "
                        f"sum to {replayed} ns",
                        details={"lane": key, "recorded": busy, "replayed": replayed},
                    )
                )
        for key, horizon in schedule.horizon.items():
            replayed = self._horizon.get(key, 0.0)
            if not _close(horizon, replayed):
                self._fail(
                    AccountingError(
                        f"lane {key!r} horizon {horizon} != replayed {replayed}",
                        details={"lane": key, "recorded": horizon, "replayed": replayed},
                    )
                )
        # ...and the other way round: a lane that ran work stays on the books.
        for key in self._horizon:
            if key not in schedule.busy or key not in schedule.horizon:
                message = f"lane {key!r} ran placements the schedule no longer records"
                self._fail(AccountingError(message, details={"lane": key}))
        if not _close(schedule.busy_union_ns, self._union.total):
            self._fail(
                AccountingError(
                    f"device-busy union {schedule.busy_union_ns} ns does not "
                    f"reconcile with the placed intervals ({self._union.total} ns)",
                    details={
                        "recorded": schedule.busy_union_ns,
                        "replayed": self._union.total,
                    },
                )
            )
        # Cross-batch overlap is only accumulated onto *persistent*
        # (pipelined) schedules; a throwaway barrier schedule must record 0.
        expected_overlap = self._overlap if schedule.batches > 0 else 0.0
        if not _close(schedule.cross_batch_overlap_ns, expected_overlap):
            self._fail(
                AccountingError(
                    f"cross-batch overlap {schedule.cross_batch_overlap_ns} ns "
                    f"does not reconcile with the replay ({expected_overlap} ns)",
                    details={
                        "recorded": schedule.cross_batch_overlap_ns,
                        "replayed": expected_overlap,
                    },
                )
            )

    def _audit(self, schedule: LaneSchedule) -> List[LanePlacement]:
        """Replay the schedule's log, reconcile its accounting, and return
        the log.  A schedule that kept no log is a ``ValueError``:
        reconciling it against zero placements would read as corruption
        rather than the truth."""
        log = schedule.log
        if log is None:
            raise ValueError(
                "this schedule kept no interval log to audit: an executor logs "
                "placements only under sanitize=True (LaneSchedule(keep_log=False))"
            )
        for placed in log:
            self._replay(self._consumed, placed)
            self._consumed += 1
        self._reconcile(schedule)
        return log

    def check(self, schedule: LaneSchedule) -> ScheduleCheckReport:
        """Audit the placements logged since the last check, consuming them
        from the log, and the aggregate accounting; returns the
        (cumulative) report."""
        log = self._audit(schedule)
        del log[:]
        return self.report()

    def report(self) -> ScheduleCheckReport:
        """Snapshot of everything audited so far."""
        return ScheduleCheckReport(
            placements=self._consumed,
            batches=self._batches_seen,
            lanes=len(self._horizon),
            busy_union_ns=self._union.total,
            cross_batch_overlap_ns=self._overlap,
            per_lane_busy_ns=dict(self._busy),
            violations=list(self.violations),
        )


def check_schedule(
    schedule: LaneSchedule, raise_on_error: bool = True
) -> ScheduleCheckReport:
    """Audit one whole lane schedule in a single pass.

    Args:
        schedule: The schedule to audit (its full interval log is
            replayed, and kept).
        raise_on_error: Raise the first violation (default), or collect
            every finding into the returned report's ``violations``.

    Returns:
        The audit report (clean, or carrying the collected violations).

    Raises:
        ScheduleVerifyError: A typed subclass naming the first violated
            invariant, when ``raise_on_error``.
    """
    sanitizer = ScheduleSanitizer(raise_on_error=raise_on_error)
    sanitizer._audit(schedule)
    return sanitizer.report()
