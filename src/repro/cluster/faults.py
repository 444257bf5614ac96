"""Deterministic virtual-clock fault injection for the cluster tier.

A :class:`FaultPlan` is a *schedule* of shard lifecycle events — kills,
revivals, drains, retirements, joins — pinned to absolute nanosecond
timestamps on the cluster's virtual clock.  The plan is pure data: it
never advances time itself.  The cluster frontend owns the clock and
asks the plan two questions while it advances:

* :meth:`FaultPlan.next_fire_ns` — when is the next timed event due?
  The frontend advances its shards *to that instant* before firing, so a
  kill lands at exactly its scheduled time: batches dispatched before it
  complete (fail-stop at the dispatch boundary), work still queued on
  the victim migrates at the kill instant.
* :meth:`FaultPlan.fire_due` — apply every event due at or before
  ``now`` (in timestamp order; ties break in plan order).

Everything here is deterministic: same plan + same arrival stream →
same fault timeline, which is what makes the bit-exactness property in
``tests/test_cluster_faults.py`` checkable at all.  Wall-clock and
host-randomness imports are banned by the ``obs-wall-clock`` rule in
``tools/lint_invariants.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.frontend import ClusterFrontend

#: Shard lifecycle actions a fault event may apply.
FAULT_ACTIONS = ("kill", "revive", "drain", "retire", "join")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled shard lifecycle event.

    Attributes:
        at_ns: Absolute virtual-clock instant the event fires.
        action: One of :data:`FAULT_ACTIONS`.
        shard_id: The victim/subject shard (ignored for ``"join"``,
            which always grows the pool by one).
    """

    at_ns: float
    action: str
    shard_id: int = -1

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r} (one of {FAULT_ACTIONS})"
            )
        if self.at_ns < 0.0:
            raise ValueError("at_ns must be non-negative")
        if self.action != "join" and self.shard_id < 0:
            raise ValueError(f"{self.action!r} needs a shard_id")


@dataclass(frozen=True)
class FaultLogEntry:
    """One applied fault, for post-run audit.

    Attributes:
        at_ns: When the action was applied.
        action: What was applied.
        shard_id: The subject shard (the *new* shard id for a join).
        applied: False when the action was a no-op (e.g. killing an
            already-dead shard).
    """

    at_ns: float
    action: str
    shard_id: int
    applied: bool


class FaultPlan:
    """An ordered schedule of fault events.

    Args:
        events: Timed events, any order (sorted internally by
            ``(at_ns, insertion order)``).
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        stamped = list(events)
        self._pending: List[Tuple[float, int, FaultEvent]] = sorted(
            ((event.at_ns, i, event) for i, event in enumerate(stamped)),
            key=lambda item: (item[0], item[1]),
        )
        #: Applied-action audit log, in firing order.
        self.log: List[FaultLogEntry] = []

    # ------------------------------------------------------------------
    # Schedule surface (consumed by ClusterFrontend.advance_to/drain)
    # ------------------------------------------------------------------
    @property
    def pending(self) -> List[FaultEvent]:
        """Timed events not yet fired, soonest first."""
        return [event for _, _, event in self._pending]

    def next_fire_ns(self) -> Optional[float]:
        """Instant of the next timed event; None when none remain."""
        return self._pending[0][0] if self._pending else None

    def fire_due(self, cluster: "ClusterFrontend", now_ns: float) -> int:
        """Apply every timed event due at or before ``now_ns``; returns
        how many fired.  The caller must have advanced the cluster's
        shards to the event instant first (see module docstring)."""
        fired = 0
        while self._pending and self._pending[0][0] <= now_ns:
            _, _, event = self._pending.pop(0)
            self._apply(cluster, event)
            fired += 1
        return fired

    def poll(self, cluster: "ClusterFrontend", now_ns: float) -> int:
        """Always 0, and nothing calls it: kept only because the frozen
        ``perf/tracing.py`` wraps it by name."""
        return 0

    # ------------------------------------------------------------------
    # Action application
    # ------------------------------------------------------------------
    def _apply(self, cluster: "ClusterFrontend", event: FaultEvent) -> None:
        action, shard_id, at_ns = event.action, event.shard_id, event.at_ns
        if action == "kill":
            applied = cluster.fail_shard(shard_id, at_ns=at_ns)
        elif action == "revive":
            applied = cluster.revive_shard(shard_id, at_ns=at_ns)
        elif action == "drain":
            applied = cluster.drain_shard(shard_id, at_ns=at_ns)
        elif action == "retire":
            applied = cluster.retire_shard(shard_id, at_ns=at_ns)
        else:  # join
            shard_id = cluster.join_shard(at_ns=at_ns)
            applied = True
        self.log.append(FaultLogEntry(at_ns, action, shard_id, bool(applied)))


def kill_revive_schedule(
    intervals: Iterable[Tuple[int, float, Optional[float]]],
) -> FaultPlan:
    """Build a plan from ``(shard_id, kill_ns, revive_ns)`` intervals
    (``revive_ns=None`` kills without revival)."""
    events: List[FaultEvent] = []
    for shard_id, kill_ns, revive_ns in intervals:
        events.append(FaultEvent(at_ns=kill_ns, action="kill", shard_id=shard_id))
        if revive_ns is not None:
            if revive_ns <= kill_ns:
                raise ValueError("revive_ns must come after kill_ns")
            events.append(
                FaultEvent(at_ns=revive_ns, action="revive", shard_id=shard_id)
            )
    return FaultPlan(events=events)


__all__ = [
    "FAULT_ACTIONS",
    "FaultEvent",
    "FaultLogEntry",
    "FaultPlan",
    "kill_revive_schedule",
]
