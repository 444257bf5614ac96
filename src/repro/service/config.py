"""``PipelineConfig``: every pipeline knob, declared once.

The only place the serving pipeline's knobs are declared, defaulted,
documented and validated.  Both tiers take the same frozen object whole:
``ServiceFrontend(config, engine=...)`` builds its executor and planner
from it, ``ClusterFrontend(num_shards, config, ...)`` every shard, and
``PimSession.over_service`` / ``over_cluster`` accept its fields as
keywords through :meth:`PipelineConfig.from_knobs`.

Construction validates every knob at the API boundary: a ``bool`` switch
or a numeric knob handed the wrong type (``True`` for a batch size, a
string for a window) is a :class:`TypeError` naming the field, and an
out-of-range number a :class:`ValueError`.

The config holds *values*, not live state: ``cache=True`` and a
``maintenance`` strategy name are materialized per backend, so one config
reused for two backends shares neither a cache nor hotness counters
between them; only an instance the caller hands in is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral, Real
from typing import Any, Optional, Union

from repro.cache.result_cache import ResultCache
from repro.storage.maintenance import MaintenancePolicy

#: Host cost of AND-merging two 8 KiB partial bitmaps: one level of the
#: cluster gather tree and of the optimizer's sub-chain join tree (pairs
#: merge in parallel, so a G-way join costs ``ceil(log2(G))`` levels).  It
#: prices one AND over a row-sized bitmap through host memory (read two
#: operands, write one result at tens of GB/s).
MERGE_NS_PER_OP = 250.0

#: A merge tree's host time by its depth: one float per depth, shared by
#: every envelope charged one.
MERGE_TREE_NS = tuple(depth * MERGE_NS_PER_OP for depth in range(64))


def _check_real(name: str, value: Any) -> None:
    """Refuse a ``bool`` or a non-number for a numeric knob: ``True``
    would pass as 1 (a one-request batch, a 1 ns window) and a string
    would die later in a bare comparison."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TypeError(f"{name} must be a real number, not {value!r}")


@dataclass(frozen=True)
class BatchPolicy:
    """When the planner closes the next batch (fixed once built: a frontend
    keeps its queue's close instant under it).

    Besides the two knobs, a queued request with a deadline closes the
    batch at its last viable start: its deadline minus its modeled
    service latency.

    Attributes:
        max_batch: Close as soon as this many requests are queued (also the
            hard cap on batch size).
        window_ns: Close when the oldest queued request has waited this
            long, even if the batch is not full.  None disables the window
            (the frontend still closes on stream end).
    """

    max_batch: int = 32
    window_ns: Optional[float] = None

    def __post_init__(self) -> None:
        _check_real("max_batch", self.max_batch)
        if not (isinstance(self.max_batch, Integral) and self.max_batch > 0):
            raise ValueError("max_batch must be a positive integer")
        if self.window_ns is not None:
            _check_real("window_ns", self.window_ns)
            if not self.window_ns >= 0:
                raise ValueError("window_ns must be non-negative")


@dataclass(frozen=True)
class PipelineConfig:
    """How one serving pipeline (frontend → planner → executor) is built.

    On the cluster tier every knob applies per shard.

    Attributes:
        policy: Batch-closing policy of the planner (size 32, no window;
            deadlines close at their last viable start).
        max_queue_depth: Admission bound on queued (not yet serving)
            requests.
        max_backlog_ns: Admission bound on modeled bank occupancy: the
            backlog already charged to the hottest bank the candidate
            would occupy, plus the candidate's own latency.  None disables
            occupancy-based admission.
        shed_low_priority: When over an admission bound, evict queued work
            of strictly lower priority (``rejected_reason="shed"``) to
            make room, instead of only rejecting the candidate at the door.
        functional: Execute every request of a batch on the simulated
            banks (verified against the analytical result) instead of
            analytically.
        pipeline: Carry per-bank lane horizons across batches, so a new
            batch starts on banks the previous one has drained (see
            :class:`~repro.service.executor.BatchExecutor`).  ``False`` is
            the batch-synchronous reference arm; either way only start
            times move.
        sanitize: Run the static verification layer: the schedule race
            detector on every dispatch, the plan lints on every lowered
            chain, batch DAG and write, and (cluster) the scatter and
            failover certificates.  Any violation raises a typed
            :class:`~repro.verify.errors.VerifyError`.
        optimize: Lower each batch through the batch plan optimizer
            (:mod:`repro.optimizer`: cross-request CSE, sub-chain
            splitting) instead of every conjunction in isolation, which
            serializes its whole chain on one bank offset.
        cache: Cross-batch result cache (:mod:`repro.cache`): ``True``
            gives each backend — each shard of a cluster — its own
            default :class:`~repro.cache.ResultCache`; an instance is
            shared by every backend built from this config (entries are
            keyed by index view, so shards never collide).  A cache turns
            ``optimize`` on: consults and fills ride the optimizer's
            per-predicate keys.
        maintenance: How writes keep the bitmap planes consistent
            (:mod:`repro.storage`): a strategy name (``"eager"``,
            ``"lazy"``, ``"hybrid"``) builds a fresh
            :class:`~repro.storage.MaintenancePolicy` per backend (one per
            cluster, shared by its coordinator and shards, so hybrid
            hotness aggregates cluster-wide); an instance is shared as
            handed in.
    """

    policy: BatchPolicy = field(default_factory=BatchPolicy)
    max_queue_depth: int = 64
    max_backlog_ns: Optional[float] = None
    shed_low_priority: bool = False
    functional: bool = False
    pipeline: bool = True
    sanitize: bool = False
    optimize: bool = False
    cache: Union[bool, ResultCache] = False
    maintenance: Union[str, MaintenancePolicy] = "eager"

    def __post_init__(self) -> None:
        # Every ``bool`` field is a switch: a truthy stand-in (``"no"``,
        # ``0``, None) would flip it silently.
        for f in fields(self):
            if f.type == "bool" and not isinstance(getattr(self, f.name), bool):
                raise TypeError(f"{f.name} must be a bool, not {getattr(self, f.name)!r}")
        if not isinstance(self.cache, (bool, ResultCache)):
            raise TypeError(f"cache must be a bool or a ResultCache, not {self.cache!r}")
        _check_real("max_queue_depth", self.max_queue_depth)
        if not (isinstance(self.max_queue_depth, Integral) and self.max_queue_depth > 0):
            raise ValueError("max_queue_depth must be a positive integer")
        if self.max_backlog_ns is not None:
            _check_real("max_backlog_ns", self.max_backlog_ns)
            if not 0.0 <= self.max_backlog_ns < math.inf:
                raise ValueError("max_backlog_ns must be finite and non-negative (or None)")
        if self.cache is not False:
            object.__setattr__(self, "optimize", True)

    @classmethod
    def from_knobs(cls, **knobs: Any) -> "PipelineConfig":
        """Build a config from loose keyword spellings: ``None`` for any
        knob means its default, and anything that is not a field is a
        :class:`TypeError` naming the valid knobs."""
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(knobs) - set(names))
        if unknown:
            raise TypeError(
                f"unknown pipeline knob(s) {', '.join(unknown)}; valid knobs: {', '.join(names)}"
            )
        return cls(**{name: value for name, value in knobs.items() if value is not None})

    def new_cache(self) -> Optional[ResultCache]:
        """The result cache of one backend: the shared instance, a fresh
        default one for ``cache=True``, None when caching is off."""
        if isinstance(self.cache, ResultCache):
            return self.cache
        return ResultCache() if self.cache else None

    def new_maintenance(self) -> MaintenancePolicy:
        """The maintenance policy of one backend: the shared instance, or
        a fresh policy (own hotness counters) for a strategy name."""
        if isinstance(self.maintenance, MaintenancePolicy):
            return self.maintenance
        return MaintenancePolicy(strategy=self.maintenance)


__all__ = ["BatchPolicy", "MERGE_NS_PER_OP", "MERGE_TREE_NS", "PipelineConfig"]
