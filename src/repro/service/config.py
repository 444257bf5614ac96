"""``PipelineConfig``: every pipeline knob, declared once.

The only place the serving pipeline's knobs are declared, defaulted,
documented and validated.  Both tiers take the same frozen object whole:
``ServiceFrontend(config, engine=...)`` builds its executor and planner
from it, ``ClusterFrontend(num_shards, config, ...)`` every shard, and
``PimSession.over_service`` / ``over_cluster`` accept its fields as
keywords through :meth:`PipelineConfig.from_knobs`.

The config holds *values*, not live state: ``cache=True`` and a
``maintenance`` strategy name are materialized per backend, so one config
reused for two backends shares neither a cache nor hotness counters
between them; only an instance the caller hands in is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral
from typing import Any, Optional, Union

from repro.cache.result_cache import ResultCache
from repro.service.requests import checked_non_negative
from repro.storage.maintenance import MaintenancePolicy

#: Host cost of AND-merging two 8 KiB partial bitmaps: one level of the
#: cluster gather tree and of the optimizer's split-mode join tree.  It
#: prices one AND over a row-sized bitmap through host memory (read two
#: operands, write one result at tens of GB/s).
DEFAULT_MERGE_NS_PER_OP = 250.0


@dataclass
class BatchPolicy:
    """When the planner closes the next batch.

    Attributes:
        max_batch: Close as soon as this many requests are queued (also the
            hard cap on batch size).
        window_ns: Close when the oldest queued request has waited this
            long, even if the batch is not full.  None disables the window
            (the frontend still closes on stream end).
        urgency_slack_ns: Close when a queued request's deadline minus its
            modeled service latency is within this slack of the current
            time — the last moment service can start without missing it.
            None disables urgency-driven closing.
        horizon_urgency: Price urgency from the *lanes' busy horizons*
            rather than from "now": under deep pipelining a request's
            service cannot start before its modeled banks drain, so a
            deadline that looks comfortable from the current clock may
            already be at risk.  Fires only inside the savable window —
            when the banks' horizon lands within ``urgency_slack_ns``
            below the latest viable start — so it never degenerates into
            closing every batch early under overload.
    """

    max_batch: int = 32
    window_ns: Optional[float] = None
    urgency_slack_ns: Optional[float] = 0.0
    horizon_urgency: bool = True

    def __post_init__(self) -> None:
        if not (isinstance(self.max_batch, Integral) and self.max_batch > 0):
            raise ValueError("max_batch must be a positive integer")
        if self.window_ns is not None and not self.window_ns >= 0:
            raise ValueError("window_ns must be non-negative")
        if self.urgency_slack_ns is not None:
            checked_non_negative("urgency_slack_ns", self.urgency_slack_ns)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs of the batch plan optimizer (:mod:`repro.optimizer`).

    Attributes:
        cse: Share identical predicate sub-chains (and, in unsplit mode,
            equal AND prefixes) across the batch's requests.
        split_subchains: Spread one conjunction's independent sub-chains
            across bank lanes and join them host-side, instead of
            pinning the whole chain to one bank offset.
        max_split_lanes: Most distinct bank offsets one request may fan
            its sub-chains across (further sub-chains reuse the
            cheapest of those offsets).
        merge_ns_per_op: Host cost per level of the split join's pairwise
            merge tree (the cluster gather path's model and default).
    """

    cse: bool = True
    split_subchains: bool = True
    max_split_lanes: int = 4
    merge_ns_per_op: float = DEFAULT_MERGE_NS_PER_OP

    def __post_init__(self) -> None:
        if self.max_split_lanes < 1:
            raise ValueError("max_split_lanes must be at least 1")
        checked_non_negative("merge_ns_per_op", self.merge_ns_per_op)


@dataclass(frozen=True)
class PipelineConfig:
    """How one serving pipeline (frontend → planner → executor) is built.

    On the cluster tier every knob applies per shard.

    Attributes:
        policy: Batch-closing policy of the planner (size 32, urgency on).
        max_queue_depth: Admission bound on queued (not yet serving)
            requests.
        max_backlog_ns: Admission bound on modeled bank occupancy: the
            backlog already charged to the hottest bank the candidate
            would occupy, plus the candidate's own latency.  None disables
            occupancy-based admission.
        shed_low_priority: When over an admission bound, evict queued work
            of strictly lower priority (``rejected_reason="shed"``) to
            make room, instead of only rejecting the candidate at the door.
        functional: Execute batches on the simulated banks (subject to
            ``verify_fraction``) instead of analytically.
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
        verify_fraction: Fraction of each batch a ``functional`` run
            executes on the simulated banks; the rest runs analytically
            (range-checked where it is consumed, by the executor).
        verify_seed: Seed of the verification sampler (deterministic in
            it, the executor's batch counter and the request's position).
        optimizer: Batch plan optimizer (cross-request CSE, sub-chain
            splitting), or None to lower every conjunction in isolation.
            A cache with no optimizer turns on the *unsplit* one: consults
            and fills ride its canonical-key pass, and unsplit lowering
            keeps whole conjunctions cacheable under one key.
        cache: Cross-batch result cache (:mod:`repro.cache`): ``True``
            gives each backend — each shard of a cluster — its own
            default :class:`~repro.cache.ResultCache`; an instance is
            shared by every backend built from this config (entries are
            keyed by index view, so shards never collide).
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
    verify_fraction: float = 1.0
    verify_seed: int = 0
    optimizer: Optional[OptimizerConfig] = None
    cache: Union[bool, ResultCache] = False
    maintenance: Union[str, MaintenancePolicy] = "eager"

    def __post_init__(self) -> None:
        if not (isinstance(self.max_queue_depth, Integral) and self.max_queue_depth > 0):
            raise ValueError("max_queue_depth must be a positive integer")
        if self.max_backlog_ns is not None and not 0.0 <= self.max_backlog_ns < math.inf:
            raise ValueError("max_backlog_ns must be finite and non-negative (or None)")
        if self.cache is not False and self.optimizer is None:
            object.__setattr__(self, "optimizer", OptimizerConfig(split_subchains=False))

    @classmethod
    def from_knobs(cls, **knobs: Any) -> "PipelineConfig":
        """Build a config from loose keyword spellings.

        The one place they are interpreted: ``optimize=`` is the
        ``optimizer`` field, where ``True`` means the default
        :class:`OptimizerConfig` and ``False`` none; ``None`` for any knob
        means its default.  Anything that is not a field is a
        :class:`TypeError` naming the valid knobs.
        """
        names = [f.name for f in fields(cls)]
        if "optimize" in knobs:
            if "optimizer" in knobs:
                raise TypeError("pass optimize= or optimizer=, not both")
            knobs["optimizer"] = knobs.pop("optimize")
        unknown = sorted(set(knobs) - set(names))
        if unknown:
            raise TypeError(
                f"unknown pipeline knob(s) {', '.join(unknown)}; "
                f"valid knobs: {', '.join(names)} (optimize= spells optimizer=)"
            )
        if isinstance(knobs.get("optimizer"), bool):
            knobs["optimizer"] = OptimizerConfig() if knobs["optimizer"] else None
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


__all__ = ["BatchPolicy", "DEFAULT_MERGE_NS_PER_OP", "OptimizerConfig", "PipelineConfig"]
