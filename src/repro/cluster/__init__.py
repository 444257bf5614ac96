"""The sharded multi-device cluster tier.

One :class:`~repro.service.frontend.ServiceFrontend` saturates one
device's banks and then queues; the cluster tier scales the service
pipeline *across* devices, the same way the paper scales bulk bitwise
throughput across banks:

* :class:`ShardRouter` — partitions table columns and bitmap planes
  across N shard executors by hash or range, with a replication factor
  for hot columns (space-for-bandwidth: replicated reads route to the
  least-loaded replica), per-shard health bits (down/draining/retired),
  and controller-pinned live re-placement;
* :class:`ClusterFrontend` — one admission-controlled
  :class:`~repro.service.frontend.ServiceFrontend` per shard, a
  per-shard backlog vector for load-aware routing, and scatter-gather of
  cross-shard work (per-shard partial bitmaps merged host-side,
  bit-exact with single-device execution);
* :class:`FaultPlan` — deterministic virtual-clock fault injection:
  shard kills, revivals, drains, retirements, and joins at scheduled
  instants, with replica failover of the victim's queued work;
* :class:`ElasticController` — the scale/re-placement loop over the
  cluster's own health (:meth:`ClusterFrontend.health`): re-replicates
  hot keys under imbalance, joins shards under sustained overload,
  drains and retires them when idle — every copy byte charged to the
  lanes it occupies;
* :class:`~repro.analysis.metrics.ClusterMetrics` — the roll-up:
  per-shard utilization, imbalance factor, cross-shard fan-out,
  aggregate latency percentiles, and the failover/scale accounting.
"""

from repro.cluster.controller import ControllerPolicy, ElasticController, ScaleEvent
from repro.cluster.faults import FaultEvent, FaultLogEntry, FaultPlan, kill_revive_schedule
from repro.cluster.frontend import ClusterFrontend, ClusterHealth, ClusterRecord
from repro.cluster.router import PlacementUnavailable, ShardRouter

__all__ = [
    "ClusterFrontend",
    "ClusterHealth",
    "ClusterRecord",
    "ControllerPolicy",
    "ElasticController",
    "FaultEvent",
    "FaultLogEntry",
    "FaultPlan",
    "PlacementUnavailable",
    "ScaleEvent",
    "ShardRouter",
    "kill_revive_schedule",
]
