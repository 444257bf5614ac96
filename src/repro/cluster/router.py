"""Replica-aware placement of columns onto shard executors.

The router owns one decision: **where data lives**.  Every routable key —
a bitmap-index column name, a :class:`~repro.database.bitweaving
.BitWeavingColumn` object — is placed on ``replication_factor``
consecutive shards (1 for cold keys), and stays there for the router's
lifetime, exactly like a column's planes stay in their banks on one
device.  Two placement strategies:

* ``"hash"`` — a stable CRC32 of the column name picks the home shard
  (deterministic across processes, unlike Python's randomized ``hash``);
  anonymous objects are placed round-robin in first-seen order.
* ``"range"`` — the registered column-name universe is sorted and split
  into contiguous runs, one per shard (range scans over adjacent columns
  co-locate).

**Replication (space-for-bandwidth).**  A hot column's bitmaps are worth
storing on several devices: scans of it then route to the *least-loaded*
replica, which resolves at cluster level the "plane replication across
banks" gap the single-device pipeline left open.  ``hot_columns=None``
replicates every key; otherwise only the named keys get
``replication_factor`` replicas.

**Health and elasticity.**  The fault-tolerance layer (``repro.cluster
.faults`` / ``repro.cluster.controller``) flips per-shard health bits:

* *down* — the shard failed; it holds its replicas (placement is
  orthogonal to health) but receives no work until revived;
* *draining* — the shard accepts no new work while its queue migrates
  off (the prelude to retirement);
* *retired* — permanently removed from the pool; its index stays valid
  (shard ids are stable) but it can never become routable again.

Routing (:meth:`route`, :meth:`route_any`, :meth:`assign_scatter`)
considers only *routable* replicas — alive and not draining — and raises
:class:`PlacementUnavailable` when a key has none left, which the
cluster frontend turns into a degraded-mode rejection.  With every shard
healthy the routable set equals the replica set and routing is exactly
the fixed-pool behaviour.

**Live re-placement.**  The elasticity controller may *override* a key's
computed placement: :meth:`add_replica` / :meth:`drop_replica` /
:meth:`set_replicas` pin an explicit replica list (re-replicating a hot
key, or moving the last copy off a retiring shard).  Every placement or
health change bumps :attr:`epoch` so callers caching partition-derived
state (the cluster frontend's shard views) can invalidate.

The router never inspects load itself — callers pass a ``load`` function
(the cluster frontend supplies its per-shard backlog vector) so placement
stays deterministic and routing stays load-aware.
"""

from __future__ import annotations

import weakref
import zlib
from numbers import Integral
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

#: Signature of the load oracle callers supply: shard id -> current load
#: (any monotone congestion measure; the cluster frontend uses modeled ns).
LoadFn = Callable[[int], float]


class PlacementUnavailable(LookupError):
    """No routable shard can serve ``key`` (every replica is down,
    draining, or retired).  The cluster frontend maps this to a
    ``"shard_unavailable"`` degraded-mode rejection.

    Attributes:
        key: The unroutable key (None for affinity-free routing when the
            whole pool is unroutable).
    """

    def __init__(self, message: str, key: Optional[Hashable] = None) -> None:
        super().__init__(message)
        self.key = key


def check_count(name: str, value: Any) -> None:
    """Refuse a shard or replica count that is not a whole number of at
    least 1: a ``bool`` or a non-integral value is a ``TypeError`` (``2.0``
    would route to shard ``1.0``, NaN nowhere), one below 1 a ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be at least 1")


class ShardRouter:
    """Partitions columns across shards; routes reads to replicas.

    Args:
        num_shards: Number of shard executors in the cluster.
        replication_factor: Replicas per *hot* key (consecutive shards
            from the home shard).  Kept as requested and capped by the
            *current* ``num_shards`` where placements are computed, so a
            cluster that starts below its factor replicates once
            :meth:`add_shard` has grown it.
        hot_columns: Keys that deserve replication.  None replicates every
            key; an explicit collection replicates only its members (by
            name for strings, by identity for objects).
        strategy: ``"hash"`` or ``"range"`` (see module docstring).
    """

    def __init__(
        self,
        num_shards: int,
        replication_factor: int = 1,
        hot_columns: Optional[Sequence] = None,
        strategy: str = "hash",
    ) -> None:
        check_count("num_shards", num_shards)
        check_count("replication_factor", replication_factor)
        if strategy not in ("hash", "range"):
            raise ValueError(f"unknown placement strategy {strategy!r}")
        self.num_shards = num_shards
        self.replication_factor = replication_factor
        self.strategy = strategy
        #: Bumped on every placement or health change; callers caching
        #: partition-derived state key their caches on it.
        self.epoch = 0
        self._hot_names: Optional[set] = None
        self._hot_ids: Optional[set] = None
        if hot_columns is not None:
            self._hot_names = {k for k in hot_columns if isinstance(k, str)}
            self._hot_ids = {id(k) for k in hot_columns if not isinstance(k, str)}
        self._named_home: Dict[str, int] = {}
        self._object_home: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._round_robin = 0
        # Health bits (see module docstring): placement is orthogonal.
        self._down: set = set()
        self._draining: set = set()
        self._retired: set = set()
        # Controller-pinned placements overriding the computed replicas.
        self._named_override: Dict[str, List[int]] = {}
        self._object_override: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # Stable labels for anonymous object keys (obs counter names).
        self._object_label: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._label_object: "weakref.WeakValueDictionary" = weakref.WeakValueDictionary()
        self._label_seq = 0

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def register_names(self, names: Sequence[str]) -> None:
        """Fix the placement of a column-name universe.

        For the ``"range"`` strategy this is where placement happens: the
        sorted names are split into ``num_shards`` contiguous runs — so
        register the whole universe up front for contiguity.  Names that
        trickle in later (or one at a time via :meth:`replicas`) cannot be
        placed contiguously and fall back to round-robin, which at least
        keeps the load spread instead of piling every latecomer onto
        shard 0.  For ``"hash"`` this simply materializes the CRC
        placements eagerly.  Re-registering a known name keeps its
        existing home (placement is sticky, like rows in banks).
        """
        if self.strategy == "range":
            fresh = sorted(n for n in names if n not in self._named_home)
            if len(fresh) == 1:
                self._named_home[fresh[0]] = self._round_robin
                self._round_robin = (self._round_robin + 1) % self.num_shards
                return
            for i, name in enumerate(fresh):
                self._named_home[name] = min(
                    i * self.num_shards // max(1, len(fresh)), self.num_shards - 1
                )
        else:
            for name in names:
                self._named_home.setdefault(
                    name, zlib.crc32(name.encode()) % self.num_shards
                )

    def replicas(self, key: Hashable) -> List[int]:
        """Shard ids holding ``key``, home shard first.

        A controller-pinned override (see :meth:`set_replicas`) wins over
        the computed consecutive-shard placement.
        """
        override = self._override_for(key)
        if override is not None:
            return list(override)
        home = self._home(key)
        count = min(self.replication_factor, self.num_shards) if self._is_hot(key) else 1
        return [(home + i) % self.num_shards for i in range(count)]

    def _override_for(self, key: Hashable) -> Optional[List[int]]:
        if isinstance(key, str):
            return self._named_override.get(key)
        try:
            return self._object_override.get(key)
        except TypeError:  # unweakrefable key: never overridden
            return None

    def _home(self, key: Hashable) -> int:
        if isinstance(key, str):
            if key not in self._named_home:
                self.register_names([key])
            return self._named_home[key]
        home = self._object_home.get(key)
        if home is None:
            # Anonymous objects (BitWeaving columns) place round-robin in
            # first-seen order: deterministic per run and perfectly spread.
            home = self._round_robin
            self._round_robin = (self._round_robin + 1) % self.num_shards
            self._object_home[key] = home
        return home

    def _is_hot(self, key: Hashable) -> bool:
        if self._hot_names is None:
            return True
        if isinstance(key, str):
            return key in self._hot_names
        return id(key) in self._hot_ids

    def partition(self, names: Sequence[str]) -> List[List[str]]:
        """Per-shard column lists (replicas included) for a name universe."""
        self.register_names(list(names))
        placed: List[List[str]] = [[] for _ in range(self.num_shards)]
        for name in names:
            for shard in self.replicas(name):
                placed[shard].append(name)
        return placed

    # ------------------------------------------------------------------
    # Live re-placement (controller surface)
    # ------------------------------------------------------------------
    def set_replicas(self, key: Hashable, shards: Sequence[int]) -> None:
        """Pin ``key``'s replica list, overriding computed placement."""
        shards = list(dict.fromkeys(int(s) for s in shards))
        if not shards:
            raise ValueError("a key must keep at least one replica")
        for shard in shards:
            if not 0 <= shard < self.num_shards:
                raise ValueError(f"shard {shard} does not exist")
            if shard in self._retired:
                raise ValueError(f"shard {shard} is retired")
        if isinstance(key, str):
            self._named_home.setdefault(key, shards[0])
            self._named_override[key] = shards
        else:
            self._object_home.setdefault(key, shards[0])
            self._object_override[key] = shards
        self.epoch += 1

    def add_replica(self, key: Hashable, shard: int) -> bool:
        """Add ``shard`` to ``key``'s replica set; False when already there."""
        current = self.replicas(key)
        if shard in current:
            return False
        self.set_replicas(key, current + [shard])
        return True

    def drop_replica(self, key: Hashable, shard: int) -> bool:
        """Remove ``shard`` from ``key``'s replica set; False when absent.

        Raises:
            ValueError: Dropping would leave the key with no replica.
        """
        current = self.replicas(key)
        if shard not in current:
            return False
        remaining = [s for s in current if s != shard]
        if not remaining:
            raise ValueError(
                f"dropping shard {shard} would leave {self.key_label(key)!r} "
                "with no replica"
            )
        self.set_replicas(key, remaining)
        return True

    def placed_keys(self, shard: int) -> List[Hashable]:
        """Every known key whose replica set includes ``shard`` (registered
        names sorted first, then live object keys in first-seen order)."""
        keys: List[Hashable] = [
            name for name in sorted(self._named_home) if shard in self.replicas(name)
        ]
        keys.extend(
            key for key in self._object_home if shard in self.replicas(key)
        )
        return keys

    # ------------------------------------------------------------------
    # Health and pool membership
    # ------------------------------------------------------------------
    def is_alive(self, shard: int) -> bool:
        """True when the shard is neither down nor retired."""
        return shard not in self._down and shard not in self._retired

    def is_routable(self, shard: int) -> bool:
        """True when the shard may receive new work (alive, not draining)."""
        return self.is_alive(shard) and shard not in self._draining

    def is_retired(self, shard: int) -> bool:
        """True when the shard was permanently removed from the pool."""
        return shard in self._retired

    def alive_shards(self) -> List[int]:
        return [s for s in range(self.num_shards) if self.is_alive(s)]

    def routable_shards(self) -> List[int]:
        return [s for s in range(self.num_shards) if self.is_routable(s)]

    def routable_replicas(self, key: Hashable) -> List[int]:
        """Replicas of ``key`` that may receive new work, home first."""
        return [s for s in self.replicas(key) if self.is_routable(s)]

    def mark_down(self, shard: int) -> bool:
        """Record a shard failure; False when it was already down/retired."""
        if shard in self._retired or shard in self._down:
            return False
        self._down.add(shard)
        self.epoch += 1
        return True

    def mark_up(self, shard: int) -> bool:
        """Revive a failed shard; False when it was not down (or retired)."""
        if shard in self._retired or shard not in self._down:
            return False
        self._down.discard(shard)
        self.epoch += 1
        return True

    def mark_draining(self, shard: int, draining: bool = True) -> None:
        """Flip the no-new-work bit (retirement prelude)."""
        if draining:
            self._draining.add(shard)
        else:
            self._draining.discard(shard)
        self.epoch += 1

    def add_shard(self) -> int:
        """Grow the pool by one shard; returns the new shard id.

        Existing placements are sticky (known names keep their homes);
        only keys first seen after the join spread over the larger pool.
        """
        shard = self.num_shards
        self.num_shards += 1
        self.epoch += 1
        return shard

    def retire(self, shard: int) -> None:
        """Permanently remove a shard from the pool.

        The shard id stays valid (indices are stable) but the shard can
        never become routable again.  Every key must have moved off first
        — retiring the last copy of a key would orphan it.

        Raises:
            ValueError: Some key still has ``shard`` in its replica set.
        """
        stranded = self.placed_keys(shard)
        if stranded:
            labels = [self.key_label(k) for k in stranded[:5]]
            raise ValueError(
                f"cannot retire shard {shard}: keys still placed there "
                f"({', '.join(labels)}{', ...' if len(stranded) > 5 else ''})"
            )
        self._retired.add(shard)
        self._down.discard(shard)
        self._draining.discard(shard)
        self.epoch += 1

    # ------------------------------------------------------------------
    # Key labels (obs counter names)
    # ------------------------------------------------------------------
    def key_label(self, key: Hashable) -> str:
        """Stable printable label of a key: the name itself for strings,
        ``obj<N>`` (first-labelled order) for anonymous objects."""
        if isinstance(key, str):
            return key
        try:
            label = self._object_label.get(key)
        except TypeError:
            return f"id{id(key)}"
        if label is None:
            label = f"obj{self._label_seq}"
            self._label_seq += 1
            self._object_label[key] = label
            self._label_object[label] = key
        return label

    def key_for_label(self, label: str) -> Optional[Hashable]:
        """Invert :meth:`key_label`; None for unknown/collected objects."""
        if label in self._named_home:
            return label
        obj = self._label_object.get(label)
        if obj is not None:
            return obj
        # A never-seen name is still a valid key (hash placement is lazy).
        return label if not label.startswith("obj") else None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, key: Hashable, load: LoadFn) -> int:
        """Least-loaded *routable* replica of ``key`` (home wins ties).

        Raises:
            PlacementUnavailable: Every replica is down/draining/retired.
        """
        candidates = self.routable_replicas(key)
        if not candidates:
            raise PlacementUnavailable(
                f"no routable replica holds {self.key_label(key)!r}", key=key
            )
        return min(candidates, key=lambda shard: (load(shard), shard))

    def route_any(self, load: LoadFn) -> int:
        """Least-loaded routable shard — for work with no column affinity.

        Raises:
            PlacementUnavailable: The whole pool is unroutable.
        """
        candidates = self.routable_shards()
        if not candidates:
            raise PlacementUnavailable("no routable shard in the pool")
        return min(candidates, key=lambda shard: (load(shard), shard))

    def assign_scatter(
        self, keys: Sequence[Hashable], load: LoadFn
    ) -> List[Tuple[Hashable, int]]:
        """Assign each key of one scatter request to a routable replica.

        Greedy fan-out minimization: a key lands on a shard already chosen
        for a sibling key whenever one of its replicas is, otherwise on
        its least-loaded replica.  Fewer shards touched means fewer
        host-side merges and partial bitmaps on the gather path.

        Raises:
            PlacementUnavailable: Some key has no routable replica left.
        """
        chosen: List[int] = []
        assignment: List[Tuple[Hashable, int]] = []
        for key in keys:
            candidates = self.routable_replicas(key)
            if not candidates:
                raise PlacementUnavailable(
                    f"no routable replica holds {self.key_label(key)!r}", key=key
                )
            shared = [s for s in candidates if s in chosen]
            pool = shared if shared else candidates
            shard = min(pool, key=lambda s: (load(s), s))
            if shard not in chosen:
                chosen.append(shard)
            assignment.append((key, shard))
        return assignment
