"""Repetition-aware cross-batch result cache for conjunction bitmaps.

PR 7's CSE is deliberately batch-scoped: a shared sub-chain result dies
when its batch dispatches.  :class:`ResultCache` is the missing layer
*between* batches — finished predicate and conjunction bitmaps, keyed by
the same canonical keys (:mod:`repro.optimizer.canonical`), parked in
host memory so a repeated sub-chain in a later batch costs zero bank
work.

Consistency comes from two mechanisms:

* **Write-driven invalidation** — every entry carries its column-level
  dependency set; a write drops the entries whose dependencies it
  touched (appends/deletes change ``num_rows`` and drop everything for
  that index).  A reverse map from ``(source, column)`` to the keys
  depending on it makes that O(entries dropped), not O(entries cached).
* **Epoch guards** — the optimizer stamps each planned fill with the
  dependency columns' *write epoch* at plan time; a fill whose epoch
  advanced by execution time (a write landed in the same batch) is
  bypassed instead of poisoning the cache.

Cached bytes are stored read-only and handed out as copies — the
``cache-aliasing`` lint rule bans returning the stored buffer itself
(a consumer mutating it in place would corrupt every later hit).

Entries, epochs and the canonical keys are scoped by ``id(index)``, and
an ``id`` is only unique among *live* objects: a cache shared across
sessions can outlive an index, and CPython hands the next same-sized
allocation the dead one's address.  So the cache holds a weak reference
to every bitmap source it has entries or epochs for — an entry answers
only for the live object it was filled from, and everything scoped to a
source is purged the moment the source is collected.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Canonical cache key — structurally the optimizer's
#: :data:`repro.optimizer.canonical.Key`.  Aliased here rather than
#: imported: the optimizer package imports this module (consult/fill
#: pass), so importing back through its ``__init__`` would be a cycle.
Key = Tuple[Any, ...]


class _Entry:
    __slots__ = ("key", "index_id", "columns", "data", "num_rows")

    def __init__(
        self, key: Key, index_id: int, columns: Tuple[str, ...], data: np.ndarray, num_rows: int
    ) -> None:
        self.key = key
        #: ``id()`` of the source the entry was filled from — only ever
        #: compared for a source :meth:`ResultCache._owns` vouches for.
        self.index_id = index_id
        self.columns = columns
        self.data = data
        self.num_rows = num_rows


class ResultCache:
    """LRU cache of packed result bitmaps with write-driven invalidation.

    Args:
        capacity_bytes: Total bytes of cached bitmaps retained; least
            recently used entries evict beyond it.
        capacity_entries: Entry-count cap (same LRU policy).
    """

    def __init__(self, capacity_bytes: int = 8 << 20, capacity_entries: int = 512) -> None:
        if capacity_bytes <= 0 or capacity_entries <= 0:
            raise ValueError("cache capacities must be positive")
        self.capacity_bytes = capacity_bytes
        self.capacity_entries = capacity_entries
        self._entries: "OrderedDict[Key, _Entry]" = OrderedDict()
        self._bytes = 0
        # Reverse maps, kept in step with ``_entries`` by put / _forget:
        # the live keys per source id and per (source id, dependency
        # column).  Dicts as insertion-ordered sets (deterministic walks).
        self._index_keys: Dict[int, Dict[Key, None]] = {}
        self._column_keys: Dict[Tuple[int, str], Dict[Key, None]] = {}
        # Write epochs: bumped per invalidation; the optimizer's epoch
        # guard compares plan-time and fill-time stamps through these.
        self._index_epochs: Dict[int, int] = {}
        self._column_epochs: Dict[Tuple[int, str], int] = {}
        # id(source) -> weak reference to the source every entry and epoch
        # under that id belongs to; its callback purges them on collection.
        self._owners: Dict[int, Callable[[], Optional[object]]] = {}
        # Owners the collector reported dead, awaiting :meth:`_reap`.
        self._collected: List["weakref.ReferenceType[object]"] = []
        #: Lifetime accounting (end-to-end visible through BatchMetrics
        #: and the obs counters the frontend emits).
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.bypasses = 0
        self.invalidations = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_entries(self) -> int:
        """Entries currently cached."""
        if self._collected:
            self._reap()
        return len(self._entries)

    @property
    def live_bytes(self) -> int:
        """Bytes currently cached."""
        if self._collected:
            self._reap()
        return self._bytes

    # ------------------------------------------------------------------
    # Source liveness (id() is only unique among live objects)
    # ------------------------------------------------------------------
    def _owns(self, index: object) -> bool:
        """Is ``index`` the live source its ``id()``'s state belongs to?"""
        owner = self._owners.get(id(index))
        return owner is not None and owner() is index

    def _adopt(self, index: object) -> int:
        """Start (or keep) scoping state by ``index``; returns its id."""
        index_id = id(index)
        if not self._owns(index):
            # Whatever an earlier object at this address left behind must
            # never answer for the newcomer.
            self._purge(index_id)
            try:
                self._owners[index_id] = weakref.ref(index, self._collected.append)
            except TypeError:
                # Not weakly referenceable (no real bitmap source is):
                # pinning the object keeps its address from being recycled.
                self._owners[index_id] = lambda: index
        return index_id

    def _reap(self) -> None:
        """Purge the state of collected sources.

        Deferred from the weak-reference callback, which only queues: the
        collector can run it inside any allocation, including one made
        while a method here iterates the entries.
        """
        self._collected.clear()
        for index_id in [i for i, owner in self._owners.items() if owner() is None]:
            self._purge(index_id)

    def _purge(self, index_id: int) -> None:
        """Forget everything scoped to ``index_id``: owner, entries, epochs."""
        self._owners.pop(index_id, None)
        for key in list(self._index_keys.get(index_id, ())):
            self._drop(key)
        self._index_epochs.pop(index_id, None)
        for epoch_key in [k for k in self._column_epochs if k[0] == index_id]:
            del self._column_epochs[epoch_key]

    def entries_for(self, index: object) -> List[Key]:
        """Keys of the live entries depending on ``index`` (test surface)."""
        if not self._owns(index):
            return []
        return list(self._index_keys.get(id(index), ()))

    def live_for(self, index: object) -> List[Tuple[Key, Tuple[str, ...], int, int]]:
        """Live entries of ``index`` as ``(key, columns, num_rows, nbytes)``.

        The cache-consistency lint (:func:`repro.verify.plan_lint
        .lint_cache_consistency`) reads this instead of the stored
        buffers themselves, so certification never aliases cached bytes.
        """
        if not self._owns(index):
            return []
        entries = (self._entries[key] for key in self._index_keys.get(id(index), ()))
        return [(e.key, e.columns, e.num_rows, e.data.nbytes) for e in entries]

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict accounting summary (reports and benchmarks)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "bypasses": self.bypasses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "live_entries": self.live_entries,
            "live_bytes": self.live_bytes,
        }

    # ------------------------------------------------------------------
    # Epoch guard
    # ------------------------------------------------------------------
    def write_epoch(self, index: object, columns: Iterable[str]) -> int:
        """Current write epoch of (index, dependency columns).

        Monotonic: any invalidation touching the index or one of the
        columns advances it, so equality between a plan-time and a
        fill-time stamp proves no write landed in between.
        """
        if not self._owns(index):
            return 0  # never written through this cache
        index_id = id(index)
        epoch = self._index_epochs.get(index_id, 0)
        for column in columns:
            epoch += self._column_epochs.get((index_id, column), 0)
        return epoch

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------
    def get(self, key: Key, index: object, num_rows: int) -> Optional[np.ndarray]:
        """The cached packed bitmap for ``key``, or ``None``.

        Returns a *copy* of the stored buffer (alias-safety; the stored
        array is additionally read-only).  A hit whose recorded row count
        no longer matches the index is dropped defensively — writes
        should already have invalidated it.
        """
        entry = self._entries.get(key)
        if entry is None or entry.index_id != id(index) or not self._owns(index):
            self.misses += 1
            return None
        if entry.num_rows != num_rows:
            self._drop(key)
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry.data.copy()

    def put(
        self,
        key: Key,
        index: object,
        columns: Iterable[str],
        packed: np.ndarray,
        num_rows: int,
    ) -> None:
        """Cache a finished result bitmap with its dependency columns."""
        if self._collected:
            self._reap()
        data = np.asarray(packed, dtype=np.uint8).copy()
        data.setflags(write=False)
        self._drop(key)
        index_id = self._adopt(index)
        entry = _Entry(key, index_id, tuple(columns), data, num_rows)
        self._entries[key] = entry
        self._bytes += data.nbytes
        self._index_keys.setdefault(index_id, {})[key] = None
        for column in entry.columns:
            self._column_keys.setdefault((index_id, column), {})[key] = None
        self.fills += 1
        while self._entries and (
            self._bytes > self.capacity_bytes or len(self._entries) > self.capacity_entries
        ):
            evicted_key, evicted = self._entries.popitem(last=False)
            self._forget(evicted)
            self.evictions += 1
            if evicted_key == key:
                break

    def _drop(self, key: Key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._forget(entry)

    def _forget(self, entry: _Entry) -> None:
        """Take an entry just removed from ``_entries`` off the byte
        count and the reverse maps."""
        self._bytes -= entry.data.nbytes
        self._unlink(self._index_keys, entry.index_id, entry.key)
        for column in entry.columns:
            self._unlink(self._column_keys, (entry.index_id, column), entry.key)

    @staticmethod
    def _unlink(table: Dict[Any, Dict[Key, None]], bucket: Any, key: Key) -> None:
        keys = table.get(bucket)
        if keys is not None:
            keys.pop(key, None)
            if not keys:
                del table[bucket]  # no empty bucket outlives its entries

    # ------------------------------------------------------------------
    # Write-driven invalidation
    # ------------------------------------------------------------------
    def invalidate_columns(self, index: object, columns: Iterable[str]) -> int:
        """Drop entries of ``index`` depending on any of ``columns``;
        returns the number dropped.  Bumps the columns' write epochs."""
        stale = set(columns)
        if not stale:
            return 0
        index_id = self._adopt(index)
        dropped: Dict[Key, None] = {}
        for column in stale:
            epoch_key = (index_id, column)
            self._column_epochs[epoch_key] = self._column_epochs.get(epoch_key, 0) + 1
            keys = self._column_keys.get(epoch_key)
            if keys:
                dropped.update(keys)
        for key in dropped:
            self._drop(key)
        self.invalidations += len(dropped)
        return len(dropped)

    def invalidate_index(self, index: object) -> int:
        """Drop every entry of ``index`` (row count changed); returns the
        number dropped.  Bumps the index-level write epoch."""
        index_id = self._adopt(index)
        self._index_epochs[index_id] = self._index_epochs.get(index_id, 0) + 1
        dropped = list(self._index_keys.get(index_id, ()))
        for key in dropped:
            self._drop(key)
        self.invalidations += len(dropped)
        return len(dropped)

    def clear(self) -> None:
        """Drop everything (keeps lifetime accounting and epochs)."""
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._index_keys.clear()
        self._column_keys.clear()
        self._bytes = 0


__all__ = ["ResultCache"]
