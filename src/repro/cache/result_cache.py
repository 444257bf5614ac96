"""Repetition-aware cross-batch result cache for predicate bitmaps.

PR 7's CSE is deliberately batch-scoped: a shared sub-chain result dies
when its batch dispatches.  :class:`ResultCache` is the missing layer
*between* batches — finished predicate bitmaps, keyed by the optimizer's
canonical keys (:mod:`repro.optimizer.canonical`), parked in host memory
so a repeated sub-chain in a later batch costs zero bank work.

Each entry is one record: a weak reference to its bitmap source, the one
column its predicate reads, that column's write generation
(:meth:`BitmapIndex.generation
<repro.database.bitmap_index.BitmapIndex.generation>`) when its bits were
computed, and the read-only bitmap.  The index owns the write clock:

* :meth:`ResultCache.get` serves an entry only to the live object it was
  filled from (keys are scoped by ``id(index)``, which a new object can
  reuse once the old one dies) and only while the generation holds.
* :meth:`ResultCache.put` takes the optimizer's plan-time stamp
  (:meth:`ResultCache.write_epoch`) and counts a ``bypass`` instead of
  filling when a same-batch write has advanced it.
* Write lowering still drops a written column's entries eagerly: that
  frees LRU capacity, and so decides which entries evict.

A hit is the stored array itself, read-only: a consumer's write through
it raises instead of corrupting later hits.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from numbers import Integral
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Canonical cache key — the optimizer's :data:`repro.optimizer.canonical.Key`,
#: aliased: the optimizer package imports this module, so importing back
#: would be a cycle.
Key = Tuple[Any, ...]


class _Entry:
    """One cached answer: whose, over which column, at which generation."""

    __slots__ = ("owner", "column", "generation", "data", "bucket")

    def __init__(self, index: Any, column: str, generation: int, data: np.ndarray) -> None:
        self.owner = weakref.ref(index)
        self.column = column
        self.generation = generation
        self.data = data
        #: The ``(id(source), column)`` invalidation bucket listing it.
        self.bucket = (id(index), column)


class ResultCache:
    """LRU cache of packed predicate bitmaps, valid per write generation.

    Args:
        capacity_bytes: Total bytes of cached bitmaps retained; least
            recently used entries evict beyond it.
        capacity_entries: Entry-count cap (same LRU policy).
    """

    def __init__(self, capacity_bytes: int = 8 << 20, capacity_entries: int = 512) -> None:
        for name, value in (("capacity_bytes", capacity_bytes), ("capacity_entries", capacity_entries)):
            # ``True`` would pass as 1 and NaN would turn the bound off.
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise TypeError(f"{name} must be an integer, not {value!r}")
            if value <= 0:
                raise ValueError(f"{name} must be positive, not {value}")
        self.capacity_bytes = capacity_bytes
        self.capacity_entries = capacity_entries
        self._entries: "OrderedDict[Key, _Entry]" = OrderedDict()
        self._bytes = 0
        # (source id, column) -> its entries' keys, as an insertion-ordered
        # set: invalidation drops O(entries dropped), not O(entries cached).
        self._buckets: Dict[Tuple[int, str], Dict[Key, None]] = {}
        #: Lifetime accounting, published through BatchMetrics and obs.
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.bypasses = 0
        self.invalidations = 0
        self.evictions = 0

    @property
    def live_entries(self) -> int:
        """Entries currently cached."""
        return len(self._entries)

    @property
    def live_bytes(self) -> int:
        """Bytes currently cached."""
        return self._bytes

    def live_for(self, index: object) -> List[Tuple[Key, str, int, int]]:
        """Entries of ``index`` as ``(key, column, generation, nbytes)``:
        what :func:`repro.verify.plan_lint.lint_cache_consistency` checks."""
        return [
            (key, e.column, e.generation, e.data.nbytes)
            for key, e in self._entries.items()
            if e.owner() is index
        ]

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

    def write_epoch(self, index: Any, columns: Iterable[str]) -> int:
        """The index's write generation of ``columns`` (a shard view
        reads its parent's): the stamp a planned fill carries to
        :meth:`put`."""
        return index.generation(columns)

    def get(self, key: Key, index: Any) -> Optional[np.ndarray]:
        """The cached read-only packed bitmap for ``key``, or ``None``."""
        entry = self._entries.get(key)
        if (
            entry is None
            or entry.owner() is not index
            or index.generation((entry.column,)) != entry.generation
        ):
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        # Read-only since put: a write through the hit raises.
        return entry.data  # lint: allow[cache-aliasing]

    def put(self, key: Key, index: Any, column: str, packed: np.ndarray, generation: int) -> None:
        """Cache the bitmap of a predicate over ``column`` computed at
        write ``generation``; a bypass if a write has advanced it since."""
        if index.generation((column,)) != generation:
            self.bypasses += 1
            return
        data = packed.view()
        data.flags.writeable = False
        if key in self._entries:
            self._forget(key, self._entries.pop(key))
        entry = self._entries[key] = _Entry(index, column, generation, data)
        self._bytes += data.nbytes
        self._buckets.setdefault(entry.bucket, {})[key] = None
        self.fills += 1
        while self._bytes > self.capacity_bytes or len(self._entries) > self.capacity_entries:
            evicted_key, evicted = self._entries.popitem(last=False)
            self._forget(evicted_key, evicted)
            self.evictions += 1
            if evicted_key == key:
                break

    def _forget(self, key: Key, entry: _Entry) -> None:
        """Take an entry just removed from ``_entries`` off the byte
        count and its bucket (gone already when its bucket is dropped)."""
        self._bytes -= entry.data.nbytes
        keys = self._buckets.get(entry.bucket)
        if keys is not None:
            keys.pop(key, None)
            if not keys:
                del self._buckets[entry.bucket]  # no empty bucket outlives its entries

    def invalidate_columns(self, index: object, columns: Iterable[str]) -> int:
        """Drop entries of ``index`` depending on any of ``columns``;
        returns the number dropped."""
        return self._drop_buckets([(id(index), column) for column in columns])

    def invalidate_index(self, index: object) -> int:
        """Drop every entry of ``index`` (row count changed); returns the
        number dropped."""
        index_id = id(index)
        return self._drop_buckets([bucket for bucket in self._buckets if bucket[0] == index_id])

    def _drop_buckets(self, buckets: List[Tuple[int, str]]) -> int:
        dropped = 0
        for bucket in buckets:
            for key in self._buckets.pop(bucket, ()):
                self._forget(key, self._entries.pop(key))
                dropped += 1
        self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop everything (keeps lifetime accounting)."""
        self.invalidations += len(self._entries)
        self._entries.clear()
        self._buckets.clear()
        self._bytes = 0


__all__ = ["ResultCache"]
