"""A small LRU pool of placed bit vectors for intermediate results.

Functional execution of a scan or a fused operation chain needs short-lived
intermediate vectors (complemented planes, partial predicates).  Allocating
a fresh vector per intermediate would bleed DRAM rows out of the
:class:`~repro.ambit.allocator.RowAllocator`; the pool instead recycles a
bounded set of vectors keyed by (length, bank offset), and frees the rows
of whatever it evicts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitEngine


class VectorPool:
    """LRU cache of placed :class:`BulkBitVector` row allocations.

    Args:
        engine: Ambit engine whose allocator backs the pooled vectors.
        capacity: Maximum vectors kept across all keys; the least recently
            released vector is evicted (and its rows freed) beyond that.
    """

    def __init__(self, engine: AmbitEngine, capacity: int = 16) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        # Key -> stack of idle vectors; insertion order across keys is the
        # LRU order (OrderedDict moves a key to the end on every release).
        self._idle: "OrderedDict[Tuple[int, int], List[BulkBitVector]]" = OrderedDict()
        self._idle_count = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def acquire(self, num_bits: int, bank_offset: int = 0) -> BulkBitVector:
        """Return a placed vector of ``num_bits`` bits, reusing rows if possible.

        The vector's previous contents are undefined; callers must fill it.
        """
        key = (num_bits, bank_offset)
        stack = self._idle.get(key)
        if stack:
            vector = stack.pop()
            if not stack:
                del self._idle[key]
            self._idle_count -= 1
            self.hits += 1
            return vector
        self.misses += 1
        row_size = self.engine.device.geometry.row_size_bytes
        rows = max(1, -(-((num_bits + 7) // 8) // row_size))
        allocation = self.engine.allocator.allocate(rows, bank_offset=bank_offset)
        return BulkBitVector(num_bits, row_size, allocation)

    def release(self, vector: BulkBitVector, bank_offset: int = 0) -> None:
        """Return a vector to the pool (evicting the LRU entry when full)."""
        key = (vector.num_bits, bank_offset)
        self._idle.setdefault(key, []).append(vector)
        self._idle.move_to_end(key)
        self._idle_count += 1
        while self._idle_count > self.capacity:
            old_key, stack = next(iter(self._idle.items()))
            evicted = stack.pop(0)
            if not stack:
                del self._idle[old_key]
            self._idle_count -= 1
            self.evictions += 1
            if evicted.allocation is not None:
                self.engine.allocator.free(evicted.allocation)

    def drain(self) -> None:
        """Free the rows of every idle vector and empty the pool."""
        for stack in self._idle.values():
            for vector in stack:
                if vector.allocation is not None:
                    self.engine.allocator.free(vector.allocation)
        self._idle.clear()
        self._idle_count = 0
