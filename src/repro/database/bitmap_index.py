"""Bitmap indices over dictionary-encoded columns.

A bitmap index stores, for every distinct value of a column, a bit vector
with one bit per row that is set when the row holds that value.  Predicates
over indexed columns become bulk bitwise operations over whole bit vectors:

* ``col = v``                    -> the bitmap of ``v``
* ``col IN (v1, v2, ...)``       -> OR of the bitmaps
* ``p1 AND p2`` / ``p1 OR p2``   -> AND / OR of the predicate results
* ``COUNT(*)``                   -> population count of the final bitmap

This module provides the index structure and the *functional* evaluation
(the actual result bits); the latency/energy of executing the bulk
operations on the CPU or on Ambit is attributed by
:mod:`repro.database.queries`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.database.tables import ColumnTable


@dataclass
class BitmapPlan:
    """The bulk-operation plan produced by compiling a predicate.

    Attributes:
        operations: Sequence of (op, number_of_operand_pairs) entries, e.g.
            ``[("or", 2), ("and", 1)]`` — the work the execution backend has
            to account for.
        result_bits: Row count (length of every bit vector involved).
    """

    operations: List[Tuple[str, int]]
    result_bits: int

    @property
    def total_operations(self) -> int:
        """Total number of bulk bitwise operations in the plan."""
        return sum(count for _, count in self.operations)


class BitmapIndex:
    """Bitmap index over one or more columns of a :class:`ColumnTable`."""

    def __init__(self, table: ColumnTable, columns: Iterable[str]) -> None:
        self.table = table
        self.bitmaps: Dict[str, Dict[int, np.ndarray]] = {}
        #: Columns whose planes are stale relative to the table (lazy
        #: maintenance).  Reads rebuild through :meth:`_ensure_clean`.
        self._dirty: Set[str] = set()
        #: Count of lazy column rebuilds performed (read-side repair).
        self.rebuilds = 0
        for column in columns:
            self.rebuild_column(column)

    @property
    def num_rows(self) -> int:
        """Rows covered by the index."""
        return self.table.num_rows

    def indexed_columns(self) -> List[str]:
        """Names of the indexed columns."""
        return list(self.bitmaps)

    def bitmap(self, column: str, value: int) -> np.ndarray:
        """Packed bitmap of ``column = value``.

        The single read accessor: a lazily-maintained column is rebuilt
        here, on first read after a write marked it dirty.
        """
        self._ensure_clean(column)
        try:
            return self.bitmaps[column][value]
        except KeyError as exc:
            raise KeyError(f"no bitmap for {column!r} = {value}") from exc

    def check_predicates(self, predicates: Sequence[Tuple[str, Sequence[int]]]) -> None:
        """Raise the ``KeyError`` :meth:`bitmap` would for any
        ``(column, value)`` of ``predicates``, without reading a plane.

        The side-effect-free probe request validation uses: a column's
        planes cover ``range(cardinality)``, so a dirty column is judged
        by the table's cardinality and never repaired here — repair (and
        its lazy-maintenance charge) stays with the first real read.
        """
        cardinalities = self.table.cardinalities
        for column, values in predicates:
            if column not in self.bitmaps:
                raise KeyError(f"column {column!r} is not indexed")
            cardinality = cardinalities[column]
            for value in values:
                if not 0 <= value < cardinality:
                    raise KeyError(f"no bitmap for {column!r} = {value}")

    # ------------------------------------------------------------------
    # Maintenance (the write path; policy lives in repro.storage)
    # ------------------------------------------------------------------
    def mark_dirty(self, columns: Iterable[str]) -> None:
        """Mark columns stale; the next read through :meth:`bitmap`
        rebuilds them (lazy maintenance)."""
        for column in columns:
            if column not in self.bitmaps:
                raise KeyError(f"column {column!r} is not indexed")
            self._dirty.add(column)

    def dirty_columns(self) -> List[str]:
        """Indexed columns currently marked stale (sorted for determinism)."""
        return sorted(self._dirty)

    def _ensure_clean(self, column: str) -> None:
        if column in self._dirty:
            self.rebuild_column(column)
            self._dirty.discard(column)
            self.rebuilds += 1

    def rebuild_column(self, column: str) -> None:
        """Recompute one column's planes from the table (from scratch)."""
        codes = self.table.column(column)
        cardinality = self.table.cardinalities[column]
        column_bitmaps: Dict[int, np.ndarray] = {}
        for value in range(cardinality):
            bits = (codes == value).astype(np.uint8)
            column_bitmaps[value] = np.packbits(bits, bitorder="little")
        self.bitmaps[column] = column_bitmaps

    def refresh_columns(self, columns: Iterable[str]) -> None:
        """Eagerly recompute planes for ``columns`` and clear their dirt."""
        for column in columns:
            if column not in self.bitmaps:
                raise KeyError(f"column {column!r} is not indexed")
            self.rebuild_column(column)
            self._dirty.discard(column)

    def apply_update(
        self,
        column: str,
        row_ids: np.ndarray,
        old_codes: np.ndarray,
        new_codes: np.ndarray,
    ) -> int:
        """Incrementally maintain one column's planes after an in-place
        update (eager maintenance).

        For each distinct old value the affected rows' bits are cleared;
        for each distinct new value they are set.  Planes for codes the
        index has never seen are created zero-filled first (dictionary
        growth).  Returns the number of distinct planes touched — the op
        count the maintenance policy charges.

        The caller must pass the codes *before* the table mutation
        (``old_codes``); the column must not be dirty (incremental deltas
        over stale planes would compound the staleness).

        Planes are **copy-on-write**: a touched plane is rebound to a
        fresh array before its bits change, never mutated in place.
        Lowered source operands are zero-copy views of the planes
        (:mod:`repro.api.plans`), so a read lowered earlier in the same
        batch keeps executing over the pre-write bits.
        """
        if column in self._dirty:
            raise ValueError(
                f"column {column!r} is dirty; rebuild before incremental maintenance"
            )
        planes = self.bitmaps[column]
        packed_len = (self.num_rows + 7) // 8
        touched = 0
        # Dictionary growth: materialize zero planes up to the (already
        # widened) cardinality so the incremental result is structurally
        # identical to a from-scratch rebuild, not just bit-equal on the
        # planes both have.
        for value in range(self.table.cardinalities[column]):
            if value not in planes:
                planes[value] = np.zeros(packed_len, dtype=np.uint8)
        changed = old_codes != new_codes
        if not np.any(changed):
            return 0
        ids = row_ids[changed]
        olds = old_codes[changed]
        news = new_codes[changed]
        for value in np.unique(olds):
            sel = ids[olds == value]
            plane = planes[int(value)] = planes[int(value)].copy()
            np.bitwise_and.at(
                plane, sel // 8, (~(np.uint8(1) << (sel % 8).astype(np.uint8))) & np.uint8(0xFF)
            )
            touched += 1
        for value in np.unique(news):
            sel = ids[news == value]
            plane = planes[int(value)] = planes[int(value)].copy()
            np.bitwise_or.at(plane, sel // 8, np.uint8(1) << (sel % 8).astype(np.uint8))
            touched += 1
        return touched

    def storage_bytes(self) -> int:
        """Total bytes of all bitmaps (the index's memory footprint)."""
        return sum(
            bitmap.size for column in self.bitmaps.values() for bitmap in column.values()
        )

    # ------------------------------------------------------------------
    # Predicate evaluation
    # ------------------------------------------------------------------
    def evaluate_in(self, column: str, values: Sequence[int]) -> Tuple[np.ndarray, BitmapPlan]:
        """Evaluate ``column IN values``; returns (packed result, plan)."""
        if not values:
            raise ValueError("values must not be empty")
        result = self.bitmap(column, values[0]).copy()
        for value in values[1:]:
            result |= self.bitmap(column, value)
        plan = BitmapPlan(
            operations=[("or", max(0, len(values) - 1))], result_bits=self.num_rows
        )
        return result, plan

    def evaluate_conjunction(
        self, predicates: Sequence[Tuple[str, Sequence[int]]]
    ) -> Tuple[np.ndarray, BitmapPlan]:
        """Evaluate ``AND`` of per-column ``IN`` predicates.

        Args:
            predicates: Sequence of (column, values) pairs.

        Returns:
            (packed result bitmap, bulk-operation plan).
        """
        if not predicates:
            raise ValueError("predicates must not be empty")
        operations: List[Tuple[str, int]] = []
        result: np.ndarray = None
        for column, values in predicates:
            partial, plan = self.evaluate_in(column, list(values))
            operations.extend(op for op in plan.operations if op[1] > 0)
            if result is None:
                result = partial
            else:
                result &= partial
        if len(predicates) > 1:
            operations.append(("and", len(predicates) - 1))
        return result, BitmapPlan(operations=operations, result_bits=self.num_rows)

    @staticmethod
    def count(packed_bitmap: np.ndarray, num_rows: int) -> int:
        """COUNT(*) over a packed result bitmap (its first ``num_rows`` bits)."""
        # Hardware popcount over the whole 64-bit words; only the unaligned
        # tail (under 64 bits) is unpacked bit by bit.
        words, tail_bits = divmod(num_rows, 64)
        head = np.ascontiguousarray(packed_bitmap[: words * 8]).view(np.uint64)
        count = int(np.bitwise_count(head).sum())
        if tail_bits:
            tail = packed_bitmap[words * 8 : (num_rows + 7) // 8]
            count += int(np.unpackbits(tail, bitorder="little")[:tail_bits].sum())
        return count

    def shard_view(self, columns: Iterable[str]) -> "BitmapIndexShardView":
        """A zero-copy view restricted to ``columns`` (cluster placement hook).

        The view lowers and evaluates conjunctions shard-locally; see
        :mod:`repro.database.sharding`.
        """
        from repro.database.sharding import BitmapIndexShardView  # local: avoid cycle

        return BitmapIndexShardView(self, columns)
