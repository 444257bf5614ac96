"""Bitmap-plane maintenance policies for the write path.

A :class:`MaintenancePolicy` decides, per indexed column, how a write
keeps the bitmap planes consistent with the table:

* **eager** — maintain the planes at write time.  An in-place update is a
  genuine incremental repair (clear the old value's bits, set the new
  value's bits — one bulk op per distinct plane touched); appends and
  deletes change ``num_rows`` and recompute the column's planes.  Every
  maintained plane is charged one ``or`` over the index's row chunks,
  plus a RowClone copy for the row traffic, so write costs land on the
  same lanes reads contend for.  The planes themselves are repaired on
  the host, so the charge is their shape alone: one priced-only
  :class:`~repro.service.requests.BoundChain` of N steps (prices interned
  on the planner), placed as one run on the index's stable bank offset —
  exactly as N back-to-back one-op requests would be.
* **lazy** — mark the column dirty and defer: the first *read* through
  :meth:`BitmapIndex.bitmap` rebuilds it, and the planner charges the
  rebuild (one such run over every plane + the column scan traffic)
  into the reading request's batch.
* **hybrid** — eager for hot columns, lazy for cold.  Hotness is the
  policy's own state: a per-column count of the reads its planner
  lowered (:meth:`MaintenancePolicy.note_read`).  A recording plane gets a
  write-only copy (the ``storage.reads.<column>`` counters) that nothing
  reads back, so sharing a plane between backends, or binding one
  mid-stream, never changes which columns are hot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from repro.database.bitmap_index import BitmapIndex
from repro.obs import NULL_OBSERVER, Observer
from repro.storage.requests import (
    UpdateRequest,
    WriteRequest,
    apply_mutation,
    charged_columns,
)

if TYPE_CHECKING:  # annotation-only: keeps the import graph acyclic
    # (repro.service imports this module through the planner, so the
    # runtime imports of its request types are function-local below)
    from repro.service.executor import BatchExecutor
    from repro.service.planner import BatchPlanner
    from repro.service.requests import Primitive

#: Bytes per dictionary code in the row-traffic model.
CODE_BYTES = 4

STRATEGIES = ("eager", "lazy", "hybrid")


@dataclass(slots=True, eq=False)
class WriteOutcome:
    """What one lowered write did and what it is charged.

    Attributes:
        request: The write request (or cluster scatter part).
        rows_affected: Rows the functional mutation touched (the write's
            result value; an estimate on non-applying scatter parts).
        primitives: Charged maintenance primitives — the priced-only run
            over the maintained planes plus the row-traffic copy — placed
            in the write's batch on the index's lanes.
        strategies: Charged column → resolved strategy (``"eager"`` /
            ``"lazy"``).
        planes_charged: Total planes the eager maintenance is charged for.
        invalidate_columns: Columns whose cached results are stale.
        invalidate_all: Whether the write changed ``num_rows`` (appends,
            deletes) — every cached bitmap of the index is stale then.
        bytes_moved: Row traffic charged through the RowClone copy.
    """

    request: WriteRequest
    rows_affected: int
    primitives: List["Primitive"]
    strategies: Dict[str, str]
    planes_charged: int
    invalidate_columns: Tuple[str, ...]
    invalidate_all: bool
    bytes_moved: int


class MaintenancePolicy:
    """Per-column strategy resolution + write lowering (see module doc).

    Args:
        strategy: ``"eager"``, ``"lazy"``, or ``"hybrid"``.
        hot_threshold: Hybrid cutover: a column with at least this many
            recorded reads is maintained eagerly.
    """

    def __init__(self, strategy: str = "eager", hot_threshold: int = 4) -> None:
        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, not {strategy!r}")
        self.strategy = strategy
        self.hot_threshold = hot_threshold
        # Hotness: reads per column, owned here.  The plane is only where
        # the same counts are published; nothing reads it back.
        self._reads: Dict[str, float] = {}
        self._obs = NULL_OBSERVER

    # ------------------------------------------------------------------
    # Hotness
    # ------------------------------------------------------------------
    def bind_observer(self, obs: Observer) -> None:
        """Publish read counts to the frontend's plane from now on."""
        self._obs = obs

    def note_read(self, columns: Iterable[str]) -> None:
        """Record one read of each column (planner calls this per lowered
        predicate); drives the hybrid strategy's hot/cold split."""
        reads = self._reads
        registry = self._obs.metrics if self._obs.enabled else None
        for column in columns:
            reads[column] = reads.get(column, 0.0) + 1.0
            if registry is not None:
                registry.counter(f"storage.reads.{column}").inc()

    def reads_of(self, column: str) -> float:
        """Read count of one column."""
        return self._reads.get(column, 0.0)

    def is_hot(self, column: str) -> bool:
        """Hybrid hot/cold test against ``hot_threshold``."""
        return self.reads_of(column) >= self.hot_threshold

    def column_strategy(self, column: str) -> str:
        """Resolved strategy for one column (``"eager"`` or ``"lazy"``)."""
        if self.strategy == "hybrid":
            return "eager" if self.is_hot(column) else "lazy"
        return self.strategy

    # ------------------------------------------------------------------
    # Write lowering (planner entry point)
    # ------------------------------------------------------------------
    def lower_write(self, request: WriteRequest, planner: "BatchPlanner") -> WriteOutcome:
        """Apply the functional mutation (on applying parts), maintain the
        planes per strategy, and build the charged primitives."""
        index = request.index
        charged = charged_columns(request)
        strategies = {column: self.column_strategy(column) for column in charged}
        planes_by_column: Dict[str, int] = {}
        if request.apply:
            affected = request.affected_columns()
            resolved = {column: self.column_strategy(column) for column in affected}
            old_codes = None
            if (
                isinstance(request, UpdateRequest)
                and resolved.get(request.column) == "eager"
                and request.column not in index.dirty_columns()
            ):
                ids, codes, top = request.checked_rows()
                request.table.check_bound(top)
                old_codes = request.table.column(request.column)[ids]  # copies
            rows_affected = apply_mutation(request)
            for column in affected:
                if resolved[column] == "lazy":
                    index.mark_dirty([column])
                    continue
                if old_codes is not None and column == request.column:
                    touched = index.apply_update(column, ids, old_codes, codes)
                else:
                    # Appends/deletes change num_rows; a previously-dirty
                    # column falls back to a full refresh too.
                    index.refresh_columns([column])
                    touched = index.table.cardinalities[column]
                planes_by_column[column] = touched
        else:
            rows_affected = request.num_rows_written()
        planes_charged, eager = 0, False
        for column in charged:
            if strategies[column] == "eager":
                planes = planes_by_column.get(column)
                if planes is None:
                    planes = self.estimate_planes(request, column)
                planes_charged, eager = planes_charged + planes, True
        primitives = self._plane_ops(index, planes_charged, planner) if eager else []
        bytes_moved = rows_affected * CODE_BYTES * max(1, len(charged))
        if bytes_moved > 0:
            from repro.service.requests import CopyRequest  # local: avoid cycle

            primitives.append(CopyRequest(num_bytes=bytes_moved))
        return WriteOutcome(
            request=request,
            rows_affected=rows_affected,
            primitives=primitives,
            strategies=strategies,
            planes_charged=planes_charged,
            invalidate_columns=charged,
            invalidate_all=request.kind in ("append", "delete"),
            bytes_moved=bytes_moved,
        )

    def estimate_planes(self, request: WriteRequest, column: str) -> int:
        """Modeled planes a write touches in ``column`` (pre-mutation).

        Appends and deletes recompute every plane; an update clears the
        old values' planes and sets the new ones — at most two per
        distinct written value, capped at the cardinality.
        """
        cardinality = max(1, request.index.table.cardinalities.get(column, 1))
        if isinstance(request, UpdateRequest):
            return min(cardinality, 2 * len(set(request.values)))
        return cardinality

    def _plane_ops(
        self, index: BitmapIndex, count: int, planner: "BatchPlanner"
    ) -> List["Primitive"]:
        """The charge of ``count`` maintained planes: one priced-only
        :class:`~repro.service.requests.BoundChain` of ``count`` ``or``
        steps over the index's row chunks, placed as one run on its stable
        bank offset — maintenance occupies the lanes reads use.  Nothing
        runs: the planes are repaired on the host, and the charge is their
        shape (prices interned on the planner).  No op, no primitive."""
        from repro.service.requests import BoundChain  # local: avoid cycle

        executor = planner.executor
        offset = executor.stable_offset(index)  # pinned even when no plane changed
        if not count:
            return []
        rows = self._row_chunks(index, executor.engine.device.geometry.row_size_bytes)
        prices = planner.priced_charge(count, rows, self._packed_bytes(index))
        return [BoundChain([], offset, *prices, rows)]

    # ------------------------------------------------------------------
    # Lazy read-side repair
    # ------------------------------------------------------------------
    def pending_rebuilds(
        self, index: BitmapIndex, columns: Iterable[str]
    ) -> List[str]:
        """Of ``columns``, those whose planes are currently dirty.

        The planner queries this *before* lowering a read: lowering pulls
        the bitmaps, which repairs the dirt as a side effect, so the
        charge has to be decided first.
        """
        dirty = index.dirty_columns()
        if not dirty:
            return []
        return [column for column in dict.fromkeys(columns) if column in dirty]

    def rebuild_charge(
        self, index: BitmapIndex, column: str, planner: "BatchPlanner"
    ) -> List["Primitive"]:
        """Charged primitives of one lazy column rebuild: one op per plane
        (one priced-only run) plus the column-scan row traffic."""
        from repro.service.requests import CopyRequest  # local: avoid cycle

        cardinality = max(1, index.table.cardinalities.get(column, 1))
        primitives = self._plane_ops(index, cardinality, planner)
        primitives.append(CopyRequest(num_bytes=max(1, index.num_rows * CODE_BYTES)))
        return primitives

    # ------------------------------------------------------------------
    # Admission cost model (frontend entry point)
    # ------------------------------------------------------------------
    def modeled_write_ns(self, request: WriteRequest, executor: "BatchExecutor") -> float:
        """Sequential latency the write will be charged (admission model)."""
        from repro.service.requests import CopyRequest  # local: avoid cycle

        row_size = executor.engine.device.geometry.row_size_bytes
        rows = self._row_chunks(request.index, row_size)
        per_op = executor.engine.op_cost("or", rows).latency_ns
        total = 0.0
        charged = charged_columns(request)
        for column in charged:
            if self.column_strategy(column) == "eager":
                total += per_op * self.estimate_planes(request, column)
        bytes_moved = request.num_rows_written() * CODE_BYTES * max(1, len(charged))
        if bytes_moved > 0:
            total += executor.modeled_latency_ns(CopyRequest(num_bytes=bytes_moved))
        return total

    def modeled_write_banks(
        self, request: WriteRequest, executor: "BatchExecutor"
    ) -> Sequence[object]:
        """Bank keys the write's maintenance occupies (empty = unpinned)."""
        charged = charged_columns(request)
        if any(self.column_strategy(column) == "eager" for column in charged):
            row_size = executor.engine.device.geometry.row_size_bytes
            rows = self._row_chunks(request.index, row_size)
            return executor.span_banks(rows, executor.stable_offset(request.index))
        return ()

    @staticmethod
    def _packed_bytes(index: BitmapIndex) -> int:
        """Bytes one of the index's planes packs into (at least one)."""
        return (max(1, index.num_rows) + 7) // 8

    @classmethod
    def _row_chunks(cls, index: BitmapIndex, row_size: int) -> int:
        return -(-cls._packed_bytes(index) // row_size)


__all__ = [
    "CODE_BYTES",
    "MaintenancePolicy",
    "STRATEGIES",
    "WriteOutcome",
]
