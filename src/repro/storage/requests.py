"""First-class write requests for the mutation subsystem.

``AppendRequest`` / ``UpdateRequest`` / ``DeleteRequest`` flow through the
same frontend queue, planner, and executor as reads: the frontend admits
them against modeled maintenance cost, the planner applies the functional
mutation *at lowering time* (so queue order within a batch is sequential
consistency — a read lowered after a write sees the post-write planes),
and the maintenance charge executes as ordinary primitive requests on the
lanes the index's planes occupy.

Two fields exist purely for the cluster tier's scatter path:

* ``columns`` — the indexed columns this sub-request is charged for
  (``None`` means all affected columns; the router restricts each shard
  part to its locally-placed columns).
* ``apply`` — whether this part performs the functional table/index
  mutation.  Shard views share the parent index's plane dictionaries
  zero-copy, so exactly one scatter part applies and the mutation is
  visible to every replica; the rest only charge their local maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable


@dataclass
class AppendRequest:
    """Append rows (per-column code sequences covering every column)."""

    table: ColumnTable
    index: BitmapIndex
    rows: Mapping[str, Sequence[int]]
    columns: Optional[Tuple[str, ...]] = None
    apply: bool = True
    kind: str = field(default="append", init=False)

    def __post_init__(self) -> None:
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))

    def num_rows_written(self) -> int:
        """Rows this append adds (0 when the mapping is empty)."""
        for values in self.rows.values():
            return len(values)
        return 0

    def affected_columns(self) -> Tuple[str, ...]:
        """Indexed columns whose planes the write invalidates.

        An append grows ``num_rows``, so *every* indexed column's planes
        change length — all of them are affected.
        """
        return tuple(self.index.indexed_columns())


@dataclass
class UpdateRequest:
    """In-place overwrite of ``column[row_ids] = values``.

    Row ids must be unique within one update (enforced by
    :meth:`ColumnTable.update_rows`): a duplicated id would make the
    incremental clear-old/set-new plane maintenance ambiguous.
    """

    table: ColumnTable
    index: BitmapIndex
    column: str
    row_ids: Sequence[int]
    values: Sequence[int]
    columns: Optional[Tuple[str, ...]] = None
    apply: bool = True
    kind: str = field(default="update", init=False)

    def __post_init__(self) -> None:
        if len(self.row_ids) != len(self.values):
            raise ValueError("row_ids and values must have equal lengths")
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))

    def num_rows_written(self) -> int:
        """Rows this update overwrites."""
        return len(self.row_ids)

    def affected_columns(self) -> Tuple[str, ...]:
        """The updated column, when it is indexed (else no planes change)."""
        if self.column in self.index.bitmaps:
            return (self.column,)
        return ()


@dataclass
class DeleteRequest:
    """Physical row deletion; later rows renumber down (no tombstones)."""

    table: ColumnTable
    index: BitmapIndex
    row_ids: Sequence[int]
    columns: Optional[Tuple[str, ...]] = None
    apply: bool = True
    kind: str = field(default="delete", init=False)

    def __post_init__(self) -> None:
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))

    def num_rows_written(self) -> int:
        """Rows this delete removes (before de-duplication)."""
        return len(self.row_ids)

    def affected_columns(self) -> Tuple[str, ...]:
        """All indexed columns: a delete renumbers every row below it."""
        return tuple(self.index.indexed_columns())


WriteRequest = Union[AppendRequest, UpdateRequest, DeleteRequest]

WRITE_KINDS = ("append", "update", "delete")


def is_write_request(request: object) -> bool:
    """True for any mutation request (the planner/cluster dispatch test)."""
    return isinstance(request, (AppendRequest, UpdateRequest, DeleteRequest))


def charged_columns(request: WriteRequest) -> Tuple[str, ...]:
    """Columns this request (or scatter part) is charged maintenance for.

    The ``columns`` restriction — set by the cluster scatter path — is
    intersected with the columns the write actually affects.
    """
    affected = request.affected_columns()
    if request.columns is None:
        return affected
    allowed = set(request.columns)
    return tuple(column for column in affected if column in allowed)


def check_row_ids(request: WriteRequest) -> None:
    """Refuse an update/delete whose row ids the table cannot take.

    Called at ``offer``, before anything is recorded: lowering mutates the
    table after the batch was popped, where a bad id would strand it.
    Charge-only scatter parts were checked by the coordinator already.
    """
    if not request.apply:
        return
    if isinstance(request, UpdateRequest):
        request.table.checked_row_ids(request.row_ids, unique=True)
    elif isinstance(request, DeleteRequest):
        request.table.checked_row_ids(request.row_ids)


def apply_mutation(request: WriteRequest) -> int:
    """Perform the functional table mutation; returns rows affected.

    Index plane maintenance is *not* done here — that is the
    :class:`~repro.storage.maintenance.MaintenancePolicy`'s job, which
    must capture pre-mutation state (old codes) first for updates.
    """
    if isinstance(request, AppendRequest):
        return request.table.append_rows(request.rows)
    if isinstance(request, UpdateRequest):
        return request.table.update_rows(
            request.column, np.asarray(request.row_ids), np.asarray(request.values)
        )
    return request.table.delete_rows(np.asarray(request.row_ids))


__all__ = [
    "AppendRequest",
    "DeleteRequest",
    "UpdateRequest",
    "WRITE_KINDS",
    "WriteRequest",
    "apply_mutation",
    "charged_columns",
    "check_row_ids",
    "is_write_request",
]
