"""First-class write requests for the mutation subsystem.

``AppendRequest`` / ``UpdateRequest`` / ``DeleteRequest`` flow through the
same frontend queue, planner, and executor as reads: the frontend admits
them against modeled maintenance cost, the planner applies the functional
mutation *at lowering time* (so queue order within a batch is sequential
consistency — a read lowered after a write sees the post-write planes),
and the maintenance charge — one priced-only run over the maintained
planes plus a RowClone copy — is placed on the lanes the index's planes
occupy.

Row ids and codes are checked once per binding (``checked_rows``);
``offer``, lowering and the mutator recheck only the table bound, and a
write a delete made stale since ``offer`` is refused (:func:`rows_in_range`).

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
from typing import Any, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.database.bitmap_index import BitmapIndex
from repro.database.tables import ColumnTable


@dataclass(slots=True)
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


@dataclass(slots=True)
class UpdateRequest:
    """In-place overwrite of ``column[row_ids] = values``.

    Row ids must be unique within one update and values non-negative
    integers (enforced by :meth:`ColumnTable.update_arrays`): a
    duplicated id would make the incremental clear-old/set-new plane
    maintenance ambiguous.
    """

    table: ColumnTable
    index: BitmapIndex
    column: str
    row_ids: Sequence[int]
    values: Sequence[int]
    columns: Optional[Tuple[str, ...]] = None
    apply: bool = True
    kind: str = field(default="update", init=False)
    #: ``(row_ids, values, ids, codes, max id)`` of the last check.
    _rows: Optional[Tuple[Any, ...]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.row_ids) != len(self.values):
            raise ValueError("row_ids and values must have equal lengths")
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))

    def num_rows_written(self) -> int:
        """Rows this update overwrites."""
        return len(self.row_ids)

    def checked_rows(self) -> Tuple[np.ndarray, np.ndarray, int]:
        """:meth:`ColumnTable.update_arrays`, once per ``row_ids`` /
        ``values`` binding (reassigning either checks afresh)."""
        rows = self._rows
        if rows is None or rows[0] is not self.row_ids or rows[1] is not self.values:
            checked = self.table.update_arrays(self.column, self.row_ids, self.values)
            rows = self._rows = (self.row_ids, self.values, *checked)
        return rows[2:]

    def affected_columns(self) -> Tuple[str, ...]:
        """The updated column, when it is indexed (else no planes change)."""
        if self.column in self.index.bitmaps:
            return (self.column,)
        return ()


@dataclass(slots=True)
class DeleteRequest:
    """Physical row deletion; later rows renumber down (no tombstones).

    Row ids must be unique within one delete, as within one update: a
    repeated id would be priced as rows of maintenance traffic it never
    removes.
    """

    table: ColumnTable
    index: BitmapIndex
    row_ids: Sequence[int]
    columns: Optional[Tuple[str, ...]] = None
    apply: bool = True
    kind: str = field(default="delete", init=False)
    #: ``(row_ids, ids, max id)`` of the last check.
    _rows: Optional[Tuple[Any, ...]] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))

    def num_rows_written(self) -> int:
        """Rows this delete removes."""
        return len(self.row_ids)

    def checked_rows(self) -> Tuple[np.ndarray, int]:
        """:meth:`ColumnTable.row_id_array` (unique ids), once per
        ``row_ids`` binding."""
        rows = self._rows
        if rows is None or rows[0] is not self.row_ids:
            checked = self.table.row_id_array(self.row_ids, unique=True)
            rows = self._rows = (self.row_ids, *checked)
        return rows[1:]

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
    """Refuse a write whose row ids or codes the table cannot take, with
    the typed error its mutator would raise.

    Called at ``offer``, before anything is recorded: lowering mutates the
    table after the batch was popped, where a bad id or code would strand
    it.  Charge-only scatter parts were checked by the coordinator already.
    """
    if not request.apply:
        return
    if isinstance(request, AppendRequest):
        request.table.checked_append(request.rows)
    else:
        request.table.check_bound(request.checked_rows()[-1])


def rows_in_range(request: WriteRequest) -> bool:
    """Whether a write's row ids still fit its table (O(1) once checked):
    a delete lowered since ``offer`` can leave them past its end."""
    if not request.apply or isinstance(request, AppendRequest):
        return True
    return request.checked_rows()[-1] < request.table.num_rows


def apply_mutation(request: WriteRequest) -> int:
    """Perform the functional table mutation; returns rows affected.

    Index plane maintenance is *not* done here — that is the
    :class:`~repro.storage.maintenance.MaintenancePolicy`'s job, which
    must capture pre-mutation state (old codes) first for updates.
    """
    table = request.table
    if isinstance(request, AppendRequest):
        return table.append_rows(request.rows)
    if isinstance(request, UpdateRequest):
        rows = table.overwrite(request.column, *request.checked_rows())
    else:
        rows = table.remove(*request.checked_rows())
    request._rows = None  # spent: a served write must not pin its arrays
    return rows


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
    "rows_in_range",
]
