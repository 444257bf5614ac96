"""Shard-local views of tables and bitmap indices.

The cluster tier partitions a database *by column*: each shard executor
owns the bitmaps/planes of a subset of columns (hot columns may be
replicated onto several shards).  A shard never sees the whole
:class:`~repro.database.bitmap_index.BitmapIndex` — it sees a
:class:`BitmapIndexShardView`, a zero-copy view restricted to the columns
placed on that shard.

The view implements exactly the surface the service planner needs —
``num_rows``, ``bitmap``, ``check_predicates``, ``evaluate_conjunction``
— so lowering a scattered :class:`~repro.service.requests
.BitmapConjunctionRequest` happens *shard-locally*: each shard lowers and
executes only the OR/AND chain of its own predicates, and the cluster
frontend merges the per-shard partial bitmaps host-side (a bitwise AND),
bit-exactly reproducing single-device evaluation.

Views share the underlying bitmap arrays with their parent index — a
replica costs the *placed* columns' bytes on its shard's device in a real
deployment, which :meth:`BitmapIndexShardView.storage_bytes` reports, but
the simulation never copies.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.database.bitmap_index import BitmapIndex, BitmapPlan
from repro.database.tables import ColumnTable


class BitmapIndexShardView:
    """Column-subset view of a :class:`BitmapIndex` (bitmaps shared).

    The view quacks like a bitmap index over only its shard's columns, so
    the service planner's conjunction lowering
    (:func:`repro.api.plans.lower_conjunction_steps`) and latency model
    work unchanged on a shard — with predicates outside the shard's
    columns rejected loudly rather than silently answered.
    """

    def __init__(self, index: BitmapIndex, columns: Iterable[str]) -> None:
        self.index = index
        self.columns = list(columns)
        missing = [c for c in self.columns if c not in index.bitmaps]
        if missing:
            raise KeyError(f"columns {missing!r} are not indexed")

    @property
    def num_rows(self) -> int:
        """Rows covered by the index (column sharding never splits rows)."""
        return self.index.num_rows

    def indexed_columns(self) -> List[str]:
        """Names of the shard-local columns."""
        return list(self.columns)

    @property
    def table(self) -> ColumnTable:
        """The parent index's table (rebuild charging needs cardinalities)."""
        return self.index.table

    def dirty_columns(self) -> List[str]:
        """Shard-local columns whose planes are lazily deferred dirty.

        Maintenance state lives in the *parent* index (cluster writes
        commit at the coordinator); the view restricts the parent's dirty
        set to the columns placed here so a shard's planner charges
        repairs only for reads it actually serves.
        """
        return [c for c in self.index.dirty_columns() if c in self.columns]

    def generation(self, columns: Iterable[str]) -> int:
        """The parent index's write generation of ``columns``."""
        return self.index.generation(columns)

    def bitmap(self, column: str, value: int) -> np.ndarray:
        """Packed bitmap of ``column = value`` for a shard-local column."""
        self._require_local(column)
        return self.index.bitmap(column, value)

    def storage_bytes(self) -> int:
        """Bytes of the shard-local bitmaps (what a replica costs its device)."""
        return sum(
            bitmap.size
            for column in self.columns
            for bitmap in self.index.bitmaps[column].values()
        )

    # ------------------------------------------------------------------
    # Shard-local evaluation
    # ------------------------------------------------------------------
    def evaluate_conjunction(
        self, predicates: Sequence[Tuple[str, Sequence[int]]]
    ) -> Tuple[np.ndarray, BitmapPlan]:
        """Evaluate a conjunction of shard-local predicates."""
        self._require_all_local(predicates)
        return self.index.evaluate_conjunction(predicates)

    def check_predicates(self, predicates: Sequence[Tuple[str, Sequence[int]]]) -> None:
        """Raise ``KeyError`` unless every predicate column is placed here
        and indexed (see :meth:`BitmapIndex.check_predicates`)."""
        self._require_all_local(predicates)
        self.index.check_predicates(predicates)

    def _require_all_local(self, predicates: Sequence[Tuple[str, Sequence[int]]]) -> None:
        for column, _values in predicates:
            self._require_local(column)

    def _require_local(self, column: str) -> None:
        if column not in self.columns:
            raise KeyError(f"column {column!r} is not placed on this shard")
