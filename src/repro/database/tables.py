"""Synthetic column-store tables for the database experiments.

The Ambit end-to-end evaluation uses an analytics-style table scanned by
predicates over low-cardinality dimension columns (bitmap indices) and
narrow integer measure columns (BitWeaving).  The generator below produces
such a table with controllable row count, column cardinalities, and value
skew, which are the variables the query-latency experiment sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence

import numpy as np


@dataclass
class ColumnTable:
    """A simple in-memory column store.

    Attributes:
        name: Table name.
        num_rows: Number of rows.
        columns: Mapping from column name to a NumPy integer array of codes.
        cardinalities: Mapping from column name to its number of distinct values.
    """

    name: str
    num_rows: int
    columns: Dict[str, np.ndarray] = field(default_factory=dict)
    cardinalities: Dict[str, int] = field(default_factory=dict)

    def add_column(self, name: str, values: np.ndarray, cardinality: Optional[int] = None) -> None:
        """Add a column of integer codes."""
        values = np.asarray(values)
        if values.shape != (self.num_rows,):
            raise ValueError(f"column {name!r} must have {self.num_rows} values")
        if not np.issubdtype(values.dtype, np.integer):
            raise TypeError("column values must be integers (dictionary-encoded codes)")
        if values.size and values.min() < 0:
            raise ValueError("column codes must be non-negative")
        self.columns[name] = values.astype(np.int64)
        self.cardinalities[name] = (
            cardinality if cardinality is not None else int(values.max()) + 1 if values.size else 0
        )

    def column(self, name: str) -> np.ndarray:
        """Return a column's codes."""
        try:
            return self.columns[name]
        except KeyError as exc:
            raise KeyError(f"table {self.name!r} has no column {name!r}") from exc

    def column_bits(self, name: str) -> int:
        """Bits needed to encode the column's codes."""
        cardinality = self.cardinalities[name]
        return max(1, int(np.ceil(np.log2(max(2, cardinality)))))

    def column_bytes(self, name: str, code_bytes: int = 4) -> int:
        """Size of the column stored as plain fixed-width codes."""
        return self.num_rows * code_bytes

    # ------------------------------------------------------------------
    # Mutation (the write path; index maintenance lives in repro.storage)
    # ------------------------------------------------------------------
    def append_rows(self, rows: Mapping[str, Sequence[int]]) -> int:
        """Append rows given as per-column code sequences.

        Every existing column must be covered, all sequences must have the
        same length, and codes must be non-negative integers.  Returns the
        number of rows appended.  Cardinalities widen when a new code
        exceeds the recorded cardinality (dictionary growth).
        """
        if set(rows) != set(self.columns):
            missing = set(self.columns) - set(rows)
            extra = set(rows) - set(self.columns)
            raise ValueError(
                f"append must cover exactly the table's columns "
                f"(missing: {sorted(missing)}, unknown: {sorted(extra)})"
            )
        arrays: Dict[str, np.ndarray] = {}
        count: Optional[int] = None
        for name, values in rows.items():
            array = np.asarray(values)
            if array.ndim != 1:
                raise ValueError(f"append values for {name!r} must be one-dimensional")
            if not np.issubdtype(array.dtype, np.integer):
                raise TypeError("appended codes must be integers")
            if array.size and array.min() < 0:
                raise ValueError("appended codes must be non-negative")
            if count is None:
                count = int(array.size)
            elif int(array.size) != count:
                raise ValueError("append columns must have equal lengths")
            arrays[name] = array.astype(np.int64)
        if not count:
            return 0
        for name, array in arrays.items():
            self.columns[name] = np.concatenate([self.columns[name], array])
            if array.size:
                self.cardinalities[name] = max(
                    self.cardinalities[name], int(array.max()) + 1
                )
        self.num_rows += count
        return count

    def checked_row_ids(self, row_ids: Sequence[int], unique: bool = False) -> np.ndarray:
        """``row_ids`` as a one-dimensional integer array inside
        ``[0, num_rows)`` (duplicate-free when ``unique``), or a typed
        error.  Run by the mutators, and by the frontends at ``offer``."""
        ids = np.asarray(row_ids)
        if ids.ndim != 1:
            raise ValueError("row_ids must be one-dimensional")
        if ids.size == 0:
            return ids
        if not np.issubdtype(ids.dtype, np.integer):
            raise TypeError("row_ids must be integers")
        if ids.min() < 0 or ids.max() >= self.num_rows:
            raise ValueError(f"row_ids must be in [0, {self.num_rows})")
        if unique and np.unique(ids).size != ids.size:
            raise ValueError("row_ids must be unique within one update")
        return ids

    def update_rows(self, name: str, row_ids: Sequence[int], values: Sequence[int]) -> int:
        """Overwrite ``column[row_ids] = values``; returns rows updated.

        Row ids must be unique — a duplicated id would make incremental
        index maintenance (clear old bit, set new bit) ambiguous — and in
        range.  Cardinality widens for new codes.
        """
        column = self.column(name)
        ids = self.checked_row_ids(row_ids, unique=True)
        codes = np.asarray(values)
        if ids.shape != codes.shape:
            raise ValueError("row_ids and values must be one-dimensional and equal-length")
        if ids.size == 0:
            return 0
        if not np.issubdtype(codes.dtype, np.integer):
            raise TypeError("updated codes must be integers")
        if codes.min() < 0:
            raise ValueError("updated codes must be non-negative")
        column[ids] = codes.astype(np.int64)
        self.cardinalities[name] = max(self.cardinalities[name], int(codes.max()) + 1)
        return int(ids.size)

    def delete_rows(self, row_ids: Sequence[int]) -> int:
        """Physically delete rows; later rows renumber down (simulation
        semantics — there is no tombstone layer).  Returns rows deleted."""
        ids = np.unique(self.checked_row_ids(row_ids))
        if ids.size == 0:
            return 0
        for name in self.columns:
            self.columns[name] = np.delete(self.columns[name], ids)
        self.num_rows -= int(ids.size)
        return int(ids.size)

    def describe(self) -> str:
        """One-line description used by the benchmark output."""
        cols = ", ".join(
            f"{name}({self.cardinalities[name]} values)" for name in self.columns
        )
        return f"{self.name}: {self.num_rows} rows, columns: {cols}"


def generate_sales_table(
    num_rows: int,
    seed: Optional[int] = None,
    region_cardinality: int = 16,
    product_cardinality: int = 64,
    quantity_bits: int = 8,
) -> ColumnTable:
    """Generate the synthetic analytics table used by the E4 benchmark.

    Columns:

    * ``region`` — low-cardinality dimension, Zipf-skewed (bitmap indexed),
    * ``product`` — medium-cardinality dimension, Zipf-skewed,
    * ``quantity`` — ``quantity_bits``-bit measure, uniform (BitWeaving),
    * ``discount`` — 4-bit measure, geometric-ish skew.
    """
    if num_rows <= 0:
        raise ValueError("num_rows must be positive")
    rng = np.random.default_rng(seed)
    table = ColumnTable(name="sales", num_rows=num_rows)

    def zipf_codes(cardinality: int) -> np.ndarray:
        ranks = np.arange(1, cardinality + 1, dtype=np.float64)
        probabilities = 1.0 / ranks
        probabilities /= probabilities.sum()
        return rng.choice(cardinality, size=num_rows, p=probabilities)

    table.add_column("region", zipf_codes(region_cardinality), region_cardinality)
    table.add_column("product", zipf_codes(product_cardinality), product_cardinality)
    table.add_column(
        "quantity", rng.integers(0, 1 << quantity_bits, size=num_rows), 1 << quantity_bits
    )
    discount = np.minimum(
        rng.geometric(p=0.3, size=num_rows) - 1, 15
    )
    table.add_column("discount", discount, 16)
    return table
