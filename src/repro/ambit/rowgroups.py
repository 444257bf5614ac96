"""The Ambit row organization inside one subarray.

Ambit splits each subarray's rows into three groups:

* **B-group (bitwise group)** — a small set of designated rows reserved for
  computation: four temporary rows (T0–T3) reachable by triple-row
  activation, plus two dual-contact rows (DCC0, DCC1) whose complement
  ports (``!DCC0``, ``!DCC1``) realize NOT.
* **C-group (control group)** — two pre-initialized rows: C0 (all zeros)
  and C1 (all ones), used as the third TRA input to select AND vs. OR.
* **D-group (data group)** — all remaining rows, available to software.

The B-group rows are addressed through reserved row addresses that the
memory controller maps onto a special row decoder; from the model's point
of view they are simply fixed row indices at the top of each subarray.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AmbitSubarrayLayout:
    """Row-index layout of the Ambit groups within one subarray.

    The designated rows are placed at the highest row indices of the
    subarray so that the low indices remain a contiguous data region.

    Args:
        rows_per_subarray: Total rows in the subarray.
    """

    rows_per_subarray: int

    #: Number of temporary (TRA-capable) rows in the B-group.
    NUM_T_ROWS = 4
    #: Number of dual-contact rows (each exposes a complemented port).
    NUM_DCC_ROWS = 2
    #: Number of control rows (C0 = zeros, C1 = ones).
    NUM_C_ROWS = 2

    def __post_init__(self) -> None:
        if self.rows_per_subarray <= self.reserved_rows:
            raise ValueError(
                f"subarray needs more than {self.reserved_rows} rows for Ambit"
            )

    @property
    def reserved_rows(self) -> int:
        """Rows taken away from software by the B- and C-groups."""
        return self.NUM_T_ROWS + 2 * self.NUM_DCC_ROWS + self.NUM_C_ROWS

    @property
    def data_rows(self) -> int:
        """Rows available to software (the D-group)."""
        return self.rows_per_subarray - self.reserved_rows

    # ------------------------------------------------------------------
    # Row indices (local to the subarray)
    # ------------------------------------------------------------------
    def t_row(self, index: int) -> int:
        """Local row index of temporary row ``T<index>`` (0–3)."""
        if not 0 <= index < self.NUM_T_ROWS:
            raise IndexError(f"T-row index {index} out of range")
        return self.rows_per_subarray - self.reserved_rows + index

    def dcc_row(self, index: int) -> int:
        """Local row index of dual-contact row ``DCC<index>`` (0–1)."""
        if not 0 <= index < self.NUM_DCC_ROWS:
            raise IndexError(f"DCC-row index {index} out of range")
        return self.rows_per_subarray - self.reserved_rows + self.NUM_T_ROWS + 2 * index

    def dcc_bar_row(self, index: int) -> int:
        """Local row index of the complement port ``!DCC<index>``."""
        return self.dcc_row(index) + 1

    @property
    def c0_row(self) -> int:
        """Local row index of the all-zeros control row."""
        return self.rows_per_subarray - self.NUM_C_ROWS

    @property
    def c1_row(self) -> int:
        """Local row index of the all-ones control row."""
        return self.rows_per_subarray - self.NUM_C_ROWS + 1
