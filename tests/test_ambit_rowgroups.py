"""Tests for repro.ambit.rowgroups."""

import pytest

from repro.ambit.rowgroups import AmbitSubarrayLayout


class TestLayout:
    def test_reserved_row_count(self):
        layout = AmbitSubarrayLayout(512)
        # 4 T rows + 2 DCC pairs (4 rows) + 2 control rows.
        assert layout.reserved_rows == 10
        assert layout.data_rows == 502

    @pytest.mark.parametrize("rows", [64, 512])
    def test_all_reserved_rows_are_distinct_and_in_range(self, rows):
        layout = AmbitSubarrayLayout(rows)
        reserved = [layout.t_row(i) for i in range(4)]
        reserved += [row for i in range(2) for row in (layout.dcc_row(i), layout.dcc_bar_row(i))]
        reserved += [layout.c0_row, layout.c1_row]
        assert len(reserved) == len(set(reserved)) == layout.reserved_rows
        # Above the D-group, so rows [0, data_rows) are all data rows.
        assert all(layout.data_rows <= row < rows for row in reserved)

    def test_t_row_indices(self):
        layout = AmbitSubarrayLayout(64)
        t_rows = [layout.t_row(i) for i in range(4)]
        assert t_rows == sorted(t_rows)
        with pytest.raises(IndexError):
            layout.t_row(4)

    def test_dcc_and_complement_are_adjacent(self):
        layout = AmbitSubarrayLayout(64)
        for index in range(2):
            assert layout.dcc_bar_row(index) == layout.dcc_row(index) + 1
        with pytest.raises(IndexError):
            layout.dcc_row(2)

    def test_control_rows_are_last(self):
        layout = AmbitSubarrayLayout(64)
        assert layout.c1_row == 63
        assert layout.c0_row == 62

    def test_too_small_subarray_rejected(self):
        with pytest.raises(ValueError):
            AmbitSubarrayLayout(10)
        AmbitSubarrayLayout(11)  # one data row is enough
