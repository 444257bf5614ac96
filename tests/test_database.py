"""Tests for repro.database (tables, bitmap index, BitWeaving, queries)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import PimSession, lower_conjunction_steps
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.queries import QueryEngine
from repro.database.tables import ColumnTable, generate_sales_table


@pytest.fixture(scope="module")
def table() -> ColumnTable:
    return generate_sales_table(50_000, seed=11)


class TestColumnTable:
    def test_generated_columns(self, table):
        assert table.num_rows == 50_000
        assert set(table.columns) == {"region", "product", "quantity", "discount"}
        assert table.cardinalities["region"] == 16
        assert table.column("region").max() < 16

    def test_column_bits(self, table):
        assert table.column_bits("region") == 4
        assert table.column_bits("quantity") == 8

    def test_describe(self, table):
        assert "sales" in table.describe()

    def test_add_column_validation(self):
        table = ColumnTable("t", 10)
        with pytest.raises(ValueError):
            table.add_column("c", np.zeros(5, dtype=np.int64))
        with pytest.raises(TypeError):
            table.add_column("c", np.zeros(10))
        with pytest.raises(ValueError):
            table.add_column("c", np.full(10, -1, dtype=np.int64))
        with pytest.raises(KeyError):
            table.column("missing")

    def test_invalid_row_count(self):
        with pytest.raises(ValueError):
            generate_sales_table(0)

    def test_zipf_skew(self, table):
        counts = np.bincount(table.column("region"), minlength=16)
        assert counts[0] > counts[8]


class TestBitmapIndex:
    def test_bitmaps_partition_the_rows(self, table):
        index = BitmapIndex(table, ["region"])
        total = sum(
            BitmapIndex.count(index.bitmap("region", value), table.num_rows)
            for value in range(16)
        )
        assert total == table.num_rows

    def test_in_predicate_matches_reference(self, table):
        index = BitmapIndex(table, ["region"])
        result, plan = index.evaluate_in("region", [1, 3])
        expected = int(np.isin(table.column("region"), [1, 3]).sum())
        assert BitmapIndex.count(result, table.num_rows) == expected
        assert plan.total_operations == 1  # one OR

    def test_conjunction_matches_reference(self, table):
        index = BitmapIndex(table, ["region", "product"])
        predicates = [("region", [0, 1]), ("product", [2, 3, 4])]
        result, plan = index.evaluate_conjunction(predicates)
        codes_region = table.column("region")
        codes_product = table.column("product")
        expected = int(
            (np.isin(codes_region, [0, 1]) & np.isin(codes_product, [2, 3, 4])).sum()
        )
        assert BitmapIndex.count(result, table.num_rows) == expected
        assert plan.total_operations == 1 + 2 + 1  # ORs within columns + final AND

    def test_empty_predicates_rejected(self, table):
        index = BitmapIndex(table, ["region"])
        with pytest.raises(ValueError):
            index.evaluate_in("region", [])
        with pytest.raises(ValueError):
            index.evaluate_conjunction([])
        with pytest.raises(KeyError):
            index.bitmap("region", 99)

    @settings(max_examples=120, deadline=None)
    @given(
        num_rows=st.integers(1, 2100),
        seed=st.integers(0, 2**16),
        extra_bytes=st.integers(0, 9),
        strided=st.booleans(),
    )
    def test_count_matches_unpackbits_reference(self, num_rows, seed, extra_bytes, strided):
        """Word popcount + unpacked tail == the plain unpackbits count, for
        row counts off the 8- and 64-bit grid, over-long inputs (bits past
        ``num_rows`` set) and non-contiguous ones."""
        rng = np.random.default_rng(seed)
        size = (num_rows + 7) // 8 + extra_bytes
        if strided:
            packed = rng.integers(0, 256, size=2 * size, dtype=np.uint8)[::2]
            assert not packed.flags.c_contiguous or size == 1
        else:
            packed = rng.integers(0, 256, size=size, dtype=np.uint8)
        reference = int(np.unpackbits(packed, bitorder="little")[:num_rows].sum())
        assert BitmapIndex.count(packed, num_rows) == reference

    def test_lowered_source_operands_are_read_only_views(self):
        # 65 536 rows = exactly one 8 KiB device row per plane.
        whole = ColumnTable("whole", 65536)
        whole.add_column("c", np.arange(65536) % 4, cardinality=4)
        index = BitmapIndex(whole, ["c"])
        steps, _result, _plan = lower_conjunction_steps(index, [("c", [1, 2])])
        (_op, a, b, out) = steps[0]
        for operand, value in ((a, 1), (b, 2)):
            assert np.shares_memory(operand.data, index.bitmap("c", value))
            with pytest.raises(ValueError):
                operand.data[0] = 1
        out.data[0] = 1  # destinations stay writable

    def test_short_plane_lowers_to_a_zero_padded_full_row(self):
        # 16 384 rows -> 2 048 B planes, shorter than one 8 192 B row.
        short = ColumnTable("short", 16384)
        short.add_column("c", np.arange(16384) % 4, cardinality=4)
        index = BitmapIndex(short, ["c"])
        steps, _result, _plan = lower_conjunction_steps(index, [("c", [0, 3])])
        (_op, a, b, _out) = steps[0]
        for operand, value in ((a, 0), (b, 3)):
            plane = index.bitmap("c", value)
            assert operand.storage_bytes == operand.data.size == 8192
            np.testing.assert_array_equal(operand.data[: plane.size], plane)
            assert not operand.data[plane.size :].any()
            assert not operand.data.flags.writeable

    def test_storage_and_bulk_vectors(self, table):
        index = BitmapIndex(table, ["region"])
        assert index.storage_bytes() == 16 * ((table.num_rows + 7) // 8)


class TestBitWeaving:
    @pytest.fixture(scope="class")
    def column(self, table):
        return BitWeavingColumn.from_table(table, "quantity")

    def test_plane_count_and_storage(self, column, table):
        assert column.num_bits == 8
        assert len(column.planes) == 8
        assert column.storage_bytes() == 8 * ((table.num_rows + 7) // 8)

    @pytest.mark.parametrize("constant", [0, 1, 37, 128, 255])
    def test_less_than_matches_reference(self, column, table, constant):
        codes = table.column("quantity")
        result, _ = column.scan_less_than(constant)
        expected = column.reference_scan(codes, lambda c: c < constant)
        assert np.array_equal(result, expected)

    @pytest.mark.parametrize("constant", [0, 5, 100, 255])
    def test_equal_matches_reference(self, column, table, constant):
        codes = table.column("quantity")
        result, _ = column.scan_equal(constant)
        expected = column.reference_scan(codes, lambda c: c == constant)
        assert np.array_equal(result, expected)

    def test_less_equal_and_range(self, column, table):
        codes = table.column("quantity")
        result, _ = column.scan_less_equal(99)
        assert np.array_equal(result, column.reference_scan(codes, lambda c: c <= 99))
        result, _ = column.scan_range(32, 96)
        assert np.array_equal(
            result, column.reference_scan(codes, lambda c: (c >= 32) & (c <= 96))
        )

    def test_range_validation(self, column):
        with pytest.raises(ValueError):
            column.scan_range(10, 5)
        with pytest.raises(ValueError):
            column.scan_less_than(256)

    def test_plan_reports_operations(self, column):
        _, plan = column.scan_less_than(37)
        assert plan.total_operations > 0
        assert plan.planes_touched == 8
        assert set(plan.operations) <= {"and", "or", "not"}

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BitWeavingColumn(np.array([4]), num_bits=2)
        with pytest.raises(ValueError):
            BitWeavingColumn(np.array([-1]), num_bits=4)
        with pytest.raises(ValueError):
            BitWeavingColumn(np.array([[1, 2]]), num_bits=4)


def _sessions():
    """(host-CPU session, Ambit service session) priced by one cost model."""
    engine = QueryEngine()
    return (
        PimSession.over_host(coster=engine),
        PimSession.over_service(engine=engine.ambit, coster=engine),
    )


class TestQueryEngine:
    def test_backends_agree_on_result(self, table):
        column = BitWeavingColumn.from_table(table, "quantity")
        host, service = _sessions()
        cpu = host.range_count(column, 32, 96).result()
        ambit = service.range_count(column, 32, 96).result()
        assert cpu.matching_rows == ambit.matching_rows
        expected = int(((table.column("quantity") >= 32) & (table.column("quantity") <= 96)).sum())
        assert cpu.matching_rows == expected

    def test_ambit_scan_is_faster_for_large_tables(self):
        table = generate_sales_table(8_000_000, seed=1)
        column = BitWeavingColumn.from_table(table, "quantity")
        host, service = _sessions()
        cpu = host.range_count(column, 32, 57).result()
        ambit = service.range_count(column, 32, 57).result()
        assert ambit.latency_ns < cpu.latency_ns
        assert cpu.latency_ns / ambit.latency_ns > 3

    def test_speedup_grows_with_table_size(self):
        host, service = _sessions()
        speedups = []
        for rows in (500_000, 4_000_000, 16_000_000):
            table = generate_sales_table(rows, seed=2)
            column = BitWeavingColumn.from_table(table, "quantity")
            cpu = host.range_count(column, 32, 57).result()
            ambit = service.range_count(column, 32, 57).result()
            speedups.append(cpu.latency_ns / ambit.latency_ns)
        assert speedups[0] < speedups[1] < speedups[2]

    def test_conjunction_backends_agree(self, table):
        index = BitmapIndex(table, ["region", "product"])
        host, service = _sessions()
        predicates = [("region", [0, 1]), ("product", [0, 1, 2])]
        cpu = host.conjunction(index, predicates).result()
        ambit = service.conjunction(index, predicates).result()
        assert cpu.matching_rows == ambit.matching_rows
        assert cpu.breakdown["scan_ns"] > 0
        assert ambit.breakdown["epilogue_ns"] == pytest.approx(cpu.breakdown["epilogue_ns"])

    def test_epilogue_scales_with_selectivity(self, table):
        engine = QueryEngine()
        low = engine.epilogue_cost(table.num_rows, matching_rows=100)
        high = engine.epilogue_cost(table.num_rows, matching_rows=40_000)
        assert high.latency_ns > low.latency_ns
