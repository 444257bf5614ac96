"""Tests for repro.ambit.engine — functional correctness and cost model."""

import numpy as np
import pytest

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import (
    AMBIT_PRIMITIVE_COUNTS,
    BINARY_OPS,
    UNARY_OPS,
    AmbitConfig,
    AmbitEngine,
    reference_result,
)
from repro.dram.device import DramDevice
from repro.hostsim.cpu import HostCpu

ALL_OPS = list(UNARY_OPS) + list(BINARY_OPS)

REFERENCE = {
    "not": lambda a, b: ~a,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "nand": lambda a, b: ~(a & b),
    "nor": lambda a, b: ~(a | b),
    "xor": lambda a, b: a ^ b,
    "xnor": lambda a, b: ~(a ^ b),
}


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("op", ALL_OPS)
    def test_op_matches_reference_on_device(self, small_ambit, op):
        num_bits = 1000  # spans several 64 B rows across both banks
        a = small_ambit.alloc_vector(num_bits).fill_random(seed=10)
        b = None
        if op in BINARY_OPS:
            b = small_ambit.alloc_vector(num_bits).fill_random(seed=20)
        out, metrics = small_ambit.execute(op, a, b, functional=True)
        reference = REFERENCE[op](
            a.data[: a.num_bytes], b.data[: b.num_bytes] if b is not None else None
        ).astype(np.uint8)
        assert np.array_equal(out.data[: out.num_bytes], reference)
        assert metrics.bytes_moved_on_channel == 0

    def test_functional_and_analytical_agree_on_value(self, small_ambit):
        a = small_ambit.alloc_vector(600).fill_random(seed=1)
        b = small_ambit.alloc_vector(600).fill_random(seed=2)
        functional, _ = small_ambit.execute("xor", a, b, functional=True)
        analytical, _ = small_ambit.execute("xor", a, b, functional=False)
        assert np.array_equal(
            functional.data[: functional.num_bytes], analytical.data[: analytical.num_bytes]
        )

    def test_functional_and_analytical_charge_same_cost(self, small_ambit):
        a = small_ambit.alloc_vector(600).fill_random(seed=1)
        b = small_ambit.alloc_vector(600).fill_random(seed=2)
        _, functional = small_ambit.execute("and", a, b, functional=True)
        _, analytical = small_ambit.execute("and", a, b, functional=False)
        assert functional.latency_ns == pytest.approx(analytical.latency_ns)
        assert functional.energy_j == pytest.approx(analytical.energy_j)

    def test_operands_not_modified(self, small_ambit):
        a = small_ambit.alloc_vector(500).fill_random(seed=5)
        b = small_ambit.alloc_vector(500).fill_random(seed=6)
        a_before = a.data.copy()
        b_before = b.data.copy()
        small_ambit.execute("nand", a, b, functional=True)
        assert np.array_equal(a.data, a_before)
        assert np.array_equal(b.data, b_before)

    def test_preallocated_output_is_used(self, small_ambit):
        a = small_ambit.alloc_vector(500).fill_random(seed=1)
        b = small_ambit.alloc_vector(500).fill_random(seed=2)
        out = small_ambit.alloc_vector(500)
        returned, _ = small_ambit.execute("and", a, b, out=out, functional=True)
        assert returned is out
        assert np.array_equal(out.data[: out.num_bytes], a.expected_and(b))

    @pytest.mark.parametrize("op", ["not", "nand", "nor", "xnor"])
    def test_complementing_ops_agree_on_padding(self, small_ambit, op):
        """Regression: the functional path used to return set padding bits
        for complementing ops while the analytical path masked them."""
        num_bits = 1003  # not a multiple of 8: 5 padding bits in the last byte
        a = small_ambit.alloc_vector(num_bits).fill_random(seed=31)
        b = small_ambit.alloc_vector(num_bits).fill_random(seed=32) if op != "not" else None
        functional, _ = small_ambit.execute(op, a, b, functional=True)
        analytical, _ = small_ambit.execute(op, a, b, functional=False)
        assert np.array_equal(functional.data, analytical.data)
        # All padding past num_bits is zero on both paths.
        assert functional.data[num_bits // 8] >> (num_bits % 8) == 0
        assert functional.data[num_bits // 8 + 1 :].max(initial=0) == 0
        assert functional.count_ones() == int(functional.to_bits().sum())

    def test_expected_not_masks_padding(self, small_ambit):
        a = small_ambit.alloc_vector(13).fill_value(1)
        expected = a.expected_not()
        assert expected.tolist() == [0, 0]
        out, _ = small_ambit.execute("not", a, functional=True)
        assert np.array_equal(out.data[: out.num_bytes], expected)

    def test_host_only_vectors_use_analytical_path(self):
        engine = AmbitEngine(DramDevice.ddr3())
        a = BulkBitVector(1 << 16).fill_random(seed=1)
        b = BulkBitVector(1 << 16).fill_random(seed=2)
        out, metrics = engine.execute("or", a, b)
        assert np.array_equal(out.data, a.data | b.data)
        assert "analytical" in metrics.notes


class TestArgumentValidation:
    def test_binary_op_requires_two_operands(self, small_ambit):
        a = small_ambit.alloc_vector(100)
        with pytest.raises(ValueError):
            small_ambit.execute("and", a)

    def test_unary_op_rejects_second_operand(self, small_ambit):
        a = small_ambit.alloc_vector(100)
        b = small_ambit.alloc_vector(100)
        with pytest.raises(ValueError):
            small_ambit.execute("not", a, b)

    def test_length_mismatch_rejected(self, small_ambit):
        a = small_ambit.alloc_vector(100)
        b = small_ambit.alloc_vector(200)
        with pytest.raises(ValueError):
            small_ambit.execute("and", a, b)

    def test_unknown_op_rejected(self, small_ambit):
        a = small_ambit.alloc_vector(100)
        with pytest.raises(ValueError):
            small_ambit.execute("implies", a, a)

    def test_unplaced_vector_rejected_in_functional_mode(self, small_ambit):
        a = BulkBitVector(100, row_size_bytes=64)
        with pytest.raises(ValueError):
            small_ambit.execute("not", a, functional=True)


class TestCostModel:
    def test_primitive_counts_exposed(self):
        engine = AmbitEngine(DramDevice.ddr3())
        assert engine.primitives_for("and") == AMBIT_PRIMITIVE_COUNTS["and"]
        with pytest.raises(ValueError):
            engine.primitives_for("mystery")

    def test_not_is_cheapest_and_xor_is_most_expensive(self):
        engine = AmbitEngine(DramDevice.ddr3())
        latencies = {op: engine.per_row_latency_ns(op) for op in ALL_OPS}
        assert latencies["not"] == min(latencies.values())
        assert latencies["xor"] == max(latencies.values())

    def test_throughput_scales_with_banks(self):
        engine = AmbitEngine(DramDevice.ddr3())
        assert engine.throughput_bytes_per_s("and", banks=16) == pytest.approx(
            2 * engine.throughput_bytes_per_s("and", banks=8)
        )

    def test_latency_independent_of_value_density(self):
        engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8))
        dense = BulkBitVector(1 << 20).fill_value(1)
        sparse = BulkBitVector(1 << 20).fill_value(0)
        _, dense_metrics = engine.execute("and", dense, dense.copy_like())
        _, sparse_metrics = engine.execute("and", sparse, sparse.copy_like())
        assert dense_metrics.latency_ns == pytest.approx(sparse_metrics.latency_ns)

    def test_ambit_8_banks_beats_cpu_by_published_factor(self):
        """The headline E1 shape: with 8 banks, bulk AND throughput is tens
        of times the processor-centric throughput."""
        device = DramDevice.ddr3()
        engine = AmbitEngine(device, AmbitConfig(banks_parallel=8))
        cpu = HostCpu(dram=device)
        size_bits = 8 << 23  # 8 MiB
        a = BulkBitVector(size_bits)
        b = BulkBitVector(size_bits)
        _, ambit_metrics = engine.execute("and", a, b)
        cpu_metrics = cpu.bulk_bitwise("and", size_bits // 8)
        ratio = ambit_metrics.throughput_bytes_per_s / cpu_metrics.throughput_bytes_per_s
        assert 20 < ratio < 80

    def test_energy_scales_with_rows_not_banks(self):
        device = DramDevice.ddr3()
        few_banks = AmbitEngine(device, AmbitConfig(banks_parallel=2))
        many_banks = AmbitEngine(device, AmbitConfig(banks_parallel=16))
        a = BulkBitVector(1 << 20)
        b = BulkBitVector(1 << 20)
        _, few = few_banks.execute("or", a, b)
        _, many = many_banks.execute("or", a, b)
        assert few.energy_j == pytest.approx(many.energy_j)
        assert many.latency_ns < few.latency_ns


class TestInternedOpCost:
    """``op_cost`` interns the formula per (op, rows, banks_parallel) and
    stamps a fresh metrics object from it on every call."""

    def test_calls_return_equal_but_distinct_objects(self):
        engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8))
        first = engine.op_cost("or", 3, 100)
        second = engine.op_cost("or", 3, 100)
        assert first == second and first is not second
        # Callers edit the stamped object in place (_scan_metrics does):
        # that must never reach the intern table.
        first.bytes_produced = 7
        first.notes = "edited"
        assert engine.op_cost("or", 3, 100) == second

    @pytest.mark.parametrize("mode", ["modeled", "analytical", "functional staged"])
    def test_notes_strings_keep_their_format(self, mode):
        engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8))
        assert engine.op_cost("and", 3, 10, mode).notes == f"{mode}, 3 rows over 3 banks"
        assert engine.op_cost("and", 20, 10, mode).notes == f"{mode}, 20 rows over 8 banks"
        assert engine.op_cost("not", 0, mode=mode).notes == f"{mode}, 0 rows over 1 banks"
        assert engine.op_cost("and", 3).name == "ambit_and"

    def test_matches_the_formula(self):
        engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8))
        for op in ALL_OPS:
            for rows in (0, 1, 8, 20):
                for _ in range(2):  # cold and interned
                    cost = engine.op_cost(op, rows, bytes_produced=rows)
                    per_bank = -(-rows // min(8, rows)) if rows else 0
                    assert cost.latency_ns == per_bank * engine.per_row_latency_ns(op)
                    assert cost.energy_j == rows * engine.per_row_energy_j(op)
                    assert cost.bytes_produced == rows

    def test_banks_parallel_change_after_a_priced_call_is_honoured(self):
        engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=8))
        wide = engine.op_cost("and", 16)
        engine.config.banks_parallel = 2
        narrow = engine.op_cost("and", 16)
        assert narrow.latency_ns == pytest.approx(4 * wide.latency_ns)
        assert narrow.notes == "modeled, 16 rows over 2 banks"
        engine.config.banks_parallel = 8
        assert engine.op_cost("and", 16) == wide

    def test_unknown_op_still_rejected(self):
        engine = AmbitEngine(DramDevice.ddr3())
        for _ in range(2):
            with pytest.raises(ValueError):
                engine.op_cost("mystery", 4)


class TestInPlaceAnalyticalOps:
    @pytest.mark.parametrize("op", ALL_OPS)
    def test_analytical_result_equals_masked_reference(self, op):
        engine = AmbitEngine(DramDevice.ddr3())
        a = BulkBitVector(1003, 64).fill_random(seed=1)
        b = BulkBitVector(1003, 64).fill_random(seed=2) if op in BINARY_OPS else None
        out = BulkBitVector(1003, 64).fill_value(1)  # stale bytes must be overwritten
        result, _ = engine.execute(op, a, b, out=out)
        assert result is out
        np.testing.assert_array_equal(out.data, reference_result(op, a, b))

    def test_destination_may_alias_an_operand(self):
        engine = AmbitEngine(DramDevice.ddr3())
        a = BulkBitVector(512, 64).fill_random(seed=3)
        b = BulkBitVector(512, 64).fill_random(seed=4)
        expected = a.expected_xor(b)
        engine.execute("xor", a, b, out=a)
        np.testing.assert_array_equal(a.data[: a.num_bytes], expected)

    def test_read_only_destination_is_refused(self):
        engine = AmbitEngine(DramDevice.ddr3())
        a = BulkBitVector(512, 64).fill_random(seed=5)
        frozen = a.data.view()
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            engine.execute("and", a, a, out=BulkBitVector(512, 64, data=frozen))
