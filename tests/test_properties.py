"""Property-based tests (hypothesis) for the core data structures.

These cover the invariants the rest of the stack silently relies on:
bit-exact behaviour of the in-DRAM operations, BitWeaving scan
correctness for arbitrary codes and constants, and the monotonicity of
the analytical cost models.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.bitvector import BulkBitVector, mask_padding_bytes
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.database.bitweaving import BitWeavingColumn
from repro.graph.graph import CsrGraph
from repro.hostsim.cpu import HostCpu


def _tiny_device() -> DramDevice:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=2,
        subarrays_per_bank=2,
        rows_per_subarray=16,
        row_size_bytes=64,
    )
    return DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )


class TestAmbitFunctionalProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        op=st.sampled_from(["and", "or", "xor", "nand", "nor", "xnor"]),
        seed_a=st.integers(0, 2**16),
        seed_b=st.integers(0, 2**16),
        num_bits=st.integers(1, 900),
    )
    def test_binary_ops_match_numpy_reference(self, op, seed_a, seed_b, num_bits):
        engine = AmbitEngine(_tiny_device(), AmbitConfig(banks_parallel=2))
        a = engine.alloc_vector(num_bits).fill_random(seed=seed_a)
        b = engine.alloc_vector(num_bits).fill_random(seed=seed_b)
        out, _ = engine.execute(op, a, b, functional=True)
        reference = {
            "and": lambda: a.data & b.data,
            "or": lambda: a.data | b.data,
            "xor": lambda: a.data ^ b.data,
            "nand": lambda: ~(a.data & b.data),
            "nor": lambda: ~(a.data | b.data),
            "xnor": lambda: ~(a.data ^ b.data),
        }[op]().astype(np.uint8)
        # Compare the logical bits: complementing ops set the padding bits
        # of the raw reference, which the engine (correctly) masks out.
        reference_bits = np.unpackbits(reference, bitorder="little")[:num_bits]
        assert np.array_equal(out.to_bits(), reference_bits)
        assert np.array_equal(out.data, mask_padding_bytes(reference.copy(), num_bits))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), num_bits=st.integers(1, 900))
    def test_double_negation_is_identity(self, seed, num_bits):
        engine = AmbitEngine(_tiny_device(), AmbitConfig(banks_parallel=2))
        a = engine.alloc_vector(num_bits).fill_random(seed=seed)
        negated, _ = engine.execute("not", a, functional=True)
        restored, _ = engine.execute("not", negated, functional=True)
        assert np.array_equal(restored.data[: a.num_bytes], a.data[: a.num_bytes])

    @settings(max_examples=50, deadline=None)
    @given(
        num_bits=st.integers(1, 4096),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_count_ones_matches_unpacked_bits(self, num_bits, density, seed):
        vector = BulkBitVector(num_bits).fill_random(seed=seed, density=density)
        assert vector.count_ones() == int(vector.to_bits().sum())


class TestBitWeavingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        num_bits=st.integers(1, 10),
        constant=st.integers(0, 1023),
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 2000),
    )
    def test_comparisons_match_reference(self, num_bits, constant, seed, rows):
        constant = constant % (1 << num_bits)
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, 1 << num_bits, size=rows)
        column = BitWeavingColumn(codes, num_bits)
        less, _ = column.scan_less_than(constant)
        assert np.array_equal(less, column.reference_scan(codes, lambda c: c < constant))
        equal, _ = column.scan_equal(constant)
        assert np.array_equal(equal, column.reference_scan(codes, lambda c: c == constant))
        less_equal, _ = column.scan_less_equal(constant)
        assert np.array_equal(
            less_equal, column.reference_scan(codes, lambda c: c <= constant)
        )


class TestCsrGraphProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        num_vertices=st.integers(1, 40),
        num_edges=st.integers(0, 200),
        seed=st.integers(0, 2**16),
    )
    def test_degree_sums_and_edge_list_roundtrip(self, num_vertices, num_edges, seed):
        rng = np.random.default_rng(seed)
        sources = rng.integers(0, num_vertices, size=num_edges)
        destinations = rng.integers(0, num_vertices, size=num_edges)
        graph = CsrGraph.from_arrays(num_vertices, sources, destinations)
        assert graph.out_degree().sum() == num_edges
        assert np.array_equal(graph.out_degree(), np.bincount(sources, minlength=num_vertices))
        edges = sorted(zip(graph.edge_sources().tolist(), graph.indices.tolist()))
        assert edges == sorted(zip(sources.tolist(), destinations.tolist()))


class TestCostModelProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        small=st.integers(1, 1 << 20),
        factor=st.integers(2, 16),
        op=st.sampled_from(["not", "and", "or", "xor", "copy", "fill"]),
    )
    def test_cpu_cost_is_monotonic_in_size(self, small, factor, op):
        cpu = HostCpu()
        if op in ("copy", "fill"):
            first = cpu.bulk_copy(small) if op == "copy" else cpu.bulk_fill(small)
            second = cpu.bulk_copy(small * factor) if op == "copy" else cpu.bulk_fill(small * factor)
        else:
            first = cpu.bulk_bitwise(op, small)
            second = cpu.bulk_bitwise(op, small * factor)
        assert second.latency_ns >= first.latency_ns
        assert second.energy_j >= first.energy_j

    @settings(max_examples=40, deadline=None)
    @given(num_bits=st.integers(8, 1 << 22), banks=st.integers(1, 64))
    def test_ambit_throughput_scales_with_banks(self, num_bits, banks):
        engine = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=banks))
        single = AmbitEngine(DramDevice.ddr3(), AmbitConfig(banks_parallel=1))
        assert engine.throughput_bytes_per_s("and") == pytest.approx(
            banks * single.throughput_bytes_per_s("and")
        )
