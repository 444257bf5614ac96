"""BitWeaving predicate boundary tests against a NumPy oracle.

Randomized tables are scanned at the predicate boundaries that historically
break bit-serial comparison code — the all-zeros constant, the all-ones
constant ``2**k - 1``, exact equality, and the endpoints of ``between``
ranges — on both the analytical and the functional execution backends.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.database.bitweaving import BitWeavingColumn
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.service import BatchExecutor, ScanRequest


def _engine(banks: int = 2) -> AmbitEngine:
    geometry = DramGeometry(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=banks,
        subarrays_per_bank=2,
        rows_per_subarray=32,
        row_size_bytes=64,
    )
    device = DramDevice(
        geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )
    return AmbitEngine(
        device, AmbitConfig(banks_parallel=banks, vectorized_functional=True)
    )


def _random_codes(seed: int, num_bits: int, rows: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # Bias towards the extremes so boundary values actually occur in the data.
    plain = rng.integers(0, 1 << num_bits, size=rows)
    extremes = rng.choice([0, (1 << num_bits) - 1], size=rows)
    pick = rng.random(rows) < 0.25
    return np.where(pick, extremes, plain)


def _oracle(codes: np.ndarray, predicate) -> np.ndarray:
    return np.packbits(predicate(codes).astype(np.uint8), bitorder="little")


def _scan(column, kind, constants, functional):
    """Run one scan on the chosen backend and return the packed result."""
    if functional:
        request = ScanRequest(column=column, kind=kind, constants=tuple(constants))
        batch = BatchExecutor(engine=_engine()).run([request], functional=True)
        return batch.results[0].value
    result, _ = column.scan(kind, *constants)
    return result


class TestPredicateBoundaries:
    @pytest.mark.parametrize("functional", [False, True])
    @pytest.mark.parametrize("num_bits", [1, 3, 8])
    def test_constant_zero(self, num_bits, functional):
        codes = _random_codes(seed=1, num_bits=num_bits, rows=333)
        column = BitWeavingColumn(codes, num_bits)
        assert np.array_equal(
            _scan(column, "less_than", (0,), functional),
            _oracle(codes, lambda c: c < 0),
        )
        assert np.array_equal(
            _scan(column, "less_equal", (0,), functional),
            _oracle(codes, lambda c: c <= 0),
        )
        assert np.array_equal(
            _scan(column, "equal", (0,), functional),
            _oracle(codes, lambda c: c == 0),
        )

    @pytest.mark.parametrize("functional", [False, True])
    @pytest.mark.parametrize("num_bits", [1, 3, 8])
    def test_constant_all_ones(self, num_bits, functional):
        top = (1 << num_bits) - 1
        codes = _random_codes(seed=2, num_bits=num_bits, rows=333)
        column = BitWeavingColumn(codes, num_bits)
        assert np.array_equal(
            _scan(column, "less_than", (top,), functional),
            _oracle(codes, lambda c: c < top),
        )
        assert np.array_equal(
            _scan(column, "less_equal", (top,), functional),
            _oracle(codes, lambda c: c <= top),
        )
        assert np.array_equal(
            _scan(column, "equal", (top,), functional),
            _oracle(codes, lambda c: c == top),
        )

    @pytest.mark.parametrize("functional", [False, True])
    def test_between_endpoints_inclusive(self, functional):
        num_bits = 6
        top = (1 << num_bits) - 1
        codes = _random_codes(seed=3, num_bits=num_bits, rows=400)
        column = BitWeavingColumn(codes, num_bits)
        for low, high in [(0, 0), (top, top), (0, top), (17, 17), (5, 40)]:
            assert np.array_equal(
                _scan(column, "between", (low, high), functional),
                _oracle(codes, lambda c: (c >= low) & (c <= high)),
            ), (low, high)

    @settings(max_examples=30, deadline=None)
    @given(
        num_bits=st.integers(1, 8),
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 500),
        functional=st.booleans(),
        pivot=st.integers(0, 255),
    )
    def test_property_boundaries_match_oracle(self, num_bits, seed, rows, functional, pivot):
        top = (1 << num_bits) - 1
        pivot %= 1 << num_bits
        codes = _random_codes(seed=seed, num_bits=num_bits, rows=rows)
        column = BitWeavingColumn(codes, num_bits)
        checks = [
            ("equal", (0,), lambda c: c == 0),
            ("equal", (top,), lambda c: c == top),
            ("equal", (pivot,), lambda c: c == pivot),
            ("less_than", (pivot,), lambda c: c < pivot),
            ("less_equal", (pivot,), lambda c: c <= pivot),
            ("between", (0, pivot), lambda c: (c >= 0) & (c <= pivot)),
            ("between", (pivot, top), lambda c: (c >= pivot) & (c <= top)),
        ]
        for kind, constants, predicate in checks:
            assert np.array_equal(
                _scan(column, kind, constants, functional), _oracle(codes, predicate)
            ), (kind, constants)

    def test_out_of_range_constants_rejected(self):
        column = BitWeavingColumn(np.array([0, 1, 2]), 2)
        with pytest.raises(ValueError):
            column.scan("equal", 4)
        with pytest.raises(ValueError):
            column.scan("less_than", -1)
        with pytest.raises(ValueError):
            column.scan("between", 3, 1)
        with pytest.raises(ValueError):
            column.scan("greater_than", 1)
