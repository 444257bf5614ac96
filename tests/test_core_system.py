"""Tests for repro.core.system."""

import numpy as np
import pytest

from repro.core.system import PIMSystem
from repro.dram.device import DramDevice
from repro.dram.energy import DramEnergyParameters
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DramTimingParameters
from repro.rowclone.engine import CopyMode


@pytest.fixture
def functional_system(small_geometry) -> PIMSystem:
    device = DramDevice(
        small_geometry, DramTimingParameters.ddr3_1600(), DramEnergyParameters.ddr3_1600()
    )
    return PIMSystem(device, functional=True)


@pytest.fixture
def analytical_system() -> PIMSystem:
    return PIMSystem.default()


class TestBulkBitwiseApi:
    def test_all_binary_ops_produce_correct_values(self, functional_system):
        a = functional_system.alloc_bitvector(700).fill_random(seed=1)
        b = functional_system.alloc_bitvector(700).fill_random(seed=2)
        assert np.array_equal(
            functional_system.bulk_and(a, b).data[:88], a.expected_and(b)
        )
        assert np.array_equal(
            functional_system.bulk_or(a, b).data[:88], a.expected_or(b)
        )
        assert np.array_equal(
            functional_system.bulk_xor(a, b).data[:88], a.expected_xor(b)
        )

    def test_history_records_speedups(self, analytical_system):
        a = analytical_system.alloc_bitvector(1 << 22)
        b = analytical_system.alloc_bitvector(1 << 22)
        analytical_system.bulk_and(a, b)
        record = analytical_system.last_operation()
        assert record.speedup > 1.0
        assert record.energy_reduction > 1.0
        assert "faster" in analytical_system.last_operation_report()

    def test_history_table(self, analytical_system):
        with pytest.raises(RuntimeError):
            analytical_system.last_operation()
        a = analytical_system.alloc_bitvector(1 << 20)
        b = analytical_system.alloc_bitvector(1 << 20)
        analytical_system.bulk_or(a, b)
        analytical_system.bulk_xor(a, b)
        table = analytical_system.history_table()
        assert len(table.rows) == 2


    @pytest.mark.parametrize("op", ["and", "or", "xor"])
    def test_each_op_is_compared_with_the_same_host_op(self, analytical_system, op):
        a = analytical_system.alloc_bitvector(1 << 20)
        b = analytical_system.alloc_bitvector(1 << 20)
        getattr(analytical_system, f"bulk_{op}")(a, b)
        record = analytical_system.last_operation()
        assert record.pim == analytical_system.ambit.execute(op, a, b)[1]
        assert record.host_baseline == analytical_system.cpu.bulk_bitwise(op, a.num_bytes)

class TestDataMovementApi:
    def test_copy_and_fill_record_history(self, analytical_system):
        copy_metrics = analytical_system.copy(16 << 20)
        fill_metrics = analytical_system.fill(16 << 20)
        assert copy_metrics.bytes_moved_on_channel == 0
        assert fill_metrics.bytes_moved_on_channel == 0
        assert len(analytical_system.history) == 2
        assert all(record.speedup > 1 for record in analytical_system.history)

    @pytest.mark.parametrize("mode", list(CopyMode))
    def test_each_copy_mode_is_priced_by_rowclone_against_a_cpu_copy(self, analytical_system, mode):
        size = 8 << 20
        metrics = analytical_system.copy(size, mode)
        record = analytical_system.last_operation()
        assert record.pim is metrics
        assert metrics == analytical_system.rowclone.bulk_copy(size, mode)
        assert record.host_baseline == analytical_system.cpu.bulk_copy(size)
