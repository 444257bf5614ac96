"""Tests for repro.dram.controller."""

import numpy as np
import pytest

from repro.dram.controller import MemoryController, Request, RequestKind
from repro.dram.geometry import DramGeometry


@pytest.fixture
def controller(small_geometry) -> MemoryController:
    return MemoryController(small_geometry)


class TestFunctionalPath:
    def test_write_then_read_returns_data(self, controller):
        payload = np.arange(64, dtype=np.uint8)
        controller.submit(Request(RequestKind.WRITE, address=0, data=payload))
        controller.drain()
        read = Request(RequestKind.READ, address=0)
        controller.submit(read)
        controller.drain()
        assert np.array_equal(read.result, payload)

    def test_write_requires_64_bytes(self, controller):
        with pytest.raises(ValueError):
            controller.submit(Request(RequestKind.WRITE, address=0, data=np.zeros(8, dtype=np.uint8)))

    def test_row_hit_is_faster_than_row_miss(self):
        geometry = DramGeometry(
            channels=1,
            ranks_per_channel=1,
            banks_per_rank=2,
            subarrays_per_bank=2,
            rows_per_subarray=8,
            row_size_bytes=512,
        )
        controller = MemoryController(geometry)
        first = Request(RequestKind.READ, address=0)
        hit = Request(RequestKind.READ, address=64)  # next line of the same row
        controller.submit(first)
        controller.submit(hit)
        controller.drain()
        # Another row of the same bank forces a precharge + activate.
        row_stride = geometry.row_size_bytes * geometry.banks_per_rank
        miss = Request(RequestKind.READ, address=row_stride)
        controller.submit(miss)
        controller.drain()
        assert hit.row_hit is True
        assert miss.row_hit is False
        assert controller.stats.row_hits >= 1
        assert controller.stats.row_misses + controller.stats.row_closed >= 1
        assert hit.latency_ns < miss.latency_ns

    def test_latencies_are_positive_and_monotonic_time(self, controller):
        requests = [Request(RequestKind.READ, address=i * 64) for i in range(16)]
        for request in requests:
            controller.submit(request)
        controller.drain()
        completion_times = [r.completion_time_ns for r in requests]
        assert all(latency is not None and latency > 0 for latency in
                   (r.latency_ns for r in requests))
        assert controller.now_ns == pytest.approx(max(completion_times))

    def test_stats_energy_accumulates(self, controller):
        for i in range(8):
            controller.submit(Request(RequestKind.READ, address=i * 64))
        controller.drain()
        assert controller.stats.energy.total_j > 0
        assert controller.stats.reads == 8

    def test_every_access_is_classified(self, controller):
        for i in range(8):
            controller.submit(Request(RequestKind.READ, address=i * 64))
        controller.drain()
        stats = controller.stats
        assert stats.row_hits + stats.row_misses + stats.row_closed == stats.reads == 8



def _two_rows_of_one_bank(controller: MemoryController):
    """Addresses of two different rows that share the bank of address 0."""
    home = controller.mapper.decode(0)
    for address in range(64, controller.mapper.capacity_bytes, 64):
        other = controller.mapper.decode(address)
        if other.bank == home.bank and other.rank == home.rank and other.row != home.row:
            return 0, address
    raise AssertionError("geometry has a single row per bank")


class TestRowBuffer:
    def test_first_access_finds_the_bank_closed(self, controller):
        read = Request(RequestKind.READ, address=0)
        controller.submit(read)
        controller.drain()
        stats = controller.stats
        assert (stats.row_closed, stats.row_hits, stats.row_misses) == (1, 0, 0)
        assert (stats.activations, stats.precharges) == (1, 0)
        assert stats.energy.activation_j == pytest.approx(controller.energy_params.activation_energy_j)
        assert read.latency_ns == pytest.approx(controller.timing.row_empty_read_latency_ns)

    def test_a_row_conflict_precharges_and_reopens(self, controller):
        first, conflict = _two_rows_of_one_bank(controller)
        for address in (first, conflict):
            controller.submit(Request(RequestKind.READ, address=address))
            controller.drain()
        stats = controller.stats
        assert (stats.row_closed, stats.row_misses, stats.row_hits) == (1, 1, 0)
        assert (stats.activations, stats.precharges) == (2, 1)
        coordinate = controller.mapper.decode(conflict)
        assert controller.bank_for(coordinate).open_row == coordinate.row

    def test_fr_fcfs_serves_a_younger_row_hit_before_an_older_conflict(self, controller):
        first, conflict = _two_rows_of_one_bank(controller)
        opener = Request(RequestKind.READ, address=first)
        controller.submit(opener)
        controller.drain()
        older = Request(RequestKind.READ, address=conflict)
        younger = Request(RequestKind.READ, address=first)
        controller.submit(older)
        controller.submit(younger)
        assert controller.drain() == [younger, older]
        assert younger.row_hit is True and older.row_hit is False

    def test_a_write_swaps_cas_for_write_recovery(self, small_geometry):
        reader, writer = MemoryController(small_geometry), MemoryController(small_geometry)
        read = Request(RequestKind.READ, address=0)
        write = Request(RequestKind.WRITE, address=0, data=np.ones(64, dtype=np.uint8))
        reader.submit(read)
        writer.submit(write)
        reader.drain()
        writer.drain()
        timing = reader.timing
        assert write.latency_ns - read.latency_ns == pytest.approx(timing.t_wr_ns - timing.t_cas_ns)
        assert writer.stats.energy.write_j == pytest.approx(writer.energy_params.write_burst_energy_j)
        assert writer.stats.energy.read_j == 0

class TestAnalyticalPath:
    def test_peak_bandwidth(self):
        controller = MemoryController(DramGeometry.ddr3_dimm())
        assert controller.peak_bandwidth_bytes_per_s() == pytest.approx(25.6e9)
