"""Tests for repro.dram.address."""

import pytest

from repro.dram.address import CACHE_LINE_BYTES, AddressMapper, DramCoordinate
from repro.dram.geometry import DramGeometry


@pytest.fixture
def geometry() -> DramGeometry:
    return DramGeometry(
        channels=2,
        ranks_per_channel=1,
        banks_per_rank=4,
        subarrays_per_bank=2,
        rows_per_subarray=16,
        row_size_bytes=512,
    )


class TestRowInterleaved:
    def test_consecutive_lines_alternate_channels(self, geometry):
        mapper = AddressMapper(geometry, "row_interleaved")
        first = mapper.decode(0)
        second = mapper.decode(CACHE_LINE_BYTES)
        assert first.channel != second.channel

    def test_roundtrip_encode_decode(self, geometry):
        mapper = AddressMapper(geometry, "row_interleaved")
        for address in range(0, geometry.total_capacity_bytes, 7919 * CACHE_LINE_BYTES):
            aligned = (address // CACHE_LINE_BYTES) * CACHE_LINE_BYTES
            coordinate = mapper.decode(aligned)
            assert mapper.encode(coordinate) == aligned

    def test_stream_stays_in_one_row_before_switching(self, geometry):
        mapper = AddressMapper(geometry, "row_interleaved")
        lines_per_row = geometry.row_size_bytes // CACHE_LINE_BYTES
        rows_seen = {
            mapper.decode(i * CACHE_LINE_BYTES).row
            for i in range(lines_per_row * geometry.channels)
        }
        assert rows_seen == {0}


class TestBankInterleaved:
    def test_consecutive_lines_spread_across_banks(self, geometry):
        mapper = AddressMapper(geometry, "bank_interleaved")
        banks = {
            mapper.decode(i * CACHE_LINE_BYTES).bank
            for i in range(geometry.channels * geometry.banks_per_rank)
        }
        assert len(banks) == geometry.banks_per_rank

    def test_roundtrip_encode_decode(self, geometry):
        mapper = AddressMapper(geometry, "bank_interleaved")
        for address in range(0, geometry.total_capacity_bytes, 104729 * CACHE_LINE_BYTES):
            aligned = (address // CACHE_LINE_BYTES) * CACHE_LINE_BYTES
            coordinate = mapper.decode(aligned)
            assert mapper.encode(coordinate) == aligned


class TestValidation:
    def test_unknown_policy_rejected(self, geometry):
        with pytest.raises(ValueError):
            AddressMapper(geometry, "hashed")

    def test_out_of_range_address_rejected(self, geometry):
        mapper = AddressMapper(geometry)
        with pytest.raises(ValueError):
            mapper.decode(geometry.total_capacity_bytes)
        with pytest.raises(ValueError):
            mapper.decode(-1)

    def test_encode_validates_fields(self, geometry):
        mapper = AddressMapper(geometry)
        with pytest.raises(ValueError):
            mapper.encode(DramCoordinate(channel=99, rank=0, bank=0, row=0, column=0))

    def test_decode_within_capacity_never_exceeds_geometry(self, geometry):
        mapper = AddressMapper(geometry)
        coordinate = mapper.decode(geometry.total_capacity_bytes - CACHE_LINE_BYTES)
        assert coordinate.channel < geometry.channels
        assert coordinate.bank < geometry.banks_per_rank
        assert coordinate.row < geometry.rows_per_bank
