"""Tests for repro.analysis (metrics and tables)."""

import math

import pytest

from repro.analysis.metrics import (
    OperationMetrics,
    arithmetic_mean,
    geometric_mean,
    percentile_or,
    ratio,
)
from repro.analysis.tables import ResultTable


class TestOperationMetrics:
    def test_throughput(self):
        metrics = OperationMetrics("op", latency_ns=1000.0, energy_j=1e-9, bytes_produced=8000)
        assert metrics.throughput_bytes_per_s == pytest.approx(8e9)
        assert metrics.throughput_gops64 == pytest.approx(1.0)

    def test_zero_latency_throughput_is_zero(self):
        metrics = OperationMetrics("op", latency_ns=0.0, energy_j=0.0, bytes_produced=100)
        assert metrics.throughput_bytes_per_s == 0.0

    def test_speedup_and_energy_reduction(self):
        fast = OperationMetrics("fast", latency_ns=10.0, energy_j=1.0)
        slow = OperationMetrics("slow", latency_ns=100.0, energy_j=5.0)
        assert fast.speedup_over(slow) == pytest.approx(10.0)
        assert fast.energy_reduction_over(slow) == pytest.approx(5.0)

    def test_speedup_with_zero_latency_rejected(self):
        bad = OperationMetrics("bad", latency_ns=0.0, energy_j=0.0)
        other = OperationMetrics("other", latency_ns=1.0, energy_j=1.0)
        with pytest.raises(ValueError):
            bad.speedup_over(other)


class TestSummaryStatistics:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_rejects_empty_and_non_positive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            arithmetic_mean([])

    def test_ratio(self):
        assert ratio(10.0, 2.0) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            ratio(1.0, 0.0)

    def test_percentile(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile_or(values, 0) == pytest.approx(1.0)
        assert percentile_or(values, 100) == pytest.approx(4.0)
        assert percentile_or(values, 50) == pytest.approx(2.5)
        assert percentile_or([], 50) == 0.0
        assert percentile_or([], 50, default=-1.0) == -1.0
        with pytest.raises(ValueError):
            percentile_or(values, 150)

    def test_geometric_mean_matches_log_definition(self):
        values = [3.0, 7.0, 11.0, 13.0]
        expected = math.exp(sum(math.log(v) for v in values) / len(values))
        assert geometric_mean(values) == pytest.approx(expected)


class TestResultTable:
    def test_add_row_and_render(self):
        table = ResultTable("Demo", ["name", "value"])
        table.add_row("a", 1.5)
        table.add_row("b", 2)
        text = table.render()
        assert "Demo" in text
        assert "name" in text
        assert "1.5" in text

    def test_add_row_wrong_arity_rejected(self):
        table = ResultTable("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_column_accessor(self):
        table = ResultTable("Demo", ["name", "value"])
        table.add_row("x", 1)
        table.add_row("y", 2)
        assert table.column("value") == [1, 2]
        with pytest.raises(KeyError):
            table.column("missing")

    def test_float_formatting(self):
        table = ResultTable("Demo", ["v"], float_format="{:.1f}")
        table.add_row(3.14159)
        assert "3.1" in table.render()
