"""Counters, gauges, and streaming histograms for the observability plane.

The existing roll-ups (``summarize_queue_records`` and friends) retain
every sample and compute exact percentiles at the end of a run — fine
for thousands of requests, wrong for the ROADMAP's millions.  The
:class:`StreamingHistogram` here is the constant-memory alternative:
log-bucketed counts (eight buckets per octave, ~9% bucket width) that
answer p50/p99 within a few percent without retaining a single record.

Everything lives in a :class:`MetricsRegistry`, snapshot as one plain
dict (``{"counters": ..., "gauges": ..., "histograms": ...}``) — the
shape ``tools/validate_bench.py`` registers as the metrics-snapshot
schema and ``SessionReport.obs`` carries to clients.
"""

from __future__ import annotations

import math
from typing import Any, ClassVar, Dict


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A point-in-time level (queue depth, backlog)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class StreamingHistogram:
    """Log-bucketed streaming histogram with O(buckets) memory.

    Positive observations land in bucket ``floor(log2(v) * 8)`` — eight
    buckets per octave, so one bucket spans a factor of ``2**(1/8)``
    (~9%) and a quantile read off a bucket's geometric midpoint is at
    most ~4.5% from the true value, independent of sample count.
    Non-positive observations are tallied separately (waits are often
    exactly zero under light load).  Only sparse bucket counts, the
    count/sum, and the min/max are retained.
    """

    BUCKETS_PER_OCTAVE: ClassVar[int] = 8

    __slots__ = ("name", "count", "total", "min_value", "max_value", "_zeros", "_buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf
        self._zeros = 0
        self._buckets: Dict[int, int] = {}

    def observe(self, value: float) -> None:
        sample = float(value)
        self.count += 1
        self.total += sample
        self.min_value = min(self.min_value, sample)
        self.max_value = max(self.max_value, sample)
        if sample <= 0.0:
            self._zeros += 1
            return
        index = math.floor(math.log2(sample) * self.BUCKETS_PER_OCTAVE)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def quantile(self, q: float) -> float:
        """Approximate q-th percentile (q in [0, 100]); 0.0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q} outside [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        if rank <= self._zeros:
            return min(self.min_value, 0.0)
        cumulative = self._zeros
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative >= rank:
                midpoint = 2.0 ** ((index + 0.5) / self.BUCKETS_PER_OCTAVE)
                return min(max(midpoint, self.min_value), self.max_value)
        return self.max_value

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict summary (the metrics-snapshot schema's histogram)."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "p50": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min_value,
            "max": self.max_value,
            "p50": self.quantile(50.0),
            "p99": self.quantile(99.0),
        }


class MetricsRegistry:
    """Get-or-create registry of counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, StreamingHistogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str) -> StreamingHistogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = StreamingHistogram(name)
        return histogram

    def snapshot(self) -> Dict[str, Any]:
        """One plain dict for the whole registry, keys sorted for diffing."""
        return {
            "counters": {name: self._counters[name].value for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].snapshot() for name in sorted(self._histograms)},
        }
