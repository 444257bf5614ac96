"""Result containers, summary statistics, and text-table rendering.

Every benchmark harness and example uses these helpers to report results in
the same shape the paper does: a small table of named rows with a ratio
column (speedup, energy reduction) and a geometric-mean summary row.
"""

from repro.analysis.metrics import (
    BatchMetrics,
    ClusterMetrics,
    LaneMetrics,
    OperationMetrics,
    QueueMetrics,
    arithmetic_mean,
    geometric_mean,
    percentile_or,
    ratio,
)
from repro.analysis.tables import ResultTable
from repro.analysis.timeline import render_lane_timeline, render_span_tree

__all__ = [
    "BatchMetrics",
    "ClusterMetrics",
    "LaneMetrics",
    "OperationMetrics",
    "QueueMetrics",
    "ResultTable",
    "arithmetic_mean",
    "geometric_mean",
    "percentile_or",
    "ratio",
    "render_lane_timeline",
    "render_span_tree",
]
