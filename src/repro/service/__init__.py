"""The admission-controlled bulk-operation service pipeline.

Three stages serve streams of in-DRAM work (Ambit bulk bitwise operations,
BitWeaving predicate scans, RowClone copies, bitmap-index conjunctions):

* :class:`ServiceFrontend` — arrival processes (Poisson / trace), a
  bounded priority queue with admission control, and per-request deadlines;
* :class:`BatchPlanner` — closes batches by policy (size / time window /
  deadline urgency) and lowers high-level requests into primitives;
* :class:`BatchExecutor` — pure execution with bank-level overlap (LPT
  makespan scheduling), operation fusion, and allocation reuse.

Callers that hand-build their own batches pass a request list straight to
:meth:`BatchExecutor.run`.
"""

from repro.service.client import BackoffPolicy, RetryClient, RetryOutcome, RetryRecord
from repro.service.config import BatchPolicy, PipelineConfig
from repro.service.executor import BatchExecutor
from repro.service.lanes import HOST_LANE, LaneSchedule
from repro.service.frontend import (
    ArrivalEvent,
    PipelineResult,
    ServiceFrontend,
    poisson_schedule,
    trace_schedule,
)
from repro.service.planner import BatchPlanner, LoweredGroup
from repro.service.pool import VectorPool
from repro.service.requests import (
    BatchResult,
    BitmapConjunctionRequest,
    BulkOpRequest,
    CopyRequest,
    FrontendRequest,
    QueuedRequest,
    RequestEnvelope,
    RequestResult,
    SCAN_KINDS,
    ScanRequest,
)

__all__ = [
    "ArrivalEvent",
    "BackoffPolicy",
    "BatchExecutor",
    "BatchPlanner",
    "BatchPolicy",
    "BatchResult",
    "BitmapConjunctionRequest",
    "BulkOpRequest",
    "CopyRequest",
    "FrontendRequest",
    "HOST_LANE",
    "LaneSchedule",
    "LoweredGroup",
    "PipelineConfig",
    "PipelineResult",
    "QueuedRequest",
    "RequestEnvelope",
    "RequestResult",
    "RetryClient",
    "RetryOutcome",
    "RetryRecord",
    "SCAN_KINDS",
    "ScanRequest",
    "ServiceFrontend",
    "VectorPool",
    "poisson_schedule",
    "trace_schedule",
]
