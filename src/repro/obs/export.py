"""Chrome/Perfetto trace-event export for recorded span forests.

Produces the Trace Event JSON format that ``chrome://tracing`` and
https://ui.perfetto.dev load directly: one "X" (complete) event per
closed span, with two processes —

* **pid 0, "device lanes"** — one thread (track) per declared lane
  label: every bank lane, the host lane, and a ``batches`` row for
  dispatch windows.  A span placed on several lanes (a multi-bank
  primitive) emits one event per lane, so lane occupancy reads exactly
  like ``LaneSchedule``'s busy intervals.
* **pid 1, "requests"** — one thread per request root span, carrying the
  lifecycle tree (admission → queue → service, scatter → gather-merge).

Trace-event timestamps are microseconds, so ``ts``/``dur`` are the
virtual-clock nanoseconds divided by 1000; the *exact* nanosecond values
ride along in ``args`` (``start_ns``/``finish_ns``) — the busy-union
replay test reconstructs ``LaneSchedule.busy_union_ns`` bit-for-bit from
those.  Open spans (no ``end_ns``) are skipped.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

_DEVICE_PID = 0
_REQUEST_PID = 1


def _scalar(value: Any) -> Any:
    """JSON-safe attribute value (tuples, bank keys etc. stringify)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def _event(span: Span, pid: int, tid: int, end_ns: float) -> Dict[str, Any]:
    args: Dict[str, Any] = {"start_ns": span.start_ns, "finish_ns": end_ns}
    for key, value in span.attrs.items():
        args[key] = _scalar(value)
    return {
        "name": span.name,
        "cat": span.category,
        "ph": "X",
        "ts": span.start_ns / 1000.0,
        "dur": (end_ns - span.start_ns) / 1000.0,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


def _thread_name(pid: int, tid: int, label: str) -> Dict[str, Any]:
    return {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "ts": 0, "args": {"name": label}}


def trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Flatten the tracer's forest into trace-event dicts.

    Metadata events come first; "X" events follow in forest pre-order
    (roots in creation order, children in attach order), so the device
    events of one batch appear in exact lane-placement order.
    """
    meta: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": _DEVICE_PID, "tid": 0, "ts": 0, "args": {"name": "device lanes"}},
        {"name": "process_name", "ph": "M", "pid": _REQUEST_PID, "tid": 0, "ts": 0, "args": {"name": "requests"}},
    ]
    body: List[Dict[str, Any]] = []
    device_tids: Dict[str, int] = {}

    def device_tid(label: str) -> int:
        tid = device_tids.get(label)
        if tid is None:
            tid = len(device_tids) + 1
            device_tids[label] = tid
            meta.append(_thread_name(_DEVICE_PID, tid, label))
        return tid

    for label in tracer.tracks:
        device_tid(label)

    for root_index, root in enumerate(tracer.roots):
        request_tid = root_index + 1
        named_request_tid = False
        for span in root.walk():
            if span.end_ns is None:
                continue
            if span.track is not None:
                for label in span.track:
                    body.append(_event(span, _DEVICE_PID, device_tid(label), span.end_ns))
            else:
                if not named_request_tid:
                    meta.append(_thread_name(_REQUEST_PID, request_tid, f"{root.name} #{root_index}"))
                    named_request_tid = True
                body.append(_event(span, _REQUEST_PID, request_tid, span.end_ns))
    return meta + body


def build_trace(tracer: Tracer, metrics: Optional[MetricsRegistry] = None) -> Dict[str, Any]:
    """The full trace-file object (optionally embedding a metrics snapshot)."""
    payload: Dict[str, Any] = {
        "traceEvents": trace_events(tracer),
        "displayTimeUnit": "ns",
    }
    if metrics is not None:
        payload["metrics"] = metrics.snapshot()
    return payload


def write_trace(path: Union[str, Path], tracer: Tracer, metrics: Optional[MetricsRegistry] = None) -> Path:
    """Write a trace file; returns the path.  Name it ``TRACE_<x>.json``
    so ``tools/validate_bench.py`` picks the trace-event schema."""
    target = Path(path)
    target.write_text(json.dumps(build_trace(tracer, metrics), indent=2, sort_keys=True) + "\n")
    return target
