"""Outside-in host-clock tracing: ``perf_counter`` shims around layer boundaries.

Nothing inside ``repro`` is edited.  :class:`Tracer` replaces the *public*
callables of the live objects behind a session (instance attributes, so
the classes stay untouched; ``BulkBitVector.__init__`` is the one
class-level patch) with shims that record a span — name, layer, start,
end, parent span, and the arrival or batch that caused it — into an
in-memory list.  :meth:`Tracer.detach` restores every original.

A layer is a ``repro`` module name.  A layer's self time is the duration
of its spans minus the part covered by their direct children, so the
layers' self times sum to the time spent under any shim; the rest of the
timed region (the harness's own submit loop) is ``trace.uncovered_frac``.
The shim's own cost lands in the *parent's* self time, which is why the
traced pass is separate from the end-to-end runs and reports
``trace.overhead_frac``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.service import BitmapConjunctionRequest, ScanRequest

#: Every layer the benchmark reports ``self_ms`` / ``calls`` for.
LAYERS = (
    "api.session",
    "service.frontend",
    "service.planner",
    "optimizer",
    "cache",
    "storage",
    "service.executor",
    "service.lanes",
    "ambit.engine",
    "ambit.bitvector",
    "database",
    "analysis.metrics",
    "cluster.frontend",
    "cluster.router",
    "cluster.faults",
    "cluster.controller",
)

_PLANNER = (
    "modeled_latency_ns", "modeled_banks", "should_close", "urgent_close",
    "next_close_ns", "commit_cache_fills",
)  # plus lower_batch, wrapped with a counting hook
_OPTIMIZER = ("open_batch", "lower_conjunction", "commit_fills", "invalidate_writes")
_CACHE = ("get", "put", "invalidate_columns", "write_epoch")
_STORAGE = ("note_read", "pending_rebuilds", "rebuild_charge", "lower_write", "modeled_write_ns")
_EXECUTOR = ("run", "modeled_latency_ns", "modeled_banks", "ready_ns")
_LANES = ("open_batch", "place")
_CLUSTER = ("offer", "advance_to", "drain", "gather", "fail_shard", "revive_shard")
_ROUTER = ("route", "assign_scatter", "replicas")
_FAULTS = ("next_fire_ns", "fire_due", "poll")
_CONTROLLER = ("run_due", "step")

Hook = Optional[Callable[..., Any]]


class Tracer:
    """Records host-clock spans around the layer boundaries of one session."""

    def __init__(self) -> None:
        #: ``[name, layer, start_s, end_s, parent_index, cause]`` per span.
        self.spans: List[List[Any]] = []
        #: Exact counts taken at the same boundaries.
        self.counts: Dict[str, int] = {
            "alloc_bytes": 0,
            "primitives": 0,
            "shard_advance_calls": 0,
            "shard_advance_noops": 0,
        }
        self.cost_pairs: Set[Tuple[str, int]] = set()
        self._stack: List[int] = []
        self._cause = ""
        self._undo: List[Tuple[Any, str, bool, Any]] = []
        self._wrapped: Set[Tuple[int, str]] = set()

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, layer: str, enter: Hook = None, leave: Hook = None) -> None:
        """Shim ``owner.attr``.  ``enter(*args)`` runs before the call and may
        return the cause label nested spans inherit; ``leave(result, *args)``
        runs after the span closed (its cost is the parent's)."""
        if (id(owner), attr) in self._wrapped:
            return  # shared objects (one maintenance policy for all shards)
        self._wrapped.add((id(owner), attr))
        original = getattr(owner, attr)
        name = f"{layer}.{attr}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def shim(*args: Any, **kwargs: Any) -> Any:
            previous = self._cause
            if enter is not None:
                label = enter(*args)
                if label is not None:
                    self._cause = label
            record = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self._cause]
            stack.append(len(spans))
            spans.append(record)
            record[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                self._cause = previous
            if leave is not None:
                leave(result, *args)
            return result

        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner)[attr] if own else None))
        setattr(owner, attr, shim)

    def _wrap_all(self, owner: Any, attrs: Tuple[str, ...], layer: str) -> None:
        for attr in attrs:
            self.wrap(owner, attr, layer)

    def detach(self) -> None:
        """Restore every wrapped callable (newest first)."""
        for owner, attr, own, previous in reversed(self._undo):
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)
        self._undo.clear()
        self._wrapped.clear()

    # ------------------------------------------------------------------
    # What gets wrapped
    # ------------------------------------------------------------------
    def attach(self, session: Any, events: List[Any], controller: Any = None) -> None:
        """Wrap the public callables of everything behind ``session``."""
        arrivals = iter(range(len(events) + 1))
        self.wrap(session, "submit", "api.session", enter=lambda *a: f"r{next(arrivals)}")
        self._wrap_all(session, ("drain", "responses"), "api.session")
        # The metrics roll-up has no live object of its own: it is timed at
        # its caller.
        self.wrap(session, "report", "analysis.metrics")

        backend = session.backend
        if session.tier == "cluster":
            self._wrap_all(backend, _CLUSTER, "cluster.frontend")
            self._wrap_all(backend.router, _ROUTER, "cluster.router")
            if backend.faults is not None:
                self._wrap_all(backend.faults, _FAULTS, "cluster.faults")
            if controller is not None:
                self._wrap_all(controller, _CONTROLLER, "cluster.controller")
            for shard_id, shard in enumerate(backend.shards):
                self._attach_frontend(shard, f"s{shard_id}.", count_advances=True)
        else:
            self._attach_frontend(backend, "", count_advances=False)

        def allocated(_result: Any, vector: Any, *_args: Any) -> None:
            self.counts["alloc_bytes"] += vector.storage_bytes

        self.wrap(BulkBitVector, "__init__", "ambit.bitvector", leave=allocated)
        for event in events:
            request = event.request
            if isinstance(request, ScanRequest):
                self.wrap(request.column, "scan", "database")
            elif isinstance(request, BitmapConjunctionRequest):
                self.wrap(request.index, "bitmap", "database")

    def _attach_frontend(self, frontend: Any, label: str, count_advances: bool) -> None:
        planner, executor = frontend.planner, frontend.executor
        self._wrap_all(frontend, ("offer", "drain", "result"), "service.frontend")
        self.wrap(
            frontend, "serve_batch", "service.frontend",
            enter=lambda *_args: f"{label}b{len(frontend.batches)}",
        )
        if count_advances:
            # Useful outcomes over attempts for the cluster's lock-step loop:
            # did this ``shard.advance_to`` serve a batch?
            served_before = 0

            def enter(*_args: Any) -> None:
                nonlocal served_before
                served_before = len(frontend.batches)

            def leave(_result: Any, *_args: Any) -> None:
                self.counts["shard_advance_calls"] += 1
                if len(frontend.batches) == served_before:
                    self.counts["shard_advance_noops"] += 1

            self.wrap(frontend, "advance_to", "service.frontend", enter=enter, leave=leave)
        else:
            self.wrap(frontend, "advance_to", "service.frontend")

        def lowered(result: Any, *_args: Any) -> None:
            self.counts["primitives"] += len(result[0])

        self.wrap(planner, "lower_batch", "service.planner", leave=lowered)
        self._wrap_all(planner, _PLANNER, "service.planner")
        if planner.optimizer is not None:
            self._wrap_all(planner.optimizer, _OPTIMIZER, "optimizer")
        if frontend.cache is not None:
            self._wrap_all(frontend.cache, _CACHE, "cache")
        self._wrap_all(planner.maintenance, _STORAGE, "storage")
        self._wrap_all(executor, _EXECUTOR, "service.executor")
        self._wrap_all(executor.lanes, _LANES, "service.lanes")

        def priced(_result: Any, op: str, rows: int, *_args: Any) -> None:
            self.cost_pairs.add((op, rows))

        self.wrap(executor.engine, "op_cost", "ambit.engine", leave=priced)

    # ------------------------------------------------------------------
    # Roll-up
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Everything the benchmark reports from one traced repeat, so the
        span list itself can be dropped: per-layer self seconds and calls,
        seconds under any shim, and the boundary counts."""
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        duration = np.array([s[3] - s[2] for s in self.spans])
        parent = np.array([s[4] for s in self.spans])
        covered = np.zeros(len(self.spans))
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        for record, seconds in zip(self.spans, duration - covered):
            self_s[record[1]] += seconds
            calls[record[1]] += 1
        # Host time per arrival, last quarter of the stream over the first
        # (1.0 = per-request cost is flat).
        submits = [d for s, d in zip(self.spans, duration) if s[0] == "api.session.submit"]
        quarter = len(submits) // 4
        return {
            "self_s": self_s,
            "calls": calls,
            "under_shims_s": float(duration[~nested].sum()),
            "submit_q4_over_q1": sum(submits[-quarter:]) / sum(submits[:quarter]) if quarter else 1.0,
            "rebuilds": sum(1 for s in self.spans if s[0] == "storage.rebuild_charge"),
            "distinct_costs": len(self.cost_pairs),
            **self.counts,
        }

    def write(self, path: Path, workload: str, timed_s: float) -> None:
        """Dump the spans (microseconds from the start of the first one)."""
        summary = self.summary()
        origin_s = self.spans[0][2]
        document = {
            "workload": workload,
            "clock": "host time.perf_counter, microseconds from the start of the first span",
            "timed_region_us": timed_s * 1e6,
            "layers": {
                layer: {"self_ms": summary["self_s"][layer] * 1e3, "calls": summary["calls"][layer]}
                for layer in LAYERS
            },
            "fields": ["name", "layer", "start_us", "end_us", "parent", "cause"],
            "spans": [
                [s[0], s[1], round((s[2] - origin_s) * 1e6, 2), round((s[3] - origin_s) * 1e6, 2), s[4], s[5]]
                for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(document, handle, separators=(",", ":"))
