"""The batch executor: pure execution of primitive service requests.

:class:`BatchExecutor` is the third stage of the service pipeline
(frontend → planner → executor).  It takes an already-shaped list of
primitive requests — Ambit bulk bitwise operations, BitWeaving predicate
scans, RowClone bulk copies — executes each one, and list-schedules the
results onto the device's banks to obtain the batch makespan.  It holds no
queue and applies no policy: admission lives in
:class:`~repro.service.frontend.ServiceFrontend`, batch shaping and
lowering in :class:`~repro.service.planner.BatchPlanner`.

Three execution optimizations make batches cheap without changing what the
hardware is charged for:

* **Bank-level overlap** — requests whose rows live in disjoint banks
  proceed concurrently (the DDR command bus has ample headroom for AAP
  sequences), so the batch finishes in the makespan of a per-bank schedule
  rather than the sum of request latencies.  Requests are ordered longest
  processing time first (LPT) before the greedy bank assignment, which
  tightens the makespan over submission order.  This is the *only* way a
  batch may be faster: per-request latency and total energy are identical
  to sequential execution, which the property tests pin down.  With
  ``pipeline`` (the default) the per-bank schedule is a *persistent*
  :class:`~repro.service.lanes.LaneSchedule` whose lane horizons carry
  across batches: a new batch's requests start on banks the previous
  batch has already drained instead of waiting behind a global batch
  barrier.  ``pipeline=False`` restores the batch-synchronous schedule
  (a fresh timeline per batch) for A/B comparison; either way the
  schedule only moves start times — results, per-request latencies, and
  energies are bit-identical.
* **Operation fusion** — within a batch, the complement of a bit plane is
  materialized at most once and reused by every step that needs it (the
  NOT feeding an AND in the BitWeaving recurrence, the shared planes of a
  ``between``'s two half-scans), and control rows are initialized once per
  subarray across the whole batch.  Every fused operation is still charged
  at full cost; fusion only removes redundant simulation work and row
  traffic.
* **Allocation reuse** — intermediate vectors come from a small LRU pool
  (:class:`~repro.service.pool.VectorPool`), so a long request stream
  recycles a bounded set of DRAM rows instead of bleeding the allocator
  dry.

Functional execution goes through the engine's vectorized functional path
(every row chunk of an operation in one NumPy call); results are bit-exact
with one-at-a-time sequential execution on either path.  For large soak
runs, ``verify_fraction`` executes only a deterministic seeded subset of
each batch on the simulated banks (with verification) and the rest
analytically — values are bit-exact either way, so sampling changes no
results and no charged costs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.metrics import BatchMetrics, OperationMetrics, combine_serial
from repro.database.bitweaving import BitWeavingColumn
from repro.obs import NULL_OBSERVER, Observer, Span
from repro.rowclone.engine import RowCloneEngine
from repro.service.lanes import HOST_LANE, LaneSchedule
from repro.service.pool import VectorPool
from repro.service.requests import (
    BatchResult,
    BulkOpRequest,
    CopyRequest,
    RequestResult,
    ScanRequest,
    ServiceRequest,
)
from repro.verify.schedule_check import ScheduleSanitizer, check_schedule


@dataclass
class _BatchContext:
    """Per-run state: plane/complement caches and fusion accounting."""

    plane_vectors: Dict[Tuple[int, int, int], BulkBitVector] = field(default_factory=dict)
    not_vectors: Dict[Tuple[int, int, int], BulkBitVector] = field(default_factory=dict)
    fused_ops: int = 0


class BatchExecutor:
    """Executes batches of primitive bulk in-DRAM requests.

    Args:
        engine: Ambit engine to execute on.  When omitted, an engine with
            the vectorized functional path enabled is created.
        pool_capacity: Size of the LRU pool of intermediate row allocations.
        fuse: Enable operation fusion (shared plane complements).  Fusion
            never changes results or charged costs; disabling it is only
            useful for A/B testing the planner.
        lpt: Order requests longest-latency-first before the greedy bank
            assignment (LPT list scheduling).  Ordering only moves start
            times within the batch; per-request results, latencies, and
            energies are unchanged.  Disabling falls back to submission
            order, useful for A/B-testing the makespan.
        pipeline / verify_fraction / verify_seed / sanitize: The
            :class:`~repro.service.config.PipelineConfig` knobs of the same
            names, documented there; this is the leaf that consumes them.

    Tracing is off until :meth:`bind_observer` hands in a recording plane
    (the frontends push theirs down): a span per dispatched batch and per
    lane placement plus executor counters/histograms.  The disabled path
    allocates no span objects, and recording never changes results,
    schedules, or charged costs.
    """

    def __init__(
        self,
        engine: Optional[AmbitEngine] = None,
        pool_capacity: int = 16,
        fuse: bool = True,
        lpt: bool = True,
        pipeline: bool = True,  # lint: allow[knob-drift]
        verify_fraction: float = 1.0,  # lint: allow[knob-drift]
        verify_seed: int = 0,  # lint: allow[knob-drift]
        sanitize: bool = False,  # lint: allow[knob-drift]
    ) -> None:
        if not 0.0 <= verify_fraction <= 1.0:
            raise ValueError("verify_fraction must be in [0, 1]")
        self.engine = engine or AmbitEngine(config=AmbitConfig(vectorized_functional=True))
        #: RowClone engine for copy requests, on the same device.
        self.rowclone = RowCloneEngine(
            self.engine.device, banks_parallel=self.engine.config.banks_parallel
        )
        self.pool = VectorPool(self.engine, capacity=pool_capacity)
        self.fuse = fuse
        self.lpt = lpt
        self.pipeline = pipeline
        self.verify_fraction = verify_fraction
        self.verify_seed = verify_seed
        #: Requests executed on the simulated banks across all runs.
        self.functional_executed = 0
        #: Functional-mode requests diverted to the analytical path by
        #: ``verify_fraction`` sampling.
        self.sampled_out = 0
        self._batches_run = 0
        # Weakly keyed: a dead column must not pin its offset (or leak an
        # entry) — id() reuse would hand stale offsets to new columns.
        self._column_offsets: "weakref.WeakKeyDictionary[BitWeavingColumn, int]" = (
            weakref.WeakKeyDictionary()
        )
        self._object_offsets: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._next_offset = 0
        self._bank_keys = [key for key, _ in self.engine.device.iter_banks()]
        # (rows, offset, banks_available) -> bank keys; see span_banks.
        self._spans: Dict[Tuple[int, int, int], List] = {}
        self.sanitize = sanitize
        #: Persistent per-bank lane timelines (only advanced in pipelined
        #: mode; a barrier run schedules on a fresh throwaway timeline).
        #: The interval log is the sanitizer's input, kept only for it.
        self.lanes = LaneSchedule(self.active_bank_keys(), keep_log=sanitize)
        # Incremental race detector over the persistent lanes: each batch
        # only replays its own placements, so certifying every dispatch
        # stays O(batch) rather than O(history).
        self._sanitizer = ScheduleSanitizer() if sanitize else None
        #: Label prefix for this executor's trace tracks; the cluster tier
        #: sets ``"shard<i>/"`` so identical bank keys on different shard
        #: devices stay distinct Perfetto tracks.
        self.obs_prefix = ""
        self.bind_observer(NULL_OBSERVER)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def bind_observer(self, obs: Observer) -> None:
        """Adopt an observability plane (tracer + metrics registry).

        Called by the frontends when they push their plane down the
        pipeline (or directly, to trace hand-built batches).
        Declares one trace track per bank lane plus the host lane and a
        batch-dispatch row, so an exported trace always carries the full
        lane topology — including lanes that never ran work.
        """
        self.obs = obs
        if obs.enabled:
            labels = [self.lane_label(key) for key in self.active_bank_keys()]
            labels.append(self.lane_label(HOST_LANE))
            labels.append(self.batches_track())
            obs.tracer.declare_tracks(labels)

    def lane_label(self, key) -> str:
        """Export-track label of one lane key (shard-prefixed)."""
        return f"{self.obs_prefix}{key}"

    def batches_track(self) -> str:
        """Export-track label of the batch-dispatch row."""
        return f"{self.obs_prefix}batches"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        requests: List[ServiceRequest],
        functional: bool = False,
        release_ns: Optional[float] = None,
    ) -> BatchResult:
        """Run a shaped batch and return per-request + batch results.

        Args:
            requests: Primitive requests, in submission order (results come
                back in the same order; only the *schedule* reorders).
            functional: Execute on the simulated banks (bit-exact row data
                in DRAM) instead of the analytical path.  Results are
                identical either way; the functional path additionally
                verifies them against the banks' contents, subject to
                ``verify_fraction`` sampling.
            release_ns: Dispatch instant of the batch on the caller's
                virtual clock; every scheduled start is at or after it,
                and result ``start_ns`` values are absolute against the
                same clock.  Defaults to 0 for a batch-synchronous run
                and to :meth:`ready_ns` — the earliest instant a bank
                lane is free — for a pipelined one, which models a
                caller dispatching each batch as soon as the executor
                can accept work.
        """
        for request in requests:
            if not isinstance(request, (BulkOpRequest, ScanRequest, CopyRequest)):
                raise TypeError(f"unknown request type {type(request).__name__}")
        batch_index = self._batches_run
        self._batches_run += 1
        context = _BatchContext()
        results: List[RequestResult] = []
        for index, request in enumerate(requests):
            run_functional = functional and self._verify_sampled(batch_index, index)
            if functional:
                if run_functional:
                    self.functional_executed += 1
                else:
                    self.sampled_out += 1
            if isinstance(request, BulkOpRequest):
                results.append(self._run_bulk_op(request, run_functional))
            elif isinstance(request, ScanRequest):
                results.append(self._run_scan(request, context, run_functional))
            else:
                results.append(self._run_copy(request))
        self._release_context(context)

        if release_ns is None:
            release_ns = self.ready_ns()
        release = float(release_ns)
        batch_span: Optional[Span] = None
        if self.obs.enabled:
            batch_span = self.obs.tracer.span(
                f"batch {batch_index}",
                category="executor",
                start_ns=release,
                track=(self.batches_track(),),
            )
        makespan, device_busy, overlap = self._schedule(results, release, batch_span)
        serial = combine_serial("batch_serial", (r.metrics for r in results))
        metrics = BatchMetrics(
            name="service_batch",
            requests=len(results),
            latency_ns=makespan,
            serial_latency_ns=serial.latency_ns,
            energy_j=serial.energy_j,
            bytes_produced=serial.bytes_produced,
            device_busy_ns=device_busy if self.pipeline else None,
            cross_batch_overlap_ns=overlap,
            notes=f"{context.fused_ops} fused ops" if context.fused_ops else "",
        )
        if batch_span is not None:
            batch_span.end(release + makespan).set(
                batch=batch_index,
                requests=len(results),
                fused_ops=context.fused_ops,
                device_busy_ns=device_busy,
                cross_batch_overlap_ns=overlap,
            )
            registry = self.obs.metrics
            registry.counter("executor.batches").inc()
            registry.counter("executor.requests").inc(float(len(results)))
            registry.counter("executor.fused_ops").inc(float(context.fused_ops))
            registry.histogram("executor.batch_makespan_ns").observe(makespan)
        return BatchResult(results=results, metrics=metrics)

    def _verify_sampled(self, batch_index: int, request_index: int) -> bool:
        """Deterministic seeded choice: execute this request on the banks?"""
        if self.verify_fraction >= 1.0:
            return True
        if self.verify_fraction <= 0.0:
            return False
        rng = np.random.default_rng([self.verify_seed, batch_index, request_index])
        return bool(rng.random() < self.verify_fraction)

    # ------------------------------------------------------------------
    # Latency model (used by the planner for LPT and deadline urgency)
    # ------------------------------------------------------------------
    def modeled_latency_ns(self, request: ServiceRequest) -> float:
        """Sequential-execution latency the request will be charged."""
        if isinstance(request, BulkOpRequest):
            return self.engine.op_cost(request.op, request.a.num_rows).latency_ns
        if isinstance(request, ScanRequest):
            return self._scan_metrics(request).latency_ns
        if isinstance(request, CopyRequest):
            if request.fill:
                return self.rowclone.bulk_fill(request.num_bytes).latency_ns
            return self.rowclone.bulk_copy(request.num_bytes, request.mode).latency_ns
        raise TypeError(f"unknown request type {type(request).__name__}")

    def _scan_metrics(self, request: ScanRequest) -> OperationMetrics:
        """Charged cost of a scan (identical to the plan-level cost model).

        Admission prices a scan and execution prices it again, so the
        roll-up is kept on the request — valid only for this executor and
        the ``banks_parallel`` it was priced under (a failover re-offer to
        another shard, or the bank ablation, re-prices) — and every call
        stamps a fresh :class:`OperationMetrics` from it (callers edit
        ``bytes_produced`` / ``notes`` in place).
        """
        banks_parallel = self.engine.config.banks_parallel
        price = request._scan_price
        if price is None or price[0]() is not self or price[1] != banks_parallel:
            expected, plan = request.scan_result()
            rows = max(1, -(-len(expected) // self.engine.device.geometry.row_size_bytes))
            per_op = [
                self.engine.op_cost(op, rows, (request.column.num_rows + 7) // 8)
                for op in plan.sequence
            ]
            serial = combine_serial(f"ambit_scan_{request.kind}", per_op)
            price = request._scan_price = (
                weakref.ref(self),
                banks_parallel,
                (
                    serial.name,
                    serial.latency_ns,
                    serial.energy_j,
                    serial.bytes_moved_on_channel,
                    len(expected),
                    f"{plan.total_operations} bulk ops over {plan.planes_touched} planes",
                ),
            )
        return OperationMetrics(*price[2])

    # ------------------------------------------------------------------
    # Per-request execution
    # ------------------------------------------------------------------
    def _run_bulk_op(self, request: BulkOpRequest, functional: bool) -> RequestResult:
        if functional and request.a.allocation is None:
            return self._run_bulk_op_staged(request)
        out, metrics = self.engine.execute(
            request.op, request.a, request.b, out=request.out, functional=functional
        )
        bank_ids = self._request_banks(request, request.a.num_rows)
        return RequestResult(request=request, metrics=metrics, value=out, bank_ids=bank_ids)

    def _run_bulk_op_staged(self, request: BulkOpRequest) -> RequestResult:
        """Functional execution of a bulk op over host-only operands.

        The operands are staged into pooled, placed vectors (one bank
        offset keeps them subarray-aligned), executed on the banks, and the
        result is copied back into the request's destination.  The charged
        cost comes from the request's own shape — exactly what the
        analytical path charges — not from the staged vectors, whose
        device-row-size chunking is simulation plumbing; a sampled
        (``verify_fraction``) batch therefore charges identically however
        each request is sampled.
        """
        offset = (request.bank_offset or 0) % self.banks_available()
        logical = request.a.num_bytes
        a = self._acquire(request.a.num_bits, offset)
        a.data[:] = 0
        a.data[:logical] = request.a.data[:logical]
        b = None
        if request.b is not None:
            b = self._acquire(request.b.num_bits, offset)
            b.data[:] = 0
            b.data[:logical] = request.b.data[:logical]
        out_staged = self._acquire(request.a.num_bits, offset)
        self.engine.execute(request.op, a, b, out=out_staged, functional=True)
        metrics = self.engine.op_cost(
            request.op, request.a.num_rows, request.a.num_bytes, mode="functional staged"
        )
        out = request.out if request.out is not None else request.a.copy_like()
        out.data[:] = 0
        out.data[:logical] = out_staged.data[:logical]
        self._release(a, offset)
        if b is not None:
            self._release(b, offset)
        self._release(out_staged, offset)
        bank_ids = self._request_banks(request, request.a.num_rows)
        return RequestResult(request=request, metrics=metrics, value=out, bank_ids=bank_ids)

    def _run_copy(self, request: CopyRequest) -> RequestResult:
        if request.fill:
            metrics = self.rowclone.bulk_fill(request.num_bytes)
        else:
            metrics = self.rowclone.bulk_copy(request.num_bytes, request.mode)
        rows = max(1, -(-request.num_bytes // self.engine.device.geometry.row_size_bytes))
        bank_ids = self.span_banks(rows, self._rotate_offset(rows))
        return RequestResult(request=request, metrics=metrics, value=None, bank_ids=bank_ids)

    def _run_scan(
        self, request: ScanRequest, context: _BatchContext, functional: bool
    ) -> RequestResult:
        column = request.column
        expected, _plan = request.scan_result()
        metrics = self._scan_metrics(request)

        if functional:
            produced = self._functional_scan(request, context)
            if not np.array_equal(produced, expected):
                raise AssertionError(
                    f"functional {request.kind} scan diverged from the analytical result"
                )
            value = produced
        else:
            value = expected
        rows = max(1, -(-len(expected) // self.engine.device.geometry.row_size_bytes))
        bank_ids = self.span_banks(rows, self._column_offset(column))
        return RequestResult(request=request, metrics=metrics, value=value, bank_ids=bank_ids)

    # ------------------------------------------------------------------
    # Functional BitWeaving execution (fused)
    # ------------------------------------------------------------------
    def _functional_scan(self, request: ScanRequest, context: _BatchContext) -> np.ndarray:
        column = request.column
        offset = self._column_offset(column)
        if request.kind == "equal":
            result = self._functional_equal(column, request.constants[0], context, offset)
        elif request.kind == "between":
            low, high = request.constants
            below_low = self._functional_compare(column, low, False, context, offset)
            at_most_high = self._functional_compare(column, high, True, context, offset)
            not_low = self._vec_op(context, "not", below_low, None, offset)
            self._release(below_low, offset)
            result = self._vec_op(context, "and", at_most_high, not_low, offset)
            self._release(at_most_high, offset)
            self._release(not_low, offset)
        else:
            include_equal = request.kind == "less_equal"
            result = self._functional_compare(
                column, request.constants[0], include_equal, context, offset
            )
        packed = result.data[: (column.num_rows + 7) // 8].copy()
        self._release(result, offset)
        return packed

    def _functional_compare(
        self,
        column: BitWeavingColumn,
        constant: int,
        include_equal: bool,
        context: _BatchContext,
        offset: int,
    ) -> BulkBitVector:
        lt = self._acquire(column.num_rows, offset).fill_value(0)
        eq = self._acquire(column.num_rows, offset).fill_value(1)
        for bit in reversed(range(column.num_bits)):
            if (constant >> bit) & 1:
                plane = self._plane_vector(column, bit, context, offset)
                not_plane = self._not_plane(column, bit, context, offset)
                partial = self._vec_op(context, "and", eq, not_plane, offset)
                self._done_with_not(not_plane, offset)
                lt_next = self._vec_op(context, "or", lt, partial, offset)
                self._release(lt, offset)
                self._release(partial, offset)
                lt = lt_next
                eq_next = self._vec_op(context, "and", eq, plane, offset)
                self._release(eq, offset)
                eq = eq_next
            else:
                not_plane = self._not_plane(column, bit, context, offset)
                eq_next = self._vec_op(context, "and", eq, not_plane, offset)
                self._done_with_not(not_plane, offset)
                self._release(eq, offset)
                eq = eq_next
        if include_equal:
            result = self._vec_op(context, "or", lt, eq, offset)
            self._release(lt, offset)
            self._release(eq, offset)
            return result
        self._release(eq, offset)
        return lt

    def _functional_equal(
        self, column: BitWeavingColumn, constant: int, context: _BatchContext, offset: int
    ) -> BulkBitVector:
        eq = self._acquire(column.num_rows, offset).fill_value(1)
        for bit in reversed(range(column.num_bits)):
            complemented = not (constant >> bit) & 1
            if complemented:
                operand = self._not_plane(column, bit, context, offset)
            else:
                operand = self._plane_vector(column, bit, context, offset)
            eq_next = self._vec_op(context, "and", eq, operand, offset)
            if complemented:
                self._done_with_not(operand, offset)
            self._release(eq, offset)
            eq = eq_next
        return eq

    def _vec_op(
        self,
        context: _BatchContext,
        op: str,
        a: BulkBitVector,
        b: Optional[BulkBitVector],
        offset: int,
    ) -> BulkBitVector:
        out = self._acquire(a.num_bits, offset)
        _, _metrics = self.engine.execute(op, a, b, out=out, functional=True)
        return out

    def _plane_vector(
        self, column: BitWeavingColumn, bit: int, context: _BatchContext, offset: int
    ) -> BulkBitVector:
        key = (id(column), bit, offset)
        vector = context.plane_vectors.get(key)
        if vector is None:
            vector = self._acquire(column.num_rows, offset)
            plane = column.planes[bit]
            vector.data[:] = 0
            vector.data[: plane.size] = plane
            context.plane_vectors[key] = vector
        return vector

    def _not_plane(
        self, column: BitWeavingColumn, bit: int, context: _BatchContext, offset: int
    ) -> BulkBitVector:
        """The complement of a bit plane, materialized at most once per batch.

        The first use executes a real NOT on the engine; later uses reuse
        the cached complement row data (a fused NOT).  The *caller* charges
        every NOT at full cost through the scan plan regardless, so fusion
        never changes attributed latency or energy.
        """
        key = (id(column), bit, offset)
        vector = context.not_vectors.get(key) if self.fuse else None
        if vector is None:
            plane = self._plane_vector(column, bit, context, offset)
            vector = self._vec_op(context, "not", plane, None, offset)
            if self.fuse:
                context.not_vectors[key] = vector
        else:
            context.fused_ops += 1
        return vector

    def _done_with_not(self, vector: BulkBitVector, offset: int) -> None:
        """Release an unfused complement right after its single use.

        Fused complements stay cached in the batch context for reuse and
        are released when the batch completes.
        """
        if not self.fuse:
            self._release(vector, offset)

    def _release_context(self, context: _BatchContext) -> None:
        for key, vector in context.plane_vectors.items():
            self.pool.release(vector, bank_offset=key[2])
        for key, vector in context.not_vectors.items():
            self.pool.release(vector, bank_offset=key[2])
        context.plane_vectors.clear()
        context.not_vectors.clear()

    def _acquire(self, num_bits: int, offset: int) -> BulkBitVector:
        return self.pool.acquire(num_bits, bank_offset=offset)

    def _release(self, vector: BulkBitVector, offset: int) -> None:
        self.pool.release(vector, bank_offset=offset)

    # ------------------------------------------------------------------
    # Bank assignment and makespan scheduling
    # ------------------------------------------------------------------
    def _column_offset(self, column: BitWeavingColumn) -> int:
        """Stable bank offset per column: a column's planes live in fixed
        banks, so every scan of it contends for the same banks."""
        offset = self._column_offsets.get(column)
        if offset is None:
            offset = self._next_offset
            self._next_offset = (self._next_offset + 1) % self.banks_available()
            self._column_offsets[column] = offset
        return offset

    def stable_offset(self, obj) -> int:
        """Stable bank offset for any weak-referenceable owner object.

        The planner pins every lowered step of one high-level request (e.g.
        a bitmap index's conjunctions) to its owner's offset, so the
        data-dependent steps serialize on one set of modeled banks — the
        same contention rule columns follow.
        """
        offset = self._object_offsets.get(obj)
        if offset is None:
            offset = self._next_offset
            self._next_offset = (self._next_offset + 1) % self.banks_available()
            self._object_offsets[obj] = offset
        return offset

    def _rotate_offset(self, rows: int) -> int:
        offset = self._next_offset
        self._next_offset = (self._next_offset + max(1, rows)) % self.banks_available()
        return offset

    def banks_available(self) -> int:
        return min(self.engine.config.banks_parallel, self.engine.allocator.banks_total)

    def active_bank_keys(self) -> List:
        """Keys of the banks the executor schedules onto, in rotation order."""
        return list(self._bank_keys[: self.banks_available()])

    def span_banks(self, rows: int, offset: int) -> List:
        """Bank keys a ``rows``-chunk request occupies from ``offset``
        (any non-negative offset; it wraps around the active banks).

        Uses the same id space as real placements (the device's bank keys)
        so modeled and placed requests contend for the same banks.  A
        stream asks for the same few spans per primitive, so each is
        derived once per ``(rows, offset, banks_available)`` — keyed on
        the live bank count, which the bank ablation sweeps; rows and
        offset are reduced to the active banks first, so the memo is
        bounded by the device — and every call hands out its own list.
        """
        available = self.banks_available()
        key = (min(rows, available), offset % available, available)
        span = self._spans.get(key)
        if span is None:
            width, first, _ = key
            span = self._spans[key] = [
                self._bank_keys[(first + i) % available] for i in range(width)
            ]
        return span[:]

    def modeled_banks(self, request: ServiceRequest) -> List:
        """Bank keys the request is modeled to occupy (empty = unpinned).

        Drives the frontend's per-bank backlog admission: requests with a
        stable bank affinity — scans of a column, bulk ops over placed
        vectors or with a ``bank_offset`` hint — charge their latency to
        exactly the banks execution will contend for.  A host-only bulk
        op (no placement, no bank hint) never touches a bank: it is
        charged to the dedicated host lane, the same lane the schedule
        will serialize it on.  An empty list means the request has no
        affinity (it will be rotated onto whichever banks come next), so
        the frontend spreads its backlog evenly.
        """
        if isinstance(request, BulkOpRequest):
            vector = request.a
            if vector.allocation is not None and vector.allocation.placements:
                return sorted({p.bank_key for p in vector.allocation.placements})
            if request.bank_offset is not None:
                return self.span_banks(vector.num_rows, request.bank_offset)
            return [HOST_LANE]
        if isinstance(request, ScanRequest):
            expected, _ = request.scan_result()
            rows = max(1, -(-len(expected) // self.engine.device.geometry.row_size_bytes))
            return self.span_banks(rows, self._column_offset(request.column))
        if isinstance(request, CopyRequest):
            return []
        raise TypeError(f"unknown request type {type(request).__name__}")

    def _request_banks(self, request: BulkOpRequest, rows: int) -> List:
        vector = request.a
        if vector.allocation is not None and vector.allocation.placements:
            return sorted({p.bank_key for p in vector.allocation.placements})
        if request.bank_offset is not None:
            return self.span_banks(rows, request.bank_offset)
        # Host-only operands with no bank hint never touch DRAM banks:
        # the op runs (and serializes) on the dedicated host lane instead
        # of being rotated onto — and falsely contending with — real banks.
        return []

    def _schedule(
        self,
        results: List[RequestResult],
        release_ns: float,
        batch_span: Optional[Span] = None,
    ) -> Tuple[float, float, float]:
        """Greedy per-bank lane schedule of one dispatched batch.

        Each request occupies its banks for its full sequential latency; a
        request starts once it is released and all of its banks are free.
        Requests on disjoint banks therefore overlap completely, while
        requests contending for a bank serialize — exactly the paper's
        bank-level parallelism and nothing more.  With ``lpt`` (the
        default) requests are placed longest first, the classic LPT
        heuristic, which tightens the makespan over submission order
        without touching any result.  Requests that occupy no bank —
        host-only bulk operations — go onto the dedicated host lane
        rather than falsely contending with real bank-0 traffic.

        In pipelined mode the batch lands on the executor's *persistent*
        lane timelines, so requests start behind whatever horizons earlier
        batches left on their banks; a barrier batch schedules on a fresh
        throwaway timeline instead.  Returns ``(makespan, device_busy,
        cross_batch_overlap)``: the completion horizon relative to the
        dispatch instant, the device-busy time the batch added (union of
        its intervals), and the work that ran before the previous batch's
        completion horizon.

        When any request carries ``after`` dependencies (the batch plan
        optimizer's cross-lane DAGs), the batch is placed in submission
        order instead of LPT and each request's release is lifted to its
        producers' finish times, so a consumer on an idle lane cannot be
        scheduled before the sub-chain output it reads exists.  Producers
        always precede consumers in submission order, so one forward pass
        suffices; the lifted release is what the placement logs, keeping
        the schedule race detector's replay exact.
        """
        has_deps = any(getattr(r.request, "after", ()) for r in results)
        if self.lpt and not has_deps:
            order = sorted(results, key=lambda r: -r.metrics.latency_ns)
        else:
            order = results
        lanes = self.lanes
        if not self.pipeline:
            lanes = LaneSchedule(self.active_bank_keys(), keep_log=self.sanitize)
        lanes.open_batch()
        prev_horizon = lanes.horizon_ns()
        busy_before = lanes.busy_union_ns
        finish_max = release_ns
        overlap = 0.0
        finishes: List[float] = []
        # Looked up per batch, not cached at construction: a tracer shims
        # `lanes.place` as an instance attribute after the executor exists.
        place = lanes.place
        for result in order:
            release = release_ns
            if has_deps:
                for dep in getattr(result.request, "after", ()):
                    if not 0 <= dep < len(finishes):
                        raise ValueError(
                            f"after={dep} must reference an earlier primitive of "
                            f"the same batch (placed so far: {len(finishes)})"
                        )
                    release = max(release, finishes[dep])
            banks = result.bank_ids or [HOST_LANE]
            start, finish = place(banks, result.metrics.latency_ns, release)
            result.start_ns = start
            if batch_span is not None:
                # One exec span per placement, on every lane it occupies —
                # the export replays these intervals to reproduce the
                # lanes' busy union exactly.
                batch_span.child(
                    result.metrics.name,
                    category="exec",
                    start_ns=start,
                    end_ns=finish,
                    track=tuple(self.lane_label(key) for key in banks),
                ).set(
                    latency_ns=result.metrics.latency_ns,
                    release_ns=release,
                    banks=len(banks),
                )
            finishes.append(finish)
            overlap += max(0.0, min(finish, prev_horizon) - start)
            finish_max = max(finish_max, finish)
        if self.pipeline:
            lanes.cross_batch_overlap_ns += overlap
            lanes.batches += 1
        if self._sanitizer is not None:
            if self.pipeline:
                # Incremental: audit only this batch's placements, then
                # reconcile the persistent schedule's full accounting.
                self._sanitizer.check(lanes)
            else:
                # The throwaway barrier schedule is complete: audit it whole.
                check_schedule(lanes)
        return finish_max - release_ns, lanes.busy_union_ns - busy_before, overlap

    # ------------------------------------------------------------------
    # Lane timeline accessors (pipelined dispatch surface)
    # ------------------------------------------------------------------
    def horizon_ns(self) -> float:
        """Completion horizon of the persistent lanes (0 without pipelining)."""
        return self.lanes.horizon_ns() if self.pipeline else 0.0

    def ready_ns(self) -> float:
        """Earliest instant a bank lane is free to accept a new dispatch.

        The pipelined frontend gates batch dispatch on this: a batch may
        close as soon as *some* bank has drained, instead of waiting for
        the previous batch's global makespan.  Always 0 without
        pipelining (the barrier executor has no carried-over state).
        """
        return self.lanes.ready_ns() if self.pipeline else 0.0

    def lane_horizon_ns(self, key) -> float:
        """Busy-until horizon of one lane (0 without pipelining)."""
        return self.lanes.lane_horizon_ns(key) if self.pipeline else 0.0

    def lane_metrics(self, name: str = "lanes"):
        """Per-lane utilization snapshot (:class:`LaneMetrics`).

        Raises:
            ValueError: For a ``pipeline=False`` executor — the barrier
                schedule is rebuilt per batch and never advances the
                persistent lanes, so a snapshot would read as an idle,
                never-used device rather than the truth.
        """
        if not self.pipeline:
            raise ValueError(
                "lane metrics require a pipelined executor; a barrier "
                "(pipeline=False) executor does not advance the persistent lanes"
            )
        return self.lanes.metrics(name)
