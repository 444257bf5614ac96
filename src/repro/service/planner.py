"""The batch planner: shapes batches and lowers high-level work.

:class:`BatchPlanner` is the second stage of the service pipeline
(frontend → planner → executor).  It owns two decisions:

* **When a batch closes.**  :meth:`BatchPlanner.should_close` applies the
  :class:`~repro.service.config.BatchPolicy`: close when enough requests
  are queued (size), when the oldest admitted request has waited long
  enough (time window), or when a queued deadline would be missed unless
  service starts now (deadline urgency).
* **What the executor sees.**  :meth:`BatchPlanner.lower_batch` turns the
  queued envelopes into primitive requests the executor understands.
  Primitives pass through unchanged; high-level requests are *lowered* —
  a :class:`~repro.service.requests.BitmapConjunctionRequest` becomes the
  OR/AND chain of :class:`~repro.service.requests.BulkOpRequest` steps
  its :class:`~repro.api.plans.CompiledChain` binds, pinned to one bank
  offset so the data-dependent chain serializes on its banks.  The
  chain's *shape* is compiled and priced once per template and interned
  on the planner; only the bind runs per request.

The executor orders the lowered batch longest-first (LPT) before bank
assignment; the planner deliberately leaves intra-batch ordering to it.
The knobs the planner reads (``policy``, ``optimizer``, ``cache``,
``maintenance``) are declared in :mod:`repro.service.config`.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.analysis.metrics import OperationMetrics, PlanCounts, combine_serial
from repro.service.config import PipelineConfig
from repro.service.executor import BatchExecutor
from repro.service.requests import (
    BitmapConjunctionRequest,
    BulkOpRequest,
    CopyRequest,
    FrontendRequest,
    QueuedRequest,
    RequestResult,
    ScanRequest,
    ServiceRequest,
)
from repro.storage.maintenance import WriteOutcome
from repro.storage.requests import is_write_request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.plans import CompiledChain, SharedSources
    from repro.optimizer.canonical import ConjunctionShape
    from repro.optimizer.passes import BatchOptimizer

#: Compiled conjunction shapes a planner keeps interned (LRU).  A constant,
#: not a knob: an entry is a few hundred bytes of structure and a miss only
#: re-compiles, so no workload needs a different value.
CHAIN_INTERN_CAPACITY = 512

#: ``(latency_ns, energy_j, bytes_moved_on_channel, bytes_produced)``.
SerialCost = Tuple[float, float, int, int]


@dataclass(slots=True)
class _PricedChain:
    """One interned conjunction shape plus what the engine charges for it.

    The prices depend only on the shape and on the engine's cost key
    (``config.banks_parallel``, what ``op_cost`` itself is keyed on), so
    they are computed once per shape and re-computed when the key moves.

    Attributes:
        chain: The interned shape.
        cost_key: ``banks_parallel`` the prices were computed under.
        latency_ns: Admission latency — the chain's sequential-execution
            time.
        serial: Serial roll-up of the chain's steps (priced on first
            lowering).
        canonical: What the batch plan optimizer derives from the shape
            alone (canonical order, dependency columns, plan total; set
            on first optimized lowering).  Structure only, like the chain.
    """

    chain: "CompiledChain"
    cost_key: Optional[int] = None
    latency_ns: float = 0.0
    serial: Optional[SerialCost] = None
    canonical: Optional["ConjunctionShape"] = None


@dataclass
class LoweredGroup(PlanCounts):
    """Bookkeeping of one queued request lowered into primitive steps.

    The inherited :class:`~repro.analysis.metrics.PlanCounts` are what the
    optimizer and the cache did for this request.

    Attributes:
        queued: The envelope the group came from.
        indices: Positions of the group's primitives in the lowered batch
            (empty for a zero-operation request, e.g. a single-bitmap
            conjunction).
        finalize: Maps the group's :class:`RequestResult` list to the
            envelope's result value.
        zero_cost_metrics: Metrics to attribute when ``indices`` is empty.
        dep_indices: Positions of *other* requests' primitives this group
            consumes (CSE'd sub-chains); they bound the group's finish
            time but are never charged to it.
        host_merge_ns: Host-side merge-tree cost added to the group's
            finish time (split-mode cross-predicate join).
        host_join_ops: Host AND ops the split-mode join performs.
        write_outcome: The maintenance outcome of a lowered write request
            (strategy attribution, charged planes; None for reads).
        rebuild_columns: Lazily-maintained columns this read repaired
            (their rebuild charge rides in ``indices``).
        chain_cost: Serial roll-up of the group's primitives, priced once
            per conjunction shape — set only while ``indices`` is exactly
            one compiled chain's steps (None: sum the results).
    """

    queued: QueuedRequest
    indices: List[int]
    finalize: Callable[[List[RequestResult]], Any]
    zero_cost_metrics: Optional[OperationMetrics] = None
    dep_indices: List[int] = field(default_factory=list)
    host_merge_ns: float = 0.0
    host_join_ops: int = 0
    write_outcome: Optional[WriteOutcome] = None
    rebuild_columns: Tuple[str, ...] = ()
    chain_cost: Optional[SerialCost] = None


class BatchPlanner:
    """Shapes batches by policy and lowers high-level requests.

    Args:
        executor: The executor the plans target (its latency model drives
            LPT ordering, deadline urgency, and admission backlog).
        config: The pipeline's :class:`~repro.service.config.PipelineConfig`
            (``policy``, ``optimizer``, ``cache``, ``maintenance`` are the
            knobs read here); the cache and the maintenance policy are
            materialized per planner.
    """

    def __init__(self, executor: BatchExecutor, config: PipelineConfig) -> None:
        self.executor = executor
        self.policy = config.policy
        self.maintenance = config.new_maintenance()
        self.result_cache = config.new_cache()
        self.optimizer: Optional["BatchOptimizer"] = None
        if config.optimizer is not None:
            from repro.optimizer.passes import BatchOptimizer  # local: avoid cycle

            self.optimizer = BatchOptimizer(config.optimizer, result_cache=self.result_cache)
        # Interned conjunction shapes, least recently used first, keyed
        # (predicates, num_rows, row_size_bytes).  Per planner, like the
        # engine's op-cost table: no warm state crosses sessions.
        self._chains: "OrderedDict[Tuple[Any, int, int], _PricedChain]" = OrderedDict()

    # ------------------------------------------------------------------
    # Latency model (includes high-level requests)
    # ------------------------------------------------------------------
    def modeled_latency_ns(self, request: FrontendRequest) -> float:
        """Sequential-execution latency of any frontend request."""
        if isinstance(request, BitmapConjunctionRequest):
            return self._conjunction_latency_ns(request)
        if is_write_request(request):
            return self.maintenance.modeled_write_ns(request, self.executor)
        return self.executor.modeled_latency_ns(request)

    def _priced_chain(self, request: BitmapConjunctionRequest) -> _PricedChain:
        """The request's interned shape (compiled on first sight; requests
        with equal predicates over equal-sized sources share one), priced
        for the engine as it is now."""
        engine = self.executor.engine
        key = (
            request.predicates,
            request.index.num_rows,
            engine.device.geometry.row_size_bytes,
        )
        chains = self._chains
        priced = chains.get(key)
        if priced is None:
            from repro.api.plans import CompiledChain  # local: avoid cycle

            priced = chains[key] = _PricedChain(CompiledChain.compile(*key))
            if len(chains) > CHAIN_INTERN_CAPACITY:
                chains.popitem(last=False)
        else:
            chains.move_to_end(key)
        if priced.cost_key != engine.config.banks_parallel:
            chain = priced.chain
            ops = sum(len(values) - 1 for _, values in chain.predicates)
            ands = len(chain.predicates) - 1
            priced.cost_key = engine.config.banks_parallel
            priced.latency_ns = (
                ops * engine.op_cost("or", chain.rows).latency_ns
                + ands * engine.op_cost("and", chain.rows).latency_ns
            )
            priced.serial = None
        return priced

    def _conjunction_latency_ns(self, request: BitmapConjunctionRequest) -> float:
        return self._priced_chain(request).latency_ns

    def _serial_cost(self, priced: _PricedChain) -> SerialCost:
        """Serial roll-up of a (freshly looked-up) chain's steps.

        Every execution path charges a step ``op_cost(op, rows, bytes)``,
        so the roll-up is a property of the shape: the same sum over the
        same sequence :meth:`group_metrics` would take over the executed
        results, taken once per shape and cost key.
        """
        if priced.serial is None:
            chain = priced.chain
            engine = self.executor.engine
            serial = combine_serial(
                "bitmap_conjunction",
                [engine.op_cost(op, chain.rows, chain.packed_bytes) for op, _a, _b in chain.steps],
            )
            priced.serial = (
                serial.latency_ns,
                serial.energy_j,
                serial.bytes_moved_on_channel,
                serial.bytes_produced,
            )
        return priced.serial

    def modeled_banks(self, request: FrontendRequest) -> List:
        """Bank keys any frontend request is modeled to occupy.

        A lowered conjunction's whole chain is pinned to its index's stable
        offset, so the chain charges the same banks it will serialize on.
        Under the optimizer's sub-chain splitting the chain fans out over
        offsets chosen at lowering time, so conjunctions are unpinned
        (empty list) — the frontend falls back to global backlog.
        """
        if isinstance(request, BitmapConjunctionRequest):
            if self.optimizer is not None and self.optimizer.config.split_subchains:
                return []
            return self.executor.span_banks(
                self._priced_chain(request).chain.rows,
                self.executor.stable_offset(request.index),
            )
        if is_write_request(request):
            return self.maintenance.modeled_write_banks(request, self.executor)
        return self.executor.modeled_banks(request)

    # ------------------------------------------------------------------
    # Batch closing
    # ------------------------------------------------------------------
    def should_close(self, queued: List[QueuedRequest], now_ns: float) -> bool:
        """Does the policy call for closing a batch right now?"""
        if not queued:
            return False
        if len(queued) >= self.policy.max_batch:
            return True
        if self.policy.window_ns is not None:
            oldest = min(q.arrival_ns for q in queued)
            if now_ns - oldest >= self.policy.window_ns:
                return True
        if self.policy.urgency_slack_ns is not None:
            for q in queued:
                if q.deadline_ns is None:
                    continue
                latest_start = q.deadline_ns - q.modeled_ns
                if latest_start <= now_ns + self.policy.urgency_slack_ns:
                    return True
        if self.urgent_close(queued, now_ns):
            return True
        return False

    def urgent_close(self, queued: List[QueuedRequest], now_ns: float) -> bool:
        """Is some queued deadline at risk *given the lanes' horizons*?

        Prices the latest viable service start against where the
        request's banks are actually busy until, not against "now": true
        exactly when a deadline is still savable but will be missed
        unless the batch closes and dispatches immediately (the banks'
        pressure has entered the ``urgency_slack_ns`` window below the
        latest viable start).  The frontend treats such a close as
        *urgent* — it bypasses the pipelined dispatch gate so the
        endangered request reaches its lane without queueing behind a
        whole extra batch.

        A request's pressure is the earliest instant the lanes could
        start serving it: the latest busy horizon over its modeled banks
        (its service cannot start before its pinned banks drain), or the
        executor's global ready instant when it is unpinned — one value
        for the whole queue, read once.  Never before "now"; always "now"
        for a barrier executor, whose lanes carry no state across batches.
        """
        if not self.policy.horizon_urgency or self.policy.urgency_slack_ns is None:
            return False
        slack = self.policy.urgency_slack_ns
        executor = self.executor
        ready_ns: Optional[float] = None
        for q in queued:
            if q.deadline_ns is None:
                continue
            latest_start = q.deadline_ns - q.modeled_ns
            banks = q.modeled_banks
            if banks:
                pressure = max(executor.lane_horizon_ns(key) for key in banks)
            else:
                if ready_ns is None:
                    ready_ns = executor.ready_ns()
                pressure = ready_ns
            if latest_start - slack <= max(now_ns, pressure) <= latest_start:
                return True
        return False

    def next_close_ns(self, queued: List[QueuedRequest], now_ns: float) -> float:
        """Earliest future instant the policy will close a batch (inf if
        only size or stream end can close it).  The frontend's virtual
        clock wakes here when no arrival comes sooner."""
        next_close = math.inf
        if not queued:
            return next_close
        if self.policy.window_ns is not None:
            oldest = min(q.arrival_ns for q in queued)
            next_close = min(next_close, oldest + self.policy.window_ns)
        if self.policy.urgency_slack_ns is not None:
            for q in queued:
                if q.deadline_ns is None:
                    continue
                next_close = min(
                    next_close,
                    q.deadline_ns - q.modeled_ns - self.policy.urgency_slack_ns,
                )
        return next_close

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def lower_batch(
        self, batch: List[QueuedRequest]
    ) -> Tuple[List[ServiceRequest], List[LoweredGroup]]:
        """Lower a closed batch into primitives plus result bookkeeping.

        With the optimizer enabled, every conjunction of the batch lowers
        into one shared step DAG (cross-request CSE, sub-chain
        splitting); under ``sanitize=True`` the DAG is certified by
        :func:`repro.verify.plan_lint.lint_optimized_batch` before the
        executor sees a single step.
        """
        primitives: List[ServiceRequest] = []
        groups: List[LoweredGroup] = []
        # Source operands bound so far, shared by the batch's chains and
        # dropped with this frame: no vector may outlive its batch.
        shared: "SharedSources" = {}
        if self.optimizer is not None:
            self.optimizer.open_batch(self.executor)
        for queued in batch:
            request = queued.request
            if isinstance(request, BitmapConjunctionRequest):
                # Hotness + lazy-repair bookkeeping must precede the
                # lowering: pulling the bitmaps cleans dirty columns as a
                # side effect, so the rebuild charge is decided first.
                columns = [column for column, _values in request.predicates]
                self.maintenance.note_read(columns)
                pending = self.maintenance.pending_rebuilds(request.index, columns)
                if self.optimizer is not None:
                    priced = self._priced_chain(request)
                    if priced.canonical is None:
                        priced.canonical = self.optimizer.shape(request)
                    group = self.optimizer.lower_conjunction(
                        queued, primitives, priced.canonical
                    )
                else:
                    group = self._lower_conjunction(queued, primitives, shared)
                if pending:
                    self._charge_rebuilds(group, pending, primitives)
                groups.append(group)
            elif is_write_request(request):
                groups.append(self._lower_write(queued, primitives))
            elif isinstance(request, (BulkOpRequest, ScanRequest, CopyRequest)):
                primitives.append(request)
                groups.append(
                    LoweredGroup(
                        queued=queued,
                        indices=[len(primitives) - 1],
                        finalize=lambda results: results[0].value,
                    )
                )
            else:
                raise TypeError(f"unknown request type {type(request).__name__}")
        if self.optimizer is not None and self.executor.sanitize:
            self.optimizer.lint_batch(
                row_size_bytes=self.executor.engine.device.geometry.row_size_bytes
            )
        return primitives, groups

    def commit_cache_fills(self) -> int:
        """Park the executed batch's finished bitmaps in the result cache
        (no-op without one).  The frontend calls this *after* the
        executor ran the batch — the step vectors hold result data only
        post-execution."""
        if self.optimizer is None:
            return 0
        return self.optimizer.commit_fills()

    def _charge_rebuilds(
        self, group: LoweredGroup, columns: List[str], primitives: List[ServiceRequest]
    ) -> None:
        """Charge lazily-deferred column rebuilds into the reading group.

        The read that repaired a dirty column pays for the repair: one
        bulk op per rebuilt plane plus the column-scan traffic, appended
        to the group's own primitives (they execute on the index's lanes
        and extend the group's finish time).  The optimizer's batch lint
        never sees these — they are charge accounting, not DAG steps.
        """
        for column in columns:
            for primitive in self.maintenance.rebuild_charge(
                group.queued.request.index, column, self.executor
            ):
                primitives.append(primitive)
                group.indices.append(len(primitives) - 1)
        group.rebuild_columns = tuple(columns)
        group.chain_cost = None  # no longer just the chain: sum the results

    def _lower_write(
        self, queued: QueuedRequest, primitives: List[ServiceRequest]
    ) -> LoweredGroup:
        """Lower one write: apply the mutation *now* (lowering runs in
        queue order, so reads lowered later in the batch see the post-
        write planes — sequential consistency within a batch), invalidate
        the result cache, and emit the maintenance charge."""
        request = queued.request
        outcome = self.maintenance.lower_write(request, self.executor)
        invalidated = 0
        if self.result_cache is not None:
            if outcome.invalidate_all:
                invalidated = self.result_cache.invalidate_index(request.index)
            else:
                invalidated = self.result_cache.invalidate_columns(
                    request.index, outcome.invalidate_columns
                )
        if self.optimizer is not None:
            # The batch-local CSE table shares result vectors too: drop
            # the entries this write's footprint covers so reads lowered
            # later in the batch re-emit from the mutated planes.
            self.optimizer.invalidate_writes(
                request.index,
                columns=outcome.invalidate_columns,
                invalidate_all=outcome.invalidate_all,
            )
        if self.executor.sanitize:
            from repro.verify.plan_lint import (  # local: avoid cycle
                lint_cache_consistency,
                lint_write_plan,
            )

            # Certify the maintenance charge against the declared outcome,
            # then (cache on) that no stale entry survived the invalidation.
            lint_write_plan(outcome)
            if self.result_cache is not None:
                lint_cache_consistency(self.result_cache, request.index)
        indices: List[int] = []
        for primitive in outcome.primitives:
            primitives.append(primitive)
            indices.append(len(primitives) - 1)
        rows_affected = outcome.rows_affected

        def finalize(results: List[RequestResult]) -> Any:
            return rows_affected

        zero_cost = None
        if not indices:
            # Pure-lazy write of zero rows (or all maintenance deferred
            # and no traffic): nothing runs now, nothing is charged now.
            zero_cost = OperationMetrics(
                name=f"storage_{request.kind}",
                latency_ns=0.0,
                energy_j=0.0,
                bytes_produced=0,
                notes="deferred maintenance",
            )
        return LoweredGroup(
            queued=queued,
            indices=indices,
            finalize=finalize,
            zero_cost_metrics=zero_cost,
            cache_invalidations=invalidated,
            write_outcome=outcome,
        )

    def _lower_conjunction(
        self, queued: QueuedRequest, primitives: List[ServiceRequest], shared: "SharedSources"
    ) -> LoweredGroup:
        request = queued.request
        index = request.index
        # One lowering path for every tier: the shared plan IR binds the
        # interned shape identically whether `index` is a full BitmapIndex
        # (service tier) or a shard view (each cluster shard).  The shape
        # was compiled at the device's row size — the executor charges
        # each step from the vectors' row-chunk count, so any other size
        # would diverge from the plan-level model (and the functional path).
        priced = self._priced_chain(request)
        chain = priced.chain
        steps, result_vector = chain.bind(index, shared)
        if self.executor.sanitize:
            from repro.verify.plan_lint import lint_lowered_conjunction  # local: avoid cycle

            # Certify the bound chain statically before any step
            # executes: topology, widths, and cost-model agreement.
            lint_lowered_conjunction(
                request.predicates,
                steps,
                result_vector,
                chain.plan(),
                num_rows=index.num_rows,
                row_size_bytes=chain.row_size_bytes,
            )
        offset = self.executor.stable_offset(index)
        first = len(primitives)
        for op, a, b, out in steps:
            primitives.append(BulkOpRequest(op, a, b, out, offset))
        indices = list(range(first, len(primitives)))
        packed_bytes = chain.packed_bytes

        def finalize(results: List[RequestResult]) -> Any:
            # Read-only like every conjunction value (the optimizer's may
            # be shared between responses; one contract for both paths).
            value = result_vector.data[:packed_bytes].copy()
            value.setflags(write=False)
            return value

        zero_cost = None
        if not indices:
            # Single-value single-predicate conjunction: the answer is the
            # bitmap itself; no bulk operations run and none are charged,
            # exactly as the plan-level cost model prices it.
            zero_cost = OperationMetrics(
                name="bitmap_conjunction",
                latency_ns=0.0,
                energy_j=0.0,
                bytes_produced=packed_bytes,
                notes=f"{len(chain.steps)} bulk ops (identity)",
            )
        return LoweredGroup(
            queued=queued,
            indices=indices,
            finalize=finalize,
            zero_cost_metrics=zero_cost,
            # A single step's metrics are its result's own (group_metrics).
            chain_cost=self._serial_cost(priced) if len(indices) > 1 else None,
        )

    @staticmethod
    def group_metrics(group: LoweredGroup, results: List[RequestResult]) -> OperationMetrics:
        """Sequential-execution cost attributed to one lowered group."""
        if not group.indices:
            return group.zero_cost_metrics
        if len(results) == 1:
            return results[0].metrics
        if group.chain_cost is not None:
            latency_ns, energy_j, moved, produced = group.chain_cost
            return OperationMetrics(
                "bitmap_conjunction", latency_ns, energy_j, moved, produced,
                f"{len(results)} lowered bulk ops",
            )
        if group.write_outcome is not None:
            name = f"storage_{group.write_outcome.request.kind}"
        else:
            name = "bitmap_conjunction"
        combined = combine_serial(name, (r.metrics for r in results))
        combined.notes = f"{len(results)} lowered bulk ops"
        return combined
