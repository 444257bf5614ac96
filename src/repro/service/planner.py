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
  a :class:`~repro.service.requests.BitmapConjunctionRequest` becomes one
  :class:`~repro.service.requests.BoundChain` of the OR/AND steps its
  :class:`~repro.api.plans.CompiledChain` binds, placed as one run on one
  bank offset so the data-dependent chain serializes on its banks.  The
  chain's *shape* is compiled and priced once per template and interned
  on the planner; only the bind runs per request, and none while the
  shape holds an answer still current (a priced-only chain).

The executor places the lowered batch in submission order, so the order
the planner lowers a batch in is the order each bank serves it.
The knobs the planner reads (``policy``, ``optimize``, ``cache``,
``maintenance``) are declared in :mod:`repro.service.config`.
"""

from __future__ import annotations

import math
import weakref
from collections import OrderedDict
from dataclasses import astuple, dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import OperationMetrics, PlanCounts, combine_serial
from repro.service.config import PipelineConfig
from repro.service.executor import BatchExecutor
from repro.service.requests import (
    BitmapConjunctionRequest,
    BoundChain,
    BulkOpRequest,
    CopyRequest,
    FrontendRequest,
    Primitive,
    QueuedRequest,
    RequestResult,
    ScanRequest,
)
from repro.storage.maintenance import WriteOutcome
from repro.storage.requests import is_write_request, rows_in_range
from repro.verify.errors import SharedAnswerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.plans import CompiledChain, SharedSources
    from repro.optimizer.canonical import ConjunctionShape
    from repro.optimizer.passes import BatchOptimizer

#: Compiled conjunction shapes a planner keeps interned (LRU).  A constant,
#: not a knob: an entry is a few hundred bytes of structure and a miss only
#: re-compiles, so no workload needs a different value.
CHAIN_INTERN_CAPACITY = 512


@dataclass(slots=True)
class AnswerSlot:
    """One held answer: "this question over this index at this generation".

    The one mechanism both users share: each interned conjunction shape
    of a planner (:class:`_PricedChain`) and each scattered shape of a
    cluster coordinator's gather table hold their last answer here.

    Attributes:
        answer: ``(weakref(index), generation, weakref(value))`` of the
            last answer (:meth:`stamp`); it pins neither.
    """

    answer: Optional[Tuple["weakref.ref[Any]", int, "weakref.ref[np.ndarray]"]] = field(
        default=None, kw_only=True
    )

    def current(self, index: Any, columns: Iterable[str]) -> Optional[np.ndarray]:
        """The last answer if it still lives over ``index`` at ``columns``'
        generation now, else None.  A dirty lazily-maintained column has
        bumped its generation already, so it never matches."""
        return self._held(weakref.ref(index), index.generation(columns))

    def _held(self, owner: "weakref.ref[Any]", generation: int) -> Optional[np.ndarray]:
        # One plain weakref per live object in CPython: `is` compares indexes.
        slot = self.answer
        return slot[2]() if slot and slot[0] is owner and slot[1] == generation else None

    def stamp(
        self, index: Any, columns: Iterable[str], sanitize: bool
    ) -> Callable[[Callable[[], np.ndarray]], np.ndarray]:
        """Stamp ``index``'s generation over ``columns`` (when the operands
        are read, after any repair); ``get(compute)`` then returns the last
        answer while it lives over the same index and generation, else
        ``compute()`` frozen (a reused answer is checked against it under
        ``sanitize``)."""
        owner, generation = weakref.ref(index), index.generation(columns)

        def get(compute: Callable[[], np.ndarray]) -> np.ndarray:
            value = self._held(owner, generation)
            if value is None:
                value = compute()
                value.setflags(write=False)
                self.answer = (owner, generation, weakref.ref(value))
            elif sanitize and not np.array_equal(value, compute()):
                raise SharedAnswerError(f"a stale shared answer at write generation {generation}")
            return value

        return get


@dataclass(slots=True)
class _PricedChain(AnswerSlot):
    """One interned conjunction shape plus what the engine charges for it.

    The prices depend only on the shape and on the engine's cost key
    (``config.banks_parallel``, what ``op_cost`` itself is keyed on), so
    they are computed once per shape and re-computed when the key moves.
    The inherited :class:`AnswerSlot` holds the shape's last answer
    (stamped at lowering): while it is current, a plain lowering binds
    nothing — the chain is charged priced-only and the answer handed out.

    Attributes:
        chain: The interned shape.
        cost_key: ``banks_parallel`` the prices were computed under.
        latency_ns: Admission latency — the chain's sequential-execution
            time.
        prices / latencies / serial: Each step's ``op_cost``, its latency,
            and the steps' serial roll-up (priced on first lowering).
        canonical: What the batch plan optimizer derives from the shape
            alone (canonical order, dependency columns, plan total; set
            on first optimized lowering).  Structure only, like the chain.
        certified: The full plan lint passed on the shape's first bind
            (``sanitize=True``); later binds are checked as bindings.
    """

    chain: "CompiledChain"
    cost_key: Optional[int] = None
    latency_ns: float = 0.0
    prices: Optional[Tuple[OperationMetrics, ...]] = None
    latencies: Tuple[float, ...] = ()
    serial: Tuple[Any, ...] = ()
    canonical: Optional["ConjunctionShape"] = None
    certified: bool = False


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
            finish time (the optimizer's cross-predicate join).
        host_join_ops: Host AND ops that join performs.
        write_outcome: The maintenance outcome of a lowered write request
            (strategy attribution, charged planes; None for reads).
        rebuild_columns: Lazily-maintained columns this read repaired
            (their rebuild charge rides in ``indices``).
        refusal: Why lowering refused the request instead (``""`` when
            lowered): the frontend settles it rejected with this reason.
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
    refusal: str = ""


class BatchPlanner:
    """Shapes batches by policy and lowers high-level requests.

    Args:
        executor: The executor the plans target (its latency model drives
            deadline urgency and admission backlog).
        config: The pipeline's :class:`~repro.service.config.PipelineConfig`
            (``policy``, ``optimize``, ``cache``, ``maintenance`` are the
            knobs read here); the cache and the maintenance policy are
            materialized per planner.
    """

    def __init__(self, executor: BatchExecutor, config: PipelineConfig) -> None:
        self.executor = executor
        self.policy = config.policy
        self.maintenance = config.new_maintenance()
        self.functional = config.functional
        self.result_cache = config.new_cache()
        self.optimizer: Optional["BatchOptimizer"] = None
        if config.optimize:
            from repro.optimizer.passes import BatchOptimizer  # local: avoid cycle

            self.optimizer = BatchOptimizer(result_cache=self.result_cache)
        # Interned conjunction shapes, least recently used first, keyed
        # (predicates, num_rows, row_size_bytes).  Per planner, like the
        # engine's op-cost table: no warm state crosses sessions.
        self._chains: "OrderedDict[Tuple[Any, int, int], _PricedChain]" = OrderedDict()
        # Maintenance charges' prices (see priced_charge): per planner, as
        # one maintenance policy serves every shard of a cluster.
        self._charges: Dict[Tuple[int, int, int, int], Tuple[Any, ...]] = {}
        # Zero-cost metrics by (name, bytes produced, notes): every request
        # that runs nothing shares its shape's one object (read-only).
        self._zero_costs: Dict[Tuple[str, int, str], OperationMetrics] = {}

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

    def _priced_chain(
        self, predicates: Tuple[Tuple[str, Tuple[int, ...]], ...], num_rows: int
    ) -> _PricedChain:
        """The interned shape of ``predicates`` over a ``num_rows``-row
        source (compiled on first sight; requests with equal predicates
        over equal-sized sources share one, and so do the optimizer's
        one-predicate sub-chains), priced for the engine as it is now."""
        engine = self.executor.engine
        key = (predicates, num_rows, engine.device.geometry.row_size_bytes)
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
            priced.prices = None
        return priced

    def _conjunction_latency_ns(self, request: BitmapConjunctionRequest) -> float:
        return self._priced_chain(request.predicates, request.index.num_rows).latency_ns

    def _price_steps(self, priced: _PricedChain) -> None:
        """Price a (freshly looked-up) chain's steps and their roll-up.

        Every execution path charges a step ``op_cost(op, rows, bytes)``,
        so the prices are a property of the shape: taken once per shape
        and cost key, and the roll-up is the same sum over the same
        sequence the executed steps would give.
        """
        if priced.prices is None:
            chain = priced.chain
            engine = self.executor.engine
            ops = [op for op, _a, _b in chain.steps]
            # One price object per distinct op: a shape is held per template.
            cost = {
                op: engine.op_cost(op, chain.rows, chain.packed_bytes) for op in dict.fromkeys(ops)
            }
            priced.prices = prices = tuple(cost[op] for op in ops)
            priced.latencies = tuple(price.latency_ns for price in prices)
            serial = combine_serial("bitmap_conjunction", prices)
            priced.serial = (
                serial.name, serial.latency_ns, serial.energy_j, serial.bytes_moved_on_channel,
                serial.bytes_produced, f"{len(prices)} lowered bulk ops",
            )

    def priced_charge(
        self, planes: int, rows: int, packed_bytes: int
    ) -> Tuple[Tuple[OperationMetrics, ...], Tuple[float, ...], Tuple[Any, ...]]:
        """``(prices, latencies, serial)`` of a maintenance charge: one
        ``or`` over ``rows`` row chunks per plane, interned per shape and
        cost key (oldest dropped past the chains' capacity)."""
        engine = self.executor.engine
        key = (planes, rows, packed_bytes, engine.config.banks_parallel)
        charge = self._charges.get(key)
        if charge is None:
            prices = (engine.op_cost("or", rows, packed_bytes),) * planes
            serial = astuple(combine_serial("storage_maintenance", prices))
            charge = self._charges[key] = (prices, (prices[0].latency_ns,) * planes, serial)
            if len(self._charges) > CHAIN_INTERN_CAPACITY:
                del self._charges[next(iter(self._charges))]
        return charge

    def modeled_banks(self, request: FrontendRequest) -> Sequence:
        """Bank keys any frontend request is modeled to occupy.

        A lowered conjunction's whole chain is pinned to its index's stable
        offset, so the chain charges the same banks it will serialize on.
        The optimizer fans a chain's sub-chains out over offsets chosen at
        lowering time, so under it conjunctions are unpinned (empty span)
        — the frontend falls back to global backlog.
        """
        if isinstance(request, BitmapConjunctionRequest):
            if self.optimizer is not None:
                return ()
            return self.executor.span_banks(
                self._priced_chain(request.predicates, request.index.num_rows).chain.rows,
                self.executor.stable_offset(request.index),
            )
        if is_write_request(request):
            return self.maintenance.modeled_write_banks(request, self.executor)
        return self.executor.modeled_banks(request)

    # ------------------------------------------------------------------
    # Batch closing
    # ------------------------------------------------------------------
    def should_close(self, queued: List[QueuedRequest], now_ns: float) -> bool:
        """Does the policy call for closing a batch right now?

        The timed clauses (window expiry, a deadline's last viable start)
        are read off :meth:`next_close_ns` itself, so the instant the
        frontend wakes at is, by construction, an instant this says close.
        """
        if not queued:
            return False
        if len(queued) >= self.policy.max_batch:
            return True
        return self.next_close_ns(queued, now_ns) <= now_ns

    def urgent_close(self, queued: List[QueuedRequest], now_ns: float) -> bool:
        """Always False, and nothing calls it: kept only because the frozen
        ``perf/tracing.py`` wraps it by name."""
        return False

    def next_close_ns(self, queued: List[QueuedRequest], now_ns: float) -> float:
        """Earliest future instant the policy will close a batch (inf if
        only size or stream end can close it): the window's expiry, or a
        queued deadline's last viable start (deadline minus modeled
        service latency).  The frontend's virtual clock wakes here when
        no arrival comes sooner."""
        next_close = math.inf
        if not queued:
            return next_close
        if self.policy.window_ns is not None:
            oldest = min(q.arrival_ns for q in queued)
            next_close = min(next_close, oldest + self.policy.window_ns)
        for q in queued:
            if q.deadline_ns is not None:
                next_close = min(next_close, q.deadline_ns - q.modeled_ns)
        return next_close

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def lower_batch(
        self, batch: List[QueuedRequest]
    ) -> Tuple[List[Primitive], List[LoweredGroup]]:
        """Lower a closed batch into primitives plus result bookkeeping.

        With the optimizer enabled, every conjunction of the batch lowers
        into one shared step DAG (cross-request CSE, sub-chain
        splitting); under ``sanitize=True`` the DAG is certified by
        :func:`repro.verify.plan_lint.lint_optimized_batch` before the
        executor sees a single step.
        """
        primitives: List[Primitive] = []
        groups: List[LoweredGroup] = []
        # Source operands bound so far, shared by the batch's chains and
        # dropped with this frame: no vector may outlive its batch.
        shared: "SharedSources" = {}
        if self.optimizer is not None:
            self.optimizer.open_batch(self)
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
                    priced = self._priced_chain(request.predicates, request.index.num_rows)
                    group = self.optimizer.lower_conjunction(queued, primitives, priced)
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

    def commit_cache_fills(self) -> None:
        """Park the executed batch's finished bitmaps in the result cache
        (no-op without one).  The frontend calls this *after* the
        executor ran the batch — the step vectors hold result data only
        post-execution."""
        if self.optimizer is not None:
            self.optimizer.commit_fills()

    def _charge_rebuilds(
        self, group: LoweredGroup, columns: List[str], primitives: List[Primitive]
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
                group.queued.request.index, column, self
            ):
                primitives.append(primitive)
                group.indices.append(len(primitives) - 1)
        group.rebuild_columns = tuple(columns)

    def _lower_write(
        self, queued: QueuedRequest, primitives: List[Primitive]
    ) -> LoweredGroup:
        """Lower one write: apply the mutation *now* (lowering runs in
        queue order, so reads lowered later in the batch see the post-
        write planes — sequential consistency within a batch), invalidate
        the result cache, and emit the maintenance charge.  A write whose
        row ids a delete lowered since ``offer`` left past the table's end
        is refused instead, touching nothing."""
        request = queued.request
        if not rows_in_range(request):
            return LoweredGroup(
                queued=queued, indices=[], finalize=lambda _r: None, refusal="stale_row_ids"
            )
        outcome = self.maintenance.lower_write(request, self)
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
                lint_index_partition,
                lint_write_plan,
            )

            # Certify the maintenance charge against the declared outcome,
            # that the written planes still partition the table's rows,
            # then (cache on) that no stale entry survived the invalidation.
            lint_write_plan(outcome, self.executor)
            lint_index_partition(request.index, outcome.invalidate_columns)
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
            zero_cost = self._zero_cost(f"storage_{request.kind}", 0, "deferred maintenance")
        return LoweredGroup(
            queued=queued,
            indices=indices,
            finalize=finalize,
            zero_cost_metrics=zero_cost,
            cache_invalidations=invalidated,
            write_outcome=outcome,
        )

    def _lower_conjunction(
        self, queued: QueuedRequest, primitives: List[Primitive], shared: "SharedSources"
    ) -> LoweredGroup:
        request = queued.request
        index = request.index
        # One lowering path for every tier: the shared plan IR binds the
        # interned shape identically whether `index` is a full BitmapIndex
        # (service tier) or a shard view (each cluster shard).  The shape
        # was compiled at the device's row size — the executor charges
        # each step from the vectors' row-chunk count, so any other size
        # would diverge from the plan-level model (and the functional path).
        priced = self._priced_chain(request.predicates, index.num_rows)
        chain = priced.chain
        columns = [c for c, _v in chain.predicates]
        offset = self.executor.stable_offset(index)
        sanitize = self.executor.sanitize
        if chain.steps and not (sanitize or self.functional):
            held = priced.current(index, columns)
            if held is not None:
                # A current answer binds nothing: the chain is charged and
                # placed priced-only, and the group holds the answer.
                self._price_steps(priced)
                primitives.append(BoundChain(
                    [], offset, priced.prices, priced.latencies, priced.serial, chain.rows
                ))
                return LoweredGroup(
                    queued=queued, indices=[len(primitives) - 1], finalize=lambda _r: held
                )
        steps, result_vector = chain.bind(index, shared)
        # Stamped after the bind repaired any dirty column, before a later
        # write of the batch can move it.
        share = priced.stamp(index, columns, sanitize)
        if sanitize:
            from repro.verify import plan_lint  # local: avoid cycle

            # Certify the bound chain statically before any step
            # executes: the shape's topology, widths and cost-model
            # agreement once per template, this request's wiring always.
            if not priced.certified:
                plan_lint.lint_lowered_conjunction(
                    request.predicates, steps, result_vector, chain.plan(),
                    num_rows=index.num_rows, row_size_bytes=chain.row_size_bytes,
                )
                priced.certified = True
            plan_lint.lint_binding(chain, steps, result_vector, shared)
        packed_bytes = chain.packed_bytes
        indices: List[int] = []
        zero_cost = None
        if steps:
            self._price_steps(priced)
            indices.append(len(primitives))
            primitives.append(BoundChain(
                steps, offset, priced.prices, priced.latencies, priced.serial, chain.rows
            ))
        else:
            # Single-value single-predicate conjunction: the answer is the
            # bitmap itself; no bulk operations run and none are charged,
            # exactly as the plan-level cost model prices it.
            zero_cost = self._zero_cost("bitmap_conjunction", packed_bytes, "0 bulk ops (identity)")

        def finalize(results: List[RequestResult]) -> Any:
            return share(lambda: result_vector.data[:packed_bytes].copy())

        return LoweredGroup(
            queued=queued, indices=indices, finalize=finalize, zero_cost_metrics=zero_cost
        )

    def _zero_cost(self, name: str, bytes_produced: int, notes: str) -> OperationMetrics:
        """The one shared metrics object of a request that runs nothing."""
        key = (name, bytes_produced, notes)
        metrics = self._zero_costs.get(key)
        if metrics is None:
            metrics = self._zero_costs[key] = OperationMetrics(
                name=name, latency_ns=0.0, energy_j=0.0, bytes_produced=bytes_produced, notes=notes
            )
        return metrics

    @staticmethod
    def group_metrics(group: LoweredGroup, results: List[RequestResult]) -> OperationMetrics:
        """Sequential-execution cost attributed to one lowered group."""
        if not group.indices:
            return group.zero_cost_metrics
        if len(results) == 1 and group.write_outcome is None:
            return results[0].metrics
        steps = [price for r in results for price in r.step_prices]
        if len(steps) == 1:
            # A write of one step (one plane op, or only its row traffic).
            return replace(steps[0])
        if group.write_outcome is not None:
            name = f"storage_{group.write_outcome.request.kind}"
        else:
            name = "bitmap_conjunction"
        combined = combine_serial(name, steps)
        combined.notes = f"{len(steps)} lowered bulk ops"
        return combined
