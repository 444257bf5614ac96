"""The batch plan optimizer: CSE and sub-chain splitting over one batch.

:class:`BatchOptimizer` sits between the
:class:`~repro.service.planner.BatchPlanner` closing a batch and the
:class:`~repro.service.executor.BatchExecutor` dispatching it.  Instead of
lowering each :class:`~repro.service.requests.BitmapConjunctionRequest`
into its own isolated chain, the optimizer lowers the whole batch into one
shared step DAG:

* **Cross-request CSE** — every predicate sub-chain (``col IN values``)
  is keyed canonically (:mod:`repro.optimizer.canonical`: sorted value
  multisets, commutative AND reordering, fused-NOT normalization); a
  sub-chain another request of the batch already lowered is *consumed*
  rather than re-emitted, and the consumer rides the producer's result
  vector.  In unsplit mode the left-deep AND spine is CSE'd too (the
  predicates are lowered in canonical order, so equal conjunction
  prefixes share step for step — a fully duplicate request emits zero
  device ops).
* **Request-level CSE** — in split mode the first request of a
  conjunction records its part nodes under the whole-conjunction
  canonical key; every later identical request of the batch takes the
  parts from that one entry and shares one host join, computed by
  whichever of them is finalized first (the *modeled* host still merges
  per request, so ``host_merge_ns`` is charged to each).  The entry
  depends on the union of its columns, so an in-batch write drops it by
  the same rule as a predicate entry.  What a conjunction derives from
  its shape alone (:class:`~repro.optimizer.canonical.ConjunctionShape`)
  is interned per template by the planner; per request only the source
  id is stamped into the keys.
* **Sub-chain splitting** — a conjunction's predicate sub-chains are
  mutually independent, so in split mode each lands on its own bank
  offset, chosen cheapest-horizon-first from the executor's persistent
  :class:`~repro.service.lanes.LaneSchedule`; the request overlaps with
  *itself* across lanes.  The cross-predicate AND then happens host-side
  in the group's finalize, charged as a pairwise merge tree
  (``ceil(log2(fan_in))`` levels of ``merge_ns_per_op``) — the identical
  model the cluster gather path charges.
* **Cost ledger** — every request's charged ops are its *owned* steps
  plus its host joins; the difference to the unoptimized plan total is
  recorded as ``ops_eliminated`` (and every shared sub-chain as
  ``shared_subchains``).  Under ``sanitize=True`` the whole batch DAG is
  certified by :func:`repro.verify.plan_lint.lint_optimized_batch`
  before a single step executes.

Emitted steps carry ``after`` dependencies (batch-local producer
indices), so the executor's schedule keeps cross-lane consumers behind
their producers' finish times — causality the schedule race detector
then independently replays.

The optimizer never changes *what* is computed: AND/OR are commutative
and associative over bitmaps, sharing only reuses an identical result
vector, and splitting only moves sub-chains between lanes.  Property
tests pin bit-exactness against unoptimized lowering on both tiers.

Every conjunction's result value is **read-only**: a join shared by
several responses cannot be written through one of them, and an unshared
one behaves the same (``np.array(value)`` is a private, writable copy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.analysis.metrics import OperationMetrics
from repro.api.plans import lower_predicate_steps, source_vector
from repro.cache.result_cache import ResultCache
from repro.optimizer.canonical import ConjunctionShape, Key, canonical_key
from repro.service.config import OptimizerConfig
from repro.service.planner import LoweredGroup
from repro.service.requests import (
    BitmapConjunctionRequest,
    BulkOpRequest,
    QueuedRequest,
    RequestResult,
    ServiceRequest,
)
from repro.verify.plan_lint import (
    ChainStep,
    OptimizedBatchReport,
    OptimizedRequestView,
    lint_optimized_batch,
)


@dataclass
class _Node:
    """One materialized sub-chain result in the batch DAG.

    Attributes:
        key: Canonical structural key (the CSE cache key).
        vector: The vector holding the sub-chain's result bitmap.
        cone: Batch-step indices of every step producing the result
            (sorted; empty when the vector is a source bitmap).
        producer: The step producing ``vector`` (None for a source).
    """

    key: Key
    vector: BulkBitVector
    cone: Tuple[int, ...]
    producer: Optional[int]


class _Answer:
    """One conjunction's final nodes and the packed value they join to.

    Every lowered conjunction gets one; in split mode it doubles as the
    batch's CSE entry for the *whole* conjunction — identical later
    requests hold the same object, so the host join runs once however
    many responses carry its result.

    Attributes:
        parts: The nodes whose vectors AND to the result: one per
            sub-chain when split across lanes, the single chain result
            when unsplit.
        cone: Sorted batch-step indices producing the parts.
        packed_bytes: Bytes of the packed result bitmap.
    """

    __slots__ = ("parts", "cone", "packed_bytes", "_joined")

    def __init__(self, parts: Tuple[_Node, ...], packed_bytes: int) -> None:
        self.parts = parts
        self.cone: Tuple[int, ...] = tuple(sorted({i for node in parts for i in node.cone}))
        self.packed_bytes = packed_bytes
        self._joined: Optional[np.ndarray] = None

    def value(self, _results: List[RequestResult]) -> np.ndarray:
        """The packed result, read-only; the group's ``finalize``.

        Joined by the first caller — the part vectors only hold result
        data once the batch has executed — and handed as is to the rest.
        """
        joined = self._joined
        if joined is None:
            planes = [node.vector.data[: self.packed_bytes] for node in self.parts]
            joined = planes[0].copy() if len(planes) == 1 else np.bitwise_and.reduce(planes)
            joined.setflags(write=False)
            self._joined = joined
        return joined


class BatchOptimizer:
    """Lowers one batch's conjunctions into a shared, lane-spread DAG.

    One optimizer instance lives on a :class:`BatchPlanner`; its CSE
    cache and lane-load tracker are *batch-scoped* (reset by
    :meth:`open_batch`), so sharing never reaches across dispatches —
    a result vector only exists while its batch executes.

    Args:
        config: Optimizer knobs (all passes on by default).
        result_cache: Cross-batch :class:`~repro.cache.ResultCache` to
            consult before emitting a sub-chain and to fill (epoch-guarded,
            after the batch executes) with finished result bitmaps.  None
            keeps the optimizer batch-scoped, as in PR 7.
    """

    def __init__(
        self,
        config: Optional[OptimizerConfig] = None,
        result_cache: Optional[ResultCache] = None,
    ) -> None:
        self.config = config or OptimizerConfig()
        self.result_cache = result_cache
        self._executor: Any = None
        self._cache: Dict[Key, _Node] = {}
        # Split mode: whole-conjunction key -> the answer every identical
        # request of the batch shares.
        self._answers: Dict[Key, _Answer] = {}
        # Dependency columns per CSE cache key: key -> (id(index), columns).
        # A write lowered mid-batch invalidates the overlapping entries
        # (see invalidate_writes) so no later request of the same batch
        # rides a vector materialized from pre-write planes.
        self._node_columns: Dict[Key, Tuple[int, FrozenSet[str]]] = {}
        # What the batch lint replays; recorded under ``sanitize`` only.
        self._steps: Dict[int, ChainStep] = {}
        self._views: List[OptimizedRequestView] = []
        self._assigned: Dict[int, float] = {}
        # Pending cache fills of the open batch: (key, index, dep columns,
        # result vector, packed bytes, plan-time write epoch, num_rows).
        self._fills: List[Tuple[Key, Any, Tuple[str, ...], BulkBitVector, int, int, int]] = []
        self._fill_keys: Set[Key] = set()

    # ------------------------------------------------------------------
    # Batch lifecycle
    # ------------------------------------------------------------------
    def open_batch(self, executor: Any) -> None:
        """Reset the batch-scoped state; subsequent lowerings share."""
        self._executor = executor
        self._cache = {}
        self._answers = {}
        self._node_columns = {}
        self._steps = {}
        self._views = []
        self._assigned = {}
        self._fills = []
        self._fill_keys = set()

    def commit_fills(self) -> int:
        """Park the executed batch's finished bitmaps in the result cache.

        Must run *after* the executor ran the batch — the recorded vectors
        only hold result data post-execution.  Each fill is epoch-guarded:
        if a write invalidated one of its dependency columns since plan
        time (a same-batch write lowered after the read), the fill is
        bypassed rather than caching a stale bitmap.  Returns the number
        of entries written.
        """
        cache = self.result_cache
        committed = 0
        if cache is None:
            self._fills = []
            return 0
        for key, index, columns, vector, packed_bytes, epoch, num_rows in self._fills:
            if cache.write_epoch(index, columns) != epoch:
                cache.bypasses += 1
                continue
            cache.put(key, index, columns, vector.data[:packed_bytes], num_rows)
            committed += 1
        self._fills = []
        return committed

    def invalidate_writes(
        self,
        index: Any,
        columns: Optional[Iterable[str]] = None,
        invalidate_all: bool = False,
    ) -> int:
        """Drop batch-local CSE entries a write just made stale.

        The cross-batch :class:`ResultCache` is protected at two points
        (invalidation at write lowering, epoch guards at fill commit),
        but the batch-scoped CSE table would otherwise still hand a
        request lowered *after* an in-batch write a result vector
        materialized from pre-write planes.  Called by the planner's
        write lowering with the write's invalidation footprint; entries
        whose dependency columns intersect it (all of the index's
        entries under ``invalidate_all``) are forgotten, so later
        requests of the batch re-emit them against the mutated planes.
        Returns the number of entries dropped.
        """
        index_id = id(index)
        written = None if invalidate_all else frozenset(columns or ())
        stale = [
            key
            for key, (owner, deps) in self._node_columns.items()
            if owner == index_id and (written is None or deps & written)
        ]
        for key in stale:
            self._cache.pop(key, None)
            self._answers.pop(key, None)
            del self._node_columns[key]
        return len(stale)

    def lint_batch(self, row_size_bytes: Optional[int] = None) -> Optional[OptimizedBatchReport]:
        """Certify the open batch's DAG (None when nothing was lowered, or
        the executor does not ``sanitize`` — nothing was recorded)."""
        if not self._views:
            return None
        return lint_optimized_batch(self._steps, self._views, row_size_bytes=row_size_bytes)

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def shape(self, request: BitmapConjunctionRequest) -> ConjunctionShape:
        """The canonical shape of ``request`` on the open batch's device
        (what the planner interns per template)."""
        row_size: int = self._executor.engine.device.geometry.row_size_bytes
        return ConjunctionShape.of(request.predicates, request.index.num_rows, row_size)

    def lower_conjunction(
        self,
        queued: QueuedRequest,
        primitives: List[ServiceRequest],
        shape: Optional[ConjunctionShape] = None,
    ) -> LoweredGroup:
        """Lower one conjunction into the open batch's shared DAG.

        Appends the request's fresh steps to ``primitives`` and returns
        the :class:`LoweredGroup` carrying its cost ledger and finalize.
        ``shape`` is the request's interned :meth:`shape` (derived here
        when the caller keeps none).
        """
        request = queued.request
        assert isinstance(request, BitmapConjunctionRequest)
        executor = self._executor
        config = self.config
        index = request.index
        if shape is None:
            shape = self.shape(request)
        plan_total = shape.plan_total
        packed_bytes = shape.packed_bytes
        pkeys, whole = shape.keys(index)

        own: List[int] = []
        cache_hits = cache_misses = 0
        # Request-level CSE (split mode): an identical request lowered
        # earlier in this batch — and not overwritten since — already
        # holds every part; ride them and its one host join.
        share_whole = config.cse and config.split_subchains
        answer = self._answers.get(whole) if share_whole else None
        if answer is not None:
            shared = len(answer.parts)
        else:
            finals, shared, cache_hits, cache_misses = self._lower_parts(
                index, shape, pkeys, whole, primitives, own
            )
            answer = _Answer(finals, packed_bytes)
            if share_whole:
                self._answers[whole] = answer
                self._node_columns[whole] = (id(index), shape.prefix_columns[-1])

        # Split parts are joined host-side, charged as a pairwise merge
        # tree to every request (the modeled host merges per request even
        # when the simulator joins once); an unsplit chain has one final.
        host_join_ops = len(answer.parts) - 1
        host_merge_ns = (
            host_join_ops.bit_length() * config.merge_ns_per_op if host_join_ops else 0.0
        )
        deps = answer.cone
        if own:
            mine = set(own)
            deps = tuple(i for i in deps if i not in mine)
        ops_eliminated = plan_total - len(own) - host_join_ops

        if executor.sanitize:
            self._views.append(
                OptimizedRequestView(
                    predicates=request.predicates,
                    num_rows=index.num_rows,
                    plan_total=plan_total,
                    own_indices=tuple(own),
                    dep_indices=deps,
                    part_vectors=tuple(node.vector for node in answer.parts),
                    host_join_ops=host_join_ops,
                    ops_eliminated=ops_eliminated,
                    shared_subchains=shared,
                )
            )

        zero_cost = None
        if not own:
            # Everything this request needs was already lowered by the
            # batch, served from the cross-batch result cache, or is a
            # single-bitmap identity: zero device ops run on its account,
            # exactly as the ledger declares.
            if deps:
                what = "shared"
            elif cache_hits:
                what = "cached"
            else:
                what = "identity"
            zero_cost = OperationMetrics(
                name="bitmap_conjunction",
                latency_ns=0.0,
                energy_j=0.0,
                bytes_produced=packed_bytes,
                notes=f"{plan_total} bulk ops ({what})",
            )
        return LoweredGroup(
            queued=queued,
            indices=own,
            finalize=answer.value,
            zero_cost_metrics=zero_cost,
            dep_indices=list(deps),
            host_merge_ns=host_merge_ns,
            host_join_ops=host_join_ops,
            ops_eliminated=ops_eliminated,
            shared_subchains=shared,
            cache_hits=cache_hits,
            cache_misses=cache_misses,
        )

    def _lower_parts(
        self,
        index: Any,
        shape: ConjunctionShape,
        pkeys: Tuple[Key, ...],
        whole: Key,
        primitives: List[ServiceRequest],
        own: List[int],
    ) -> Tuple[Tuple[_Node, ...], int, int, int]:
        """Find or emit the nodes a conjunction's result joins from.

        Appends fresh steps to ``primitives`` (their indices to ``own``);
        returns ``(final nodes, shared sub-chains, cache hits, cache
        misses)`` — one node per sub-chain when split, else the chain's
        single result.
        """
        executor = self._executor
        cse = self.config.cse
        split = self.config.split_subchains
        num_rows: int = index.num_rows
        row_size: int = executor.engine.device.geometry.row_size_bytes
        packed_bytes = shape.packed_bytes
        rows = shape.rows
        index_id = id(index)
        # Every index is first seen here (a request that rides another's
        # answer follows one that did not), so offsets are handed out in
        # the same first-seen order as ever.
        base: int = executor.stable_offset(index)
        shared = cache_hits = cache_misses = 0
        # Whole-conjunction consult first (unsplit mode): a repeated
        # request across batches is then one host-memory read — zero
        # device ops, no per-predicate reassembly.
        consult_whole = self.result_cache is not None and not split and len(pkeys) > 1
        if consult_whole:
            full_node = self._cached_node(whole, index, num_rows, row_size)
            if full_node is not None:
                return (full_node,), 0, 1, 0
            cache_misses += 1

        # Canonical commutative reordering: lowering predicates in key
        # order makes equal conjunctions build identical AND spines.
        parts: List[_Node] = []
        for pkey, (column, values), columns in zip(pkeys, shape.predicates, shape.columns):
            node = self._cache.get(pkey) if cse else None
            if node is not None:
                shared += 1
            else:
                node = self._cached_node(pkey, index, num_rows, row_size)
                if node is not None:
                    cache_hits += 1
                else:
                    if self.result_cache is not None:
                        cache_misses += 1
                    offset = self._choose_offset(executor, base, rows)
                    node = self._emit_predicate(
                        pkey, index, column, values, row_size, rows, offset, primitives, own
                    )
                    if node.producer is not None:
                        # A multi-value OR chain is worth re-serving from
                        # host memory; a bare bitmap is already a zero-op
                        # source.
                        self._record_fill(
                            pkey, index, (column,), node.vector, packed_bytes, num_rows
                        )
                if cse:
                    self._cache[pkey] = node
                    self._node_columns[pkey] = (index_id, columns)
            parts.append(node)
        if split:
            return tuple(parts), shared, cache_hits, cache_misses

        # Left-deep AND spine over the canonically ordered parts, with
        # equal prefixes CSE'd across requests.
        acc = parts[0]
        for part, merged in zip(parts[1:], shape.prefix_columns[1:]):
            akey = canonical_key("and", (acc.key, part.key))
            node = self._cache.get(akey) if cse else None
            if node is None:
                node = self._emit_and(akey, acc, part, num_rows, row_size, base, primitives, own)
                if cse:
                    self._cache[akey] = node
                    self._node_columns[akey] = (index_id, merged)
            else:
                shared += 1
            acc = node
        if consult_whole:
            self._record_fill(whole, index, shape.dep_columns, acc.vector, packed_bytes, num_rows)
        return (acc,), shared, cache_hits, cache_misses

    # ------------------------------------------------------------------
    # Cross-batch result cache (consult / fill)
    # ------------------------------------------------------------------
    def _cached_node(
        self, key: Key, index: Any, num_rows: int, row_size: int
    ) -> Optional[_Node]:
        """A source node preloaded from the result cache, or None.

        The cache hands out a private copy, which the node's vector
        adopts as its (read-only) storage, so the node is an ordinary
        *source* to the batch DAG: produced by no step, shareable by
        CSE, lint-clean under the cone-closure check.
        """
        cache = self.result_cache
        if cache is None:
            return None
        data = cache.get(key, index, num_rows)
        if data is None:
            return None
        return _Node(
            key=key, vector=source_vector(data, num_rows, row_size), cone=(), producer=None
        )

    def _record_fill(
        self,
        key: Key,
        index: Any,
        columns: Tuple[str, ...],
        vector: BulkBitVector,
        packed_bytes: int,
        num_rows: int,
    ) -> None:
        """Queue a finished sub-chain for the post-execution cache fill,
        stamped with its dependency columns' plan-time write epoch."""
        cache = self.result_cache
        if cache is None or key in self._fill_keys:
            return
        self._fill_keys.add(key)
        self._fills.append(
            (key, index, columns, vector, packed_bytes,
             cache.write_epoch(index, columns), num_rows)
        )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit_predicate(
        self,
        pkey: Key,
        index: Any,
        column: str,
        values: Tuple[int, ...],
        row_size: int,
        rows: int,
        offset: int,
        primitives: List[ServiceRequest],
        own: List[int],
    ) -> _Node:
        """Emit one predicate's OR chain at ``offset``; returns its node.

        ``values`` arrive sorted (the canonical key's order) so identical
        value multisets build identical chains.
        """
        steps, vector = lower_predicate_steps(index, column, values, row_size_bytes=row_size)
        record = self._executor.sanitize
        cone: List[int] = []
        producer: Optional[int] = None
        latency = 0.0
        for op, a, b, out in steps:
            after = (producer,) if producer is not None else ()
            step_index = len(primitives)
            primitives.append(
                BulkOpRequest(op=op, a=a, b=b, out=out, bank_offset=offset, after=after)
            )
            if record:
                self._steps[step_index] = (op, a, b, out)
            own.append(step_index)
            cone.append(step_index)
            producer = step_index
            latency += self._executor.engine.op_cost(op, rows).latency_ns
        if latency:
            self._assigned[offset] = self._assigned.get(offset, 0.0) + latency
        return _Node(key=pkey, vector=vector, cone=tuple(cone), producer=producer)

    def _emit_and(
        self,
        akey: Key,
        acc: _Node,
        part: _Node,
        num_rows: int,
        row_size: int,
        offset: int,
        primitives: List[ServiceRequest],
        own: List[int],
    ) -> _Node:
        """Emit one AND of two nodes at ``offset``; returns the new node."""
        out = BulkBitVector(num_rows, row_size)
        after = tuple(
            sorted(p for p in (acc.producer, part.producer) if p is not None)
        )
        step_index = len(primitives)
        primitives.append(
            BulkOpRequest(
                op="and", a=acc.vector, b=part.vector, out=out,
                bank_offset=offset, after=after,
            )
        )
        if self._executor.sanitize:
            self._steps[step_index] = ("and", acc.vector, part.vector, out)
        own.append(step_index)
        cone = tuple(sorted({*acc.cone, *part.cone, step_index}))
        return _Node(key=akey, vector=out, cone=cone, producer=step_index)

    # ------------------------------------------------------------------
    # Lane choice
    # ------------------------------------------------------------------
    def _choose_offset(self, executor: Any, base: int, rows: int) -> int:
        """Cheapest-horizon bank offset for a fresh sub-chain.

        Candidates are the request's ``max_split_lanes`` offsets starting
        at its index's stable offset; each is priced as its lanes' busy
        horizon (:meth:`LaneSchedule.lane_load_ns`; 0 for a barrier
        executor) plus the latency already assigned to it this batch.
        Unsplit mode keeps the whole chain at the stable offset.
        """
        if not self.config.split_subchains:
            return base
        banks: int = executor.banks_available()
        span = min(self.config.max_split_lanes, banks)
        best = base % banks
        best_load = float("inf")
        for k in range(span):
            offset = (base + k) % banks
            load = self._offset_load(executor, offset, rows)
            if load < best_load:
                best, best_load = offset, load
        return best

    def _offset_load(self, executor: Any, offset: int, rows: int) -> float:
        horizon: float = 0.0
        if executor.pipeline:
            horizon = executor.lanes.lane_load_ns(executor.span_banks(rows, offset))
        return horizon + self._assigned.get(offset, 0.0)
