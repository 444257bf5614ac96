"""The batch plan optimizer: CSE and sub-chain splitting over one batch.

:class:`BatchOptimizer` sits between the
:class:`~repro.service.planner.BatchPlanner` closing a batch and the
:class:`~repro.service.executor.BatchExecutor` dispatching it.  Instead of
lowering each :class:`~repro.service.requests.BitmapConjunctionRequest`
into its own isolated chain, the optimizer lowers the whole batch into one
shared step DAG:

* **Cross-request CSE** — every predicate sub-chain (``col IN values``)
  is keyed canonically (:mod:`repro.optimizer.canonical`: sorted value
  multisets, predicates in sorted key order); a sub-chain another request
  of the batch already lowered is *consumed* rather than re-emitted, and
  the consumer rides the producer's result vector.
* **Request-level CSE** — the first request of a conjunction records its
  part nodes under the whole-conjunction key; every later identical
  request of the batch takes the parts from that one entry and shares
  one host join, computed by whichever of them is finalized first (the
  *modeled* host still merges per request, so ``host_merge_ns`` is
  charged to each) — a fully duplicate request emits zero device ops.
  The entry depends on the union of its columns, so an in-batch write
  drops it by the same rule as a predicate entry.  What a conjunction
  derives from its shape alone
  (:class:`~repro.optimizer.canonical.ConjunctionShape`) is interned per
  template by the planner; per request only the source id is stamped
  into the keys.
* **Sub-chain splitting** — a conjunction's predicate sub-chains are
  mutually independent, so each lands on its own bank offset, chosen
  cheapest-horizon-first from the executor's persistent
  :class:`~repro.service.lanes.LaneSchedule`; the request overlaps with
  *itself* across lanes.  The cross-predicate AND then happens host-side
  in the group's finalize, charged as a pairwise merge tree
  (``ceil(log2(fan_in))`` levels of ``MERGE_NS_PER_OP``) — the identical
  model the cluster gather path charges.
* **Cross-batch cache** — with a :class:`~repro.cache.ResultCache`, each
  predicate sub-chain is consulted before it is emitted, and a finished
  multi-value OR chain is filled once the batch has executed.
* **Cost ledger** — every request's charged ops are its *owned* steps
  plus its host joins; the difference to the unoptimized plan total is
  recorded as ``ops_eliminated`` (and every shared sub-chain as
  ``shared_subchains``).  Under ``sanitize=True`` the whole batch DAG is
  certified by :func:`repro.verify.plan_lint.lint_optimized_batch`
  before a single step executes.

Each emitted sub-chain is one :class:`~repro.service.requests.BoundChain`
— the planner's interned one-predicate shape, bound and priced like a
plain conjunction — so its steps run back to back and are placed as one
run: no schedule can start a step before the step it reads.  A request
riding another's sub-chain lists that chain in ``dep_indices``, which
bounds its finish.

The optimizer never changes *what* is computed: AND/OR are commutative
and associative over bitmaps, sharing only reuses an identical result
vector, and splitting only moves sub-chains between lanes.  Property
tests pin bit-exactness against unoptimized lowering on both tiers.

Every conjunction's result value is **read-only**: a join shared by
several responses — of one batch, or of later ones while its planes are
unchanged — cannot be written through one of them, and an unshared one
behaves the same (``np.array(value)`` is a private, writable copy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.analysis.metrics import OperationMetrics
from repro.api.plans import source_vector
from repro.cache.result_cache import ResultCache
from repro.optimizer.canonical import ConjunctionShape, Key
from repro.service.config import MERGE_NS_PER_OP
from repro.service.planner import LoweredGroup, _PricedChain
from repro.service.requests import (
    BitmapConjunctionRequest,
    BoundChain,
    Primitive,
    QueuedRequest,
    RequestResult,
)
from repro.verify.plan_lint import (
    ChainStep,
    OptimizedBatchReport,
    OptimizedRequestView,
    lint_optimized_batch,
)

#: Most distinct bank offsets one request fans its sub-chains across
#: (further sub-chains reuse the cheapest of those offsets).  A constant,
#: not a knob: no workload needs a different value.
MAX_SPLIT_LANES = 4


@dataclass
class _Node:
    """One materialized sub-chain result in the batch DAG.

    Attributes:
        vector: The vector holding the sub-chain's result bitmap.
        cone: The producing chain's steps as the batch lint numbers them
            (consecutively over the batch's chains, in emission order;
            empty when the vector is a source bitmap).
        producer: Batch index of the :class:`BoundChain` producing
            ``vector`` (None for a source).
    """

    vector: BulkBitVector
    cone: Tuple[int, ...]
    producer: Optional[int]


class _Answer:
    """One conjunction's final nodes and the packed value they join to.

    Every lowered conjunction gets one, and it doubles as the batch's CSE
    entry for the *whole* conjunction — identical later requests hold the
    same object, so the host join runs once however many responses carry
    its result (and not at all while ``share`` has a live answer).

    Attributes:
        parts: The nodes whose vectors AND to the result, one per
            predicate sub-chain.
        producers: Sorted batch indices of the chains producing the parts.
        packed_bytes: Bytes of the packed result bitmap.
        share: The interned shape's answer getter, stamped at lowering
            (:meth:`_PricedChain.stamp`).
    """

    __slots__ = ("parts", "producers", "packed_bytes", "share", "_joined")

    def __init__(self, parts: Tuple[_Node, ...], packed_bytes: int, share: Any) -> None:
        self.parts = parts
        self.producers: Tuple[int, ...] = tuple(
            sorted({node.producer for node in parts if node.producer is not None})
        )
        self.packed_bytes = packed_bytes
        self.share = share
        self._joined: Optional[np.ndarray] = None

    def value(self, _results: List[RequestResult]) -> np.ndarray:
        """The packed result, read-only; the group's ``finalize``.

        Joined by the first caller — the part vectors only hold result
        data once the batch has executed — and handed as is to the rest.
        """
        joined = self._joined
        if joined is None:
            joined = self._joined = self.share(self._join)
        return joined

    def _join(self) -> np.ndarray:
        planes = [node.vector.data[: self.packed_bytes] for node in self.parts]
        return planes[0].copy() if len(planes) == 1 else np.bitwise_and.reduce(planes)


class BatchOptimizer:
    """Lowers one batch's conjunctions into a shared, lane-spread DAG.

    One optimizer instance lives on a :class:`BatchPlanner`; its CSE
    cache and lane-load tracker are *batch-scoped* (reset by
    :meth:`open_batch`), so sharing never reaches across dispatches —
    a result vector only exists while its batch executes.

    Args:
        result_cache: Cross-batch :class:`~repro.cache.ResultCache` to
            consult before emitting a sub-chain and to fill
            (generation-guarded, after the batch executes) with finished
            result bitmaps.  None keeps the optimizer batch-scoped.
    """

    def __init__(self, result_cache: Optional[ResultCache] = None) -> None:
        self.result_cache = result_cache
        self._planner: Any = None
        self._executor: Any = None
        self._cache: Dict[Key, _Node] = {}
        # Whole-conjunction key -> the answer every identical request of
        # the batch shares.
        self._answers: Dict[Key, _Answer] = {}
        # Dependency columns per CSE cache key: key -> (id(index), columns).
        # A write lowered mid-batch invalidates the overlapping entries
        # (see invalidate_writes) so no later request of the same batch
        # rides a vector materialized from pre-write planes.
        self._node_columns: Dict[Key, Tuple[int, FrozenSet[str]]] = {}
        # Steps emitted this batch: the ledger's op count and the lint's
        # step numbering.
        self._step_count = 0
        # What the batch lint replays; recorded under ``sanitize`` only.
        self._steps: Dict[int, ChainStep] = {}
        self._views: List[OptimizedRequestView] = []
        self._assigned: Dict[int, float] = {}
        # Pending cache fills of the open batch: (key, index, column,
        # result vector, packed bytes, plan-time write generation).
        self._fills: List[Tuple[Key, Any, str, BulkBitVector, int, int]] = []
        self._fill_keys: Set[Key] = set()

    # ------------------------------------------------------------------
    # Batch lifecycle
    # ------------------------------------------------------------------
    def open_batch(self, planner: Any) -> None:
        """Reset the batch-scoped state for ``planner``'s next batch;
        subsequent lowerings share, and bind the planner's interned
        shapes on its executor."""
        self._planner = planner
        self._executor = planner.executor
        self._cache = {}
        self._answers = {}
        self._node_columns = {}
        self._step_count = 0
        self._steps = {}
        self._views = []
        self._assigned = {}
        self._fills = []
        self._fill_keys = set()

    def commit_fills(self) -> None:
        """Park the executed batch's finished bitmaps in the result cache.

        Must run *after* the executor ran the batch — the recorded vectors
        only hold result data post-execution.  Each fill carries its
        column's plan-time write generation, so the cache bypasses one a
        same-batch write (lowered after the read) has made stale.
        """
        cache = self.result_cache
        if cache is not None:
            for key, index, column, vector, packed_bytes, generation in self._fills:
                cache.put(key, index, column, vector.data[:packed_bytes], generation)
        self._fills = []

    def invalidate_writes(
        self,
        index: Any,
        columns: Optional[Iterable[str]] = None,
        invalidate_all: bool = False,
    ) -> int:
        """Drop batch-local CSE entries a write just made stale.

        The cross-batch :class:`ResultCache` is protected at two points
        (invalidation at write lowering, generation guards at fill commit),
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
        primitives: List[Primitive],
        priced: Optional[_PricedChain] = None,
    ) -> LoweredGroup:
        """Lower one conjunction into the open batch's shared DAG.

        Appends the request's fresh sub-chains to ``primitives`` and
        returns the :class:`LoweredGroup` carrying its cost ledger and
        finalize.  ``priced`` is the request's interned planner entry
        (looked up when not given); it keeps the request's :meth:`shape`.
        """
        request = queued.request
        assert isinstance(request, BitmapConjunctionRequest)
        executor = self._executor
        index = request.index
        if priced is None:
            priced = self._planner._priced_chain(request.predicates, index.num_rows)
        shape = priced.canonical
        if shape is None:
            shape = priced.canonical = self.shape(request)
        plan_total = shape.plan_total
        packed_bytes = shape.packed_bytes
        pkeys, whole = shape.keys(index)

        own: List[int] = []
        first_step = self._step_count
        cache_hits = cache_misses = 0
        # Request-level CSE: an identical request lowered earlier in this
        # batch — and not overwritten since — already holds every part;
        # ride them and its one host join.
        answer = self._answers.get(whole)
        if answer is not None:
            shared = len(answer.parts)
        else:
            parts, shared, cache_hits, cache_misses = self._lower_parts(
                index, shape, pkeys, primitives, own
            )
            share = priced.stamp(index, shape.dep_columns, executor.sanitize)  # after repairs
            answer = self._answers[whole] = _Answer(parts, packed_bytes, share)
            self._node_columns[whole] = (id(index), frozenset(shape.dep_columns))

        # The parts are joined host-side, charged as a pairwise merge tree
        # to every request (the modeled host merges per request even when
        # the simulator joins once).
        host_join_ops = len(answer.parts) - 1
        host_merge_ns = host_join_ops.bit_length() * MERGE_NS_PER_OP if host_join_ops else 0.0
        deps = answer.producers
        if own:
            mine = set(own)
            deps = tuple(i for i in deps if i not in mine)
        ops_eliminated = plan_total - (self._step_count - first_step) - host_join_ops

        if executor.sanitize:
            own_steps = tuple(range(first_step, self._step_count))
            cone = {i for node in answer.parts for i in node.cone}
            self._views.append(
                OptimizedRequestView(
                    predicates=request.predicates,
                    num_rows=index.num_rows,
                    plan_total=plan_total,
                    own_indices=own_steps,
                    dep_indices=tuple(sorted(cone.difference(own_steps))),
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
        primitives: List[Primitive],
        own: List[int],
    ) -> Tuple[Tuple[_Node, ...], int, int, int]:
        """Find or emit the nodes a conjunction's result joins from, one
        per predicate sub-chain.

        Appends fresh sub-chains to ``primitives`` (their indices to
        ``own``); returns ``(part nodes, shared sub-chains, cache hits,
        cache misses)``.
        """
        executor = self._executor
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
        parts: List[_Node] = []
        for pkey, (column, values), columns in zip(pkeys, shape.predicates, shape.columns):
            node = self._cache.get(pkey)
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
                    node = self._emit_predicate(index, column, values, offset, primitives, own)
                    if node.producer is not None:
                        # A multi-value OR chain is worth re-serving from
                        # host memory; a bare bitmap is already a zero-op
                        # source.
                        self._record_fill(pkey, index, column, node.vector, packed_bytes)
                self._cache[pkey] = node
                self._node_columns[pkey] = (index_id, columns)
            parts.append(node)
        return tuple(parts), shared, cache_hits, cache_misses

    # ------------------------------------------------------------------
    # Cross-batch result cache (consult / fill)
    # ------------------------------------------------------------------
    def _cached_node(
        self, key: Key, index: Any, num_rows: int, row_size: int
    ) -> Optional[_Node]:
        """A source node preloaded from the result cache, or None.

        The cache hands out its stored read-only bitmap, which the node's
        vector wraps as its storage, so the node is an ordinary *source*
        to the batch DAG: produced by no step, shareable by CSE,
        lint-clean under the cone-closure check.
        """
        cache = self.result_cache
        if cache is None:
            return None
        data = cache.get(key, index)
        if data is None:
            return None
        return _Node(vector=source_vector(data, num_rows, row_size), cone=(), producer=None)

    def _record_fill(
        self,
        key: Key,
        index: Any,
        column: str,
        vector: BulkBitVector,
        packed_bytes: int,
    ) -> None:
        """Queue a finished sub-chain for the post-execution cache fill,
        stamped with its column's plan-time write generation."""
        cache = self.result_cache
        if cache is None or key in self._fill_keys:
            return
        self._fill_keys.add(key)
        self._fills.append(
            (key, index, column, vector, packed_bytes, cache.write_epoch(index, (column,)))
        )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit_predicate(
        self,
        index: Any,
        column: str,
        values: Tuple[int, ...],
        offset: int,
        primitives: List[Primitive],
        own: List[int],
    ) -> _Node:
        """Emit one predicate's OR chain at ``offset`` as one
        :class:`BoundChain`; returns its node (a source node, emitting
        nothing, for a single value).

        The chain is the planner's interned one-predicate shape, bound
        and priced like a plain conjunction's.  ``values`` arrive sorted
        (the canonical key's order), so identical value multisets bind
        one shape.
        """
        planner = self._planner
        priced = planner._priced_chain(((column, values),), index.num_rows)
        steps, vector = priced.chain.bind(index)
        if not steps:
            return _Node(vector=vector, cone=(), producer=None)
        planner._price_steps(priced)
        producer = len(primitives)
        primitives.append(
            BoundChain(
                steps, offset, priced.prices, priced.latencies, priced.serial, priced.chain.rows
            )
        )
        own.append(producer)
        first = self._step_count
        self._step_count += len(steps)
        if self._executor.sanitize:
            for number, step in enumerate(steps, first):
                self._steps[number] = step
        self._assigned[offset] = self._assigned.get(offset, 0.0) + sum(priced.latencies)
        return _Node(vector=vector, cone=tuple(range(first, self._step_count)), producer=producer)

    # ------------------------------------------------------------------
    # Lane choice
    # ------------------------------------------------------------------
    def _choose_offset(self, executor: Any, base: int, rows: int) -> int:
        """Cheapest-horizon bank offset for a fresh sub-chain.

        Candidates are the request's :data:`MAX_SPLIT_LANES` offsets starting
        at its index's stable offset; each is priced as its lanes' busy
        horizon (:meth:`LaneSchedule.lane_load_ns`; 0 for a barrier
        executor) plus the latency already assigned to it this batch.
        """
        banks: int = executor.banks_available()
        span = min(MAX_SPLIT_LANES, banks)
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
