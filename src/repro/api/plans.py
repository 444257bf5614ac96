"""The shared query-plan IR: one lowering path for every tier.

"How a conjunction becomes primitive bulk operations" lives here and
nowhere else, split into the two halves of a request's life:

* **compile** — :meth:`CompiledChain.compile` turns a predicate set into
  the *shape* of its data-dependent chain: which ``(column, value)``
  bitmaps it reads, which OR/AND step consumes which operand, the
  plan-level operation counts and the sizes every vector will have.  A
  shape depends only on ``(predicates, num_rows, row_size_bytes)``, so a
  planner compiles it once per template and interns it; it holds
  **structure only** — no array, no vector, no index — so a write has
  nothing to invalidate in it.
* **bind** — :meth:`CompiledChain.bind` runs per request: it pulls the
  chain's source planes from the live bitmap source, wraps them as
  read-only operand vectors and allocates a fresh output vector per step.

:func:`lower_conjunction_steps` is ``bind(compile(...))`` in one call.
The batch plan optimizer's unit, one predicate's OR sub-chain, is a
one-predicate shape the planner interns like any other.  Binding is
duck-typed over the bitmap source (a full
:class:`~repro.database.bitmap_index.BitmapIndex` or a shard view), so
the single-device planner and every cluster shard run the identical code
path.

The step count of a chain matches the conjunction's
:class:`~repro.database.bitmap_index.BitmapPlan` exactly, so charging
each step at the engine's bulk-operation cost attributes the same total
latency and energy as the plan-level cost model — the invariant the
property tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.database.bitmap_index import BitmapPlan

#: One lowered step: ``(op, a, b, out)`` over host-only vectors.
LoweredStep = Tuple[str, BulkBitVector, BulkBitVector, BulkBitVector]

#: One source slot of a chain: the ``(column, value)`` bitmap it reads.
SourceSlot = Tuple[str, int]

#: Batch-local memo of bound source operands: slot -> (plane, vector).
SharedSources = Dict[SourceSlot, Tuple[np.ndarray, BulkBitVector]]


@dataclass(frozen=True, slots=True)
class CompiledChain:
    """The shape of one lowered conjunction: structure, no data.

    Vectors of a bound chain are numbered by *slot*: slots
    ``0 .. len(sources) - 1`` are the source bitmaps in read order, slot
    ``len(sources) + i`` is the output of step ``i``.  Steps are
    data-dependent in order (each output feeds a later operand), so an
    executor must run them in sequence; the chain's result is its last
    slot (the single source itself for a zero-step chain).

    Attributes:
        predicates: The normalized ``(column, values)`` pairs.
        num_rows: Rows of the bitmap source (every vector's bit width).
        row_size_bytes: Row size of the *target device*; the row-chunk
            count, and therefore the cost the executor charges per step,
            derives from it.
        sources: The ``(column, value)`` bitmap each source slot reads.
        steps: ``(op, a_slot, b_slot)`` per step: first the OR chain of
            each predicate's value bitmaps, then the AND chain across
            predicates.
        operations: The :class:`BitmapPlan` operation counts.
        rows: Device rows one vector spans (the ``op_cost`` row count).
        packed_bytes: Bytes of one packed result bitmap.
    """

    predicates: Tuple[Tuple[str, Tuple[int, ...]], ...]
    num_rows: int
    row_size_bytes: int
    sources: Tuple[SourceSlot, ...]
    steps: Tuple[Tuple[str, int, int], ...]
    operations: Tuple[Tuple[str, int], ...]
    rows: int
    packed_bytes: int

    @classmethod
    def compile(
        cls,
        predicates: Sequence[Tuple[str, Sequence[int]]],
        num_rows: int,
        row_size_bytes: int = 8192,
    ) -> "CompiledChain":
        """Compile a conjunction's shape (no bitmap is read).

        Args:
            predicates: (column, values) pairs; each contributes an ``IN``.
            num_rows: Rows of the bitmap source the chain will bind to.
            row_size_bytes: Row size of the target device.  Callers
                lowering for an engine must pass its device's row size or
                the charged cost diverges from the plan-level model.
        """
        if not predicates:
            raise ValueError("predicates must not be empty")
        normalized = tuple((column, tuple(values)) for column, values in predicates)
        num_sources = sum(len(values) for _column, values in normalized)
        sources: List[SourceSlot] = []
        steps: List[Tuple[str, int, int]] = []
        operations: List[Tuple[str, int]] = []
        partials: List[int] = []
        for column, values in normalized:
            if not values:
                raise ValueError(f"predicate on {column!r} has no values")
            acc = len(sources)
            sources.append((column, values[0]))
            for value in values[1:]:
                steps.append(("or", acc, len(sources)))
                sources.append((column, value))
                acc = num_sources + len(steps) - 1
            if len(values) > 1:
                operations.append(("or", len(values) - 1))
            partials.append(acc)
        acc = partials[0]
        for partial in partials[1:]:
            steps.append(("and", acc, partial))
            acc = num_sources + len(steps) - 1
        if len(partials) > 1:
            operations.append(("and", len(partials) - 1))
        packed_bytes = (num_rows + 7) // 8
        return cls(
            predicates=normalized,
            num_rows=num_rows,
            row_size_bytes=row_size_bytes,
            sources=tuple(sources),
            steps=tuple(steps),
            operations=tuple(operations),
            rows=max(1, -(-packed_bytes // row_size_bytes)),
            packed_bytes=packed_bytes,
        )

    def plan(self) -> BitmapPlan:
        """The plan-level cost model of the chain (a fresh, mutable copy)."""
        return BitmapPlan(operations=list(self.operations), result_bits=self.num_rows)

    def bind(
        self, index: Any, shared: Optional[SharedSources] = None
    ) -> Tuple[List[LoweredStep], BulkBitVector]:
        """Bind the shape to live bitmaps: ``(steps, result vector)``.

        Every source is read through ``index.bitmap(column, value)`` — the
        call that repairs a lazily-maintained column — and wrapped as a
        read-only operand vector; every step gets a fresh output vector.
        With one single-value predicate the step list is empty and the
        result is the bitmap's vector itself.

        Args:
            index: The bitmap source — anything with ``num_rows`` and
                ``bitmap(column, value)``, i.e. a
                :class:`~repro.database.bitmap_index.BitmapIndex` or a
                :class:`~repro.database.sharding.BitmapIndexShardView`.
            shared: Memo of already-bound source operands, for binding
                several chains of one batch: a source whose plane *is*
                the remembered array reuses the remembered vector.  Plane
                identity is the validity test because planes are
                copy-on-write — a write lowered between two binds rebinds
                the planes it touches, so the later bind sees a different
                array and wraps the post-write bits.  The memo pins its
                vectors: the caller must drop it with the batch.
        """
        num_rows, row_size = self.num_rows, self.row_size_bytes
        if index.num_rows != num_rows:
            raise ValueError(
                f"chain compiled for {num_rows} rows bound to a source of {index.num_rows}"
            )
        if shared is None:
            shared = {}
        vectors: List[BulkBitVector] = []
        for slot in self.sources:
            plane: np.ndarray = index.bitmap(*slot)
            bound = shared.get(slot)
            if bound is None or bound[0] is not plane:
                bound = shared[slot] = (plane, source_vector(plane, num_rows, row_size))
            vectors.append(bound[1])
        steps: List[LoweredStep] = []
        for op, a, b in self.steps:
            out = BulkBitVector(num_rows, row_size)
            steps.append((op, vectors[a], vectors[b], out))
            vectors.append(out)
        return steps, vectors[-1]


def lower_conjunction_steps(
    index: Any,
    predicates: Sequence[Tuple[str, Sequence[int]]],
    row_size_bytes: int = 8192,
) -> Tuple[List[LoweredStep], BulkBitVector, BitmapPlan]:
    """Lower a conjunction into primitive bulk bitwise steps.

    ``bind(compile(...))`` in one call, for callers with no batch to
    share sources across and no planner to intern the shape in.  Each
    step is ``(op, a, b, out)`` over host-only :class:`BulkBitVector`
    operands, data-dependent in order; the step count matches
    :meth:`BitmapIndex.evaluate_conjunction`'s :class:`BitmapPlan`
    exactly.

    Returns:
        (steps, result vector, plan).  With one single-value predicate
        the step list is empty and the result is the bitmap itself.
    """
    chain = CompiledChain.compile(predicates, index.num_rows, row_size_bytes)
    steps, result = chain.bind(index)
    return steps, result, chain.plan()


def source_vector(packed: np.ndarray, num_rows: int, row_size_bytes: int) -> BulkBitVector:
    """A read-only host-only vector over one packed bitmap.

    A bitmap that already spans whole device rows is adopted as a
    zero-copy view of the caller's array: an index plane — safe because
    the index never mutates a plane in place
    (:meth:`BitmapIndex.apply_update` is copy-on-write), so the vector
    keeps the bits it was lowered over even when a write lands later in
    the same batch — or a result-cache hit, which the cache stores
    read-only and never writes.  A shorter bitmap has no whole-row
    storage to alias and is zero-padded into a fresh one.
    """
    storage_bytes = -(-packed.size // row_size_bytes) * row_size_bytes
    if packed.size != storage_bytes:
        padded = np.zeros(storage_bytes, dtype=np.uint8)
        padded[: packed.size] = packed
        packed = padded
    view = packed.view()
    view.flags.writeable = False
    return BulkBitVector(num_rows, row_size_bytes, data=view)
