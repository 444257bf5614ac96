"""The shared query-plan IR: one lowering path for every tier.

"How a conjunction becomes primitive bulk operations" lives here and
nowhere else.  :func:`lower_conjunction_steps` expands a
:class:`~repro.service.requests.BitmapConjunctionRequest`'s predicates
into the data-dependent chain of primitive bulk bitwise steps
(:func:`lower_predicate_steps` is one predicate's OR sub-chain, the unit
the batch plan optimizer shares and splits).  Both are duck-typed over
the bitmap source (a full
:class:`~repro.database.bitmap_index.BitmapIndex` or a shard view), so
the single-device planner and every cluster shard run the identical code
path.

The step count of a lowered chain matches the conjunction's
:class:`~repro.database.bitmap_index.BitmapPlan` exactly, so charging
each step at the engine's bulk-operation cost attributes the same total
latency and energy as the plan-level cost model — the invariant the
property tests pin down.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.database.bitmap_index import BitmapPlan

#: One lowered step: ``(op, a, b, out)`` over host-only vectors.
LoweredStep = Tuple[str, BulkBitVector, BulkBitVector, BulkBitVector]


def lower_conjunction_steps(
    index: Any,
    predicates: Sequence[Tuple[str, Sequence[int]]],
    row_size_bytes: int = 8192,
) -> Tuple[List[LoweredStep], BulkBitVector, BitmapPlan]:
    """Lower a conjunction into primitive bulk bitwise steps.

    Each step is ``(op, a, b, out)`` over host-only
    :class:`BulkBitVector` operands: first the OR chain of each
    predicate's value bitmaps, then the AND chain across predicates.
    The steps are data-dependent in order (each ``out`` feeds a later
    operand), so an executor must run them in sequence.  The step count
    matches :meth:`BitmapIndex.evaluate_conjunction`'s
    :class:`BitmapPlan` exactly, so charging each step at the engine's
    bulk-operation cost attributes the same total latency and energy as
    the plan-level cost model.

    Args:
        index: The bitmap source — anything with ``num_rows`` and
            ``bitmap(column, value)``, i.e. a
            :class:`~repro.database.bitmap_index.BitmapIndex` or a
            :class:`~repro.database.sharding.BitmapIndexShardView` (which
            is how every cluster shard lowers exactly like the
            single-device planner).
        predicates: (column, values) pairs.
        row_size_bytes: Row size of the *target device* — the vectors'
            row-chunk count, and therefore the cost the executor
            charges per step, is derived from it.  Callers lowering for
            an engine must pass its device's row size or the charged
            cost diverges from the plan-level model.

    Returns:
        (steps, result vector, plan).  With one single-value predicate
        the step list is empty and the result is the bitmap itself.
    """
    if not predicates:
        raise ValueError("predicates must not be empty")
    num_rows = index.num_rows
    steps: List[LoweredStep] = []
    operations: List[Tuple[str, int]] = []
    partials: List[BulkBitVector] = []
    for column, values in predicates:
        sub_steps, acc = lower_predicate_steps(index, column, values, row_size_bytes)
        steps.extend(sub_steps)
        if sub_steps:
            operations.append(("or", len(sub_steps)))
        partials.append(acc)
    result = partials[0]
    for partial in partials[1:]:
        out = BulkBitVector(num_rows, row_size_bytes)
        steps.append(("and", result, partial, out))
        result = out
    if len(predicates) > 1:
        operations.append(("and", len(predicates) - 1))
    plan = BitmapPlan(operations=operations, result_bits=num_rows)
    return steps, result, plan


def lower_predicate_steps(
    index: Any,
    column: str,
    values: Sequence[int],
    row_size_bytes: int = 8192,
) -> Tuple[List[LoweredStep], BulkBitVector]:
    """Lower one predicate's OR chain: ``col IN values`` as bulk steps.

    The independent sub-chain of one conjunction predicate — this is the
    unit the batch plan optimizer shares across requests (CSE) and spreads
    across bank lanes (sub-chain splitting).  Steps are data-dependent in
    order; with a single value the step list is empty and the result is
    the value's bitmap vector itself.

    Args:
        index: The bitmap source (see :func:`lower_conjunction_steps`).
        column: Predicate column.
        values: The ``IN`` set (must be non-empty).
        row_size_bytes: Row size of the target device.

    Returns:
        (steps, result vector): ``len(values) - 1`` OR steps and the
        vector holding the predicate's result bitmap.
    """
    values = list(values)
    if not values:
        raise ValueError(f"predicate on {column!r} has no values")
    num_rows = index.num_rows
    steps: List[LoweredStep] = []
    acc = _bitmap_vector(index, column, values[0], row_size_bytes)
    for value in values[1:]:
        out = BulkBitVector(num_rows, row_size_bytes)
        steps.append(
            ("or", acc, _bitmap_vector(index, column, value, row_size_bytes), out)
        )
        acc = out
    return steps, acc


def _bitmap_vector(index: Any, column: str, value: int, row_size_bytes: int) -> BulkBitVector:
    """A read-only host-only vector over one value's packed bitmap.

    A plane that already spans whole device rows is adopted as a zero-copy
    view of the index's own array — safe because the index never mutates
    a plane in place (:meth:`BitmapIndex.apply_update` is copy-on-write),
    so the vector keeps the bits it was lowered over even when a write
    lands later in the same batch.  A shorter plane has no whole-row
    storage to alias and is zero-padded into a fresh one.
    """
    packed: np.ndarray = index.bitmap(column, value)
    storage_bytes = -(-packed.size // row_size_bytes) * row_size_bytes
    if packed.size != storage_bytes:
        padded = np.zeros(storage_bytes, dtype=np.uint8)
        padded[: packed.size] = packed
        packed = padded
    view = packed.view()
    view.flags.writeable = False
    return BulkBitVector(index.num_rows, row_size_bytes, data=view)
