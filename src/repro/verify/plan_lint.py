"""Static linter for lowered query plans (conjunction chains, scatters).

Every tier lowers conjunctions through one path —
:func:`repro.api.plans.lower_conjunction_steps` — and until now the only
thing certifying a lowered chain was *dynamic*: property tests compare
sampled functional results against the host evaluation.  This module
checks the structural invariants **statically**, before a single step
executes, so plan-rewriting passes (CSE, sub-chain splitting, shard
re-placement) can be certified independently of what they compute:

* **Topology** — the step chain is acyclic and topologically ordered:
  every operand is either a *source* vector (a materialized bitmap plane)
  or the output of an earlier step; every output is produced exactly once
  and never feeds its own step.
* **Widths** — every vector in the chain carries exactly the conjunction's
  row count and the target device's row padding, end to end.
* **Cost model** — the chain's step count and per-op breakdown match the
  :class:`~repro.database.bitmap_index.BitmapPlan` the plan-level cost
  model charges (the invariant the property tests pin only dynamically),
  and match what the predicate set itself implies (``len(values) - 1``
  ORs per predicate, ``len(predicates) - 1`` ANDs).
* **Scatter coverage** — the shard-local sub-conjunctions of a scattered
  request cover the full predicate set exactly once: no predicate
  dropped, none applied twice (either would silently corrupt the gather
  AND).

A planner certifies each template once, with the full lint, and each
request's binding of it with :func:`lint_binding`.  All checks raise
typed :class:`~repro.verify.errors.PlanVerifyError` subclasses; a clean
chain returns a :class:`ChainLintReport` summary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ambit.bitvector import BulkBitVector
from repro.database.bitmap_index import BitmapPlan
from repro.verify.errors import (
    CacheConsistencyError,
    ChainCycleError,
    CostModelMismatchError,
    DanglingOperandError,
    FailoverError,
    IndexPartitionError,
    ScatterCoverageError,
    WidthMismatchError,
    WritePlanError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.plans import CompiledChain, SharedSources

#: Bulk bitwise ops a lowered step may carry (the engine's op set).
BULK_OPS = frozenset({"not", "and", "or", "nand", "nor", "xor", "xnor"})

#: A lowered step as produced by ``lower_conjunction_steps``:
#: ``(op, a, b, out)`` over host-only vectors.
ChainStep = Tuple[str, BulkBitVector, Optional[BulkBitVector], BulkBitVector]

#: One predicate: (column, values) — each value contributes an OR operand.
Predicate = Tuple[str, Tuple[int, ...]]


@dataclass
class ChainLintReport:
    """Summary of one clean lowered chain.

    Attributes:
        steps: Steps in the chain.
        sources: Distinct source vectors (materialized bitmap planes)
            the chain consumes.
        op_counts: Steps per op kind.
    """

    steps: int = 0
    sources: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)


def _check_step(
    index: int, step: ChainStep, num_rows: int, produced: Dict[int, int], row_size: Optional[int]
) -> Tuple[List[BulkBitVector], Optional[int]]:
    """Certify one ``(op, a, b, out)`` step: a known op of the right arity
    that does not consume its own output, or an output ``produced`` (vector
    id → step index) by a step that has not executed yet, over vectors
    ``num_rows`` wide and uniformly padded.  Returns the operands no step
    produces (the step's sources) and the padding every later step must
    match (``row_size``, or the first vector's when that was None)."""
    op, a, b, out = step
    if op not in BULK_OPS:
        raise DanglingOperandError(
            f"step {index} carries unknown op {op!r}",
            details={"step": index, "op": op},
        )
    operands = [a] if op == "not" else [a, b]
    if op == "not" and b is not None:
        raise DanglingOperandError(
            f"step {index}: unary 'not' carries a second operand",
            details={"step": index, "op": op},
        )
    if op != "not" and b is None:
        raise DanglingOperandError(
            f"step {index}: binary {op!r} is missing its second operand",
            details={"step": index, "op": op},
        )
    unproduced: List[BulkBitVector] = []
    for operand in operands:
        assert operand is not None
        if operand is out:
            raise ChainCycleError(
                f"step {index} consumes its own output in place",
                details={"step": index, "op": op},
            )
        producer = produced.get(id(operand))
        if producer is None:
            unproduced.append(operand)
        elif producer >= index:
            raise ChainCycleError(
                f"step {index} consumes the output of step {producer}, "
                "which has not executed yet",
                details={"step": index, "producer": producer},
            )
    for vector in (*operands, out):
        assert vector is not None
        if vector.num_bits != num_rows:
            raise WidthMismatchError(
                f"step {index}: operand width {vector.num_bits} != "
                f"conjunction rows {num_rows}",
                details={
                    "step": index,
                    "num_bits": vector.num_bits,
                    "num_rows": num_rows,
                },
            )
        if row_size is None:
            row_size = vector.row_size_bytes
        elif vector.row_size_bytes != row_size:
            raise WidthMismatchError(
                f"step {index}: row padding {vector.row_size_bytes} != "
                f"chain padding {row_size} — charged per-step cost would "
                "diverge from the plan-level model",
                details={
                    "step": index,
                    "row_size_bytes": vector.row_size_bytes,
                    "expected": row_size,
                },
            )
    return unproduced, row_size


def lint_chain(
    steps: Sequence[ChainStep],
    result: BulkBitVector,
    plan: BitmapPlan,
    num_rows: int,
    row_size_bytes: Optional[int] = None,
) -> ChainLintReport:
    """Statically certify one lowered conjunction chain.

    Args:
        steps: The lowered ``(op, a, b, out)`` steps, in execution order.
        result: The chain's final result vector.
        plan: The plan-level cost model the chain must match.
        num_rows: Row count of the conjunction (every vector's width).
        row_size_bytes: Expected row padding of every vector (taken from
            the first vector seen when omitted).

    Returns:
        A :class:`ChainLintReport` when every invariant holds.

    Raises:
        PlanVerifyError: A typed subclass naming the violated invariant.
    """
    produced: Dict[int, int] = {}
    for index, (op, _a, _b, out) in enumerate(steps):
        if id(out) in produced:
            raise DanglingOperandError(
                f"step {index} rewrites the output of step {produced[id(out)]}",
                details={"step": index, "producer": produced[id(out)]},
            )
        produced[id(out)] = index

    sources: Dict[int, BulkBitVector] = {}
    row_size = row_size_bytes
    for index, step in enumerate(steps):
        unproduced, row_size = _check_step(index, step, num_rows, produced, row_size)
        sources.update((id(operand), operand) for operand in unproduced)

    # The final result must be what the chain actually computes: the last
    # step's output, or (for a zero-step chain) a source vector.
    if steps:
        last_out = steps[-1][3]
        if result is not last_out:
            raise DanglingOperandError(
                "chain result is not the last step's output",
                details={"steps": len(steps)},
            )
    if result.num_bits != num_rows:
        raise WidthMismatchError(
            f"result width {result.num_bits} != conjunction rows {num_rows}",
            details={"num_bits": result.num_bits, "num_rows": num_rows},
        )

    # Cost-model agreement: step count and per-op breakdown must match the
    # BitmapPlan exactly — the executor charges per step, the plan-level
    # model per operation, and they may never drift.
    if len(steps) != plan.total_operations:
        raise CostModelMismatchError(
            f"chain has {len(steps)} steps but the plan charges "
            f"{plan.total_operations} operations",
            details={"steps": len(steps), "plan": plan.total_operations},
        )
    if plan.result_bits != num_rows:
        raise CostModelMismatchError(
            f"plan result_bits {plan.result_bits} != conjunction rows {num_rows}",
            details={"result_bits": plan.result_bits, "num_rows": num_rows},
        )
    chain_ops = Counter(op for op, _a, _b, _out in steps)
    plan_ops: Counter = Counter()
    for op, count in plan.operations:
        plan_ops[op] += count
    if chain_ops != plan_ops:
        raise CostModelMismatchError(
            f"chain op breakdown {dict(chain_ops)} != plan breakdown "
            f"{dict(plan_ops)}",
            details={"chain": dict(chain_ops), "plan": dict(plan_ops)},
        )

    return ChainLintReport(
        steps=len(steps), sources=len(sources), op_counts=dict(chain_ops)
    )


def lint_lowered_conjunction(
    predicates: Sequence[Predicate],
    steps: Sequence[ChainStep],
    result: BulkBitVector,
    plan: BitmapPlan,
    num_rows: int,
    row_size_bytes: Optional[int] = None,
) -> ChainLintReport:
    """Certify a lowered conjunction against its *predicate set* too.

    Beyond :func:`lint_chain`, checks that the chain shape is exactly what
    the predicates imply: ``len(values) - 1`` OR steps per predicate and
    ``len(predicates) - 1`` AND steps — so a lowering (or a future
    optimizer pass) that drops or duplicates a predicate's bitmap is
    caught even when its step count happens to match a stale plan.
    """
    report = lint_chain(steps, result, plan, num_rows, row_size_bytes)
    expected_ors = sum(len(values) - 1 for _column, values in predicates)
    expected_ands = len(predicates) - 1
    observed_ors = report.op_counts.get("or", 0)
    observed_ands = report.op_counts.get("and", 0)
    if observed_ors != expected_ors or observed_ands != expected_ands:
        raise CostModelMismatchError(
            f"predicates imply {expected_ors} OR + {expected_ands} AND steps, "
            f"chain has {observed_ors} OR + {observed_ands} AND",
            details={
                "expected": {"or": expected_ors, "and": expected_ands},
                "observed": {"or": observed_ors, "and": observed_ands},
            },
        )
    return report


def lint_binding(
    chain: "CompiledChain", steps: Sequence[ChainStep], result: BulkBitVector, sources: "SharedSources"
) -> None:
    """Certify one request's bind of a template the full lint certified on
    its first bind: each step's op, every operand its slot's vector (a
    source's from ``sources``, the batch's bound-source memo), every output
    fresh, every width and padding the chain's, the result the last output.
    A failing bind goes to the full lint first, so a defect it sees raises
    its typed error; the rest raise DanglingOperandError."""
    problem: Optional[str] = None
    vectors = [sources[slot][1] for slot in chain.sources]
    if len(steps) != len(chain.steps):
        problem = f"{len(steps)} steps bound to a {len(chain.steps)}-step template"
    else:
        for index, (step, (op, a_slot, b_slot)) in enumerate(zip(steps, chain.steps)):
            if step[0] != op or step[1] is not vectors[a_slot] or step[2] is not vectors[b_slot]:
                problem = f"step {index} is not the template's {op!r} over its slots"
                break
            vectors.append(step[3])
    if problem is None:
        num_rows, row_size, sources_end = chain.num_rows, chain.row_size_bytes, len(chain.sources)
        outputs = set(map(id, vectors[sources_end:]))
        if len(outputs) != len(steps) or not outputs.isdisjoint(map(id, vectors[:sources_end])):
            problem = "a step output is not a fresh vector"
        elif result is not vectors[-1]:
            problem = "the result is not the last step's output"
        for vector in vectors:
            if vector.num_bits != num_rows or vector.row_size_bytes != row_size:
                problem = "a vector's width or row padding is not the chain's"
                break
    if problem is not None:
        lint_lowered_conjunction(
            chain.predicates, steps, result, chain.plan(), chain.num_rows, chain.row_size_bytes
        )
        raise DanglingOperandError(f"bind of {chain.predicates}: {problem}")


@dataclass(frozen=True)
class OptimizedRequestView:
    """One request's slice of an optimizer-rewritten batch DAG.

    The batch plan optimizer (:mod:`repro.optimizer`) lowers a whole
    batch's conjunctions into one shared step DAG; this view records, per
    request, everything the linter needs to certify that request's slice
    independently of how the optimizer built it.

    Attributes:
        predicates: The request's (column, values) predicate set.
        num_rows: Row count of the request's result bitmap.
        plan_total: Operations the *unoptimized* plan would charge
            (``len(values) - 1`` ORs per predicate plus
            ``len(predicates) - 1`` ANDs).
        own_indices: Batch-step indices this request emitted (and is
            charged for).
        dep_indices: Batch-step indices of shared sub-chains this request
            consumes but another request owns.
        part_vectors: The vectors the request's finalize reads and
            host-joins, one result per predicate sub-chain.
        host_join_ops: Host-side AND merges the finalize performs
            (``len(part_vectors) - 1``).
        ops_eliminated: Device ops the optimizer removed for this request
            (``plan_total - len(own_indices) - host_join_ops``).
        shared_subchains: Sub-chains served from another request's output.
    """

    predicates: Tuple[Predicate, ...]
    num_rows: int
    plan_total: int
    own_indices: Tuple[int, ...]
    dep_indices: Tuple[int, ...]
    part_vectors: Tuple[BulkBitVector, ...]
    host_join_ops: int
    ops_eliminated: int
    shared_subchains: int = 0


@dataclass
class OptimizedBatchReport:
    """Summary of one clean optimizer-rewritten batch DAG.

    Attributes:
        steps: Device steps in the batch DAG.
        requests: Request views certified.
        shared_steps: Steps consumed by at least one non-owner request.
        ops_eliminated: Total device ops the optimizer removed.
        host_join_ops: Total host-side merge ops across requests.
    """

    steps: int = 0
    requests: int = 0
    shared_steps: int = 0
    ops_eliminated: int = 0
    host_join_ops: int = 0


def lint_optimized_batch(
    steps: Dict[int, ChainStep],
    views: Sequence[OptimizedRequestView],
    row_size_bytes: Optional[int] = None,
) -> OptimizedBatchReport:
    """Statically certify one optimizer-rewritten batch DAG.

    Extends :func:`lint_chain`'s invariants across request boundaries:

    * every step output is produced exactly once and never consumed
      before (or by) the step producing it — batch-step indices are the
      execution order, so an operand's producer must carry a smaller
      index even when producer and consumer belong to different requests;
    * every step is owned by exactly one request, every declared
      dependency is a step some *other* request owns (a shared sub-chain
      output), and a request's own/dep sets are disjoint and
      duplicate-free;
    * walking each request's part vectors back through the DAG reaches
      exactly its ``own + dep`` steps — no dangling shared output, no
      step charged but unused;
    * widths match each owning request's row count, row padding is
      uniform across the batch;
    * the per-request cost ledger balances:
      ``ops_eliminated == plan_total - len(own) - host_join_ops >= 0``
      and ``host_join_ops`` matches the split fan-in, so the batch's
      charged totals are exactly the unoptimized totals net of the
      declared elimination.

    Args:
        steps: Batch-step index → ``(op, a, b, out)``; indices are the
            submission (execution) order of the lowered primitives.
        views: One :class:`OptimizedRequestView` per optimized request.
        row_size_bytes: Expected row padding (taken from the first vector
            seen when omitted).

    Raises:
        PlanVerifyError: A typed subclass naming the violated invariant.
    """
    produced: Dict[int, int] = {}
    for index in sorted(steps):
        out = steps[index][3]
        if id(out) in produced:
            raise DanglingOperandError(
                f"step {index} rewrites the output of step {produced[id(out)]}",
                details={"step": index, "producer": produced[id(out)]},
            )
        produced[id(out)] = index

    # Ownership: every step belongs to exactly one request.
    owner: Dict[int, int] = {}
    for view_index, view in enumerate(views):
        for index in view.own_indices:
            if index not in steps:
                raise DanglingOperandError(
                    f"request {view_index} owns step {index}, which is not "
                    "in the batch",
                    details={"request": view_index, "step": index},
                )
            if index in owner:
                raise DanglingOperandError(
                    f"step {index} is owned by both request {owner[index]} "
                    f"and request {view_index}",
                    details={
                        "step": index,
                        "owners": [owner[index], view_index],
                    },
                )
            owner[index] = view_index
    unowned = sorted(set(steps) - set(owner))
    if unowned:
        raise DanglingOperandError(
            f"steps {unowned} are charged to no request in the batch",
            details={"steps": unowned},
        )

    # Per-step structure, with operands produced before their consumers
    # across request boundaries.
    row_size = row_size_bytes
    for index in sorted(steps):
        num_rows = views[owner[index]].num_rows
        _, row_size = _check_step(index, steps[index], num_rows, produced, row_size)

    shared_steps = 0
    total_eliminated = 0
    total_joins = 0
    for view_index, view in enumerate(views):
        own = set(view.own_indices)
        deps = set(view.dep_indices)
        if len(own) != len(view.own_indices) or len(deps) != len(view.dep_indices):
            raise DanglingOperandError(
                f"request {view_index} lists a step twice",
                details={"request": view_index},
            )
        double = sorted(own & deps)
        if double:
            raise DanglingOperandError(
                f"request {view_index} both owns and depends on steps "
                f"{double} — it would be charged for shared work",
                details={"request": view_index, "steps": double},
            )
        for index in sorted(deps):
            if index not in steps:
                raise DanglingOperandError(
                    f"request {view_index} depends on step {index}, which "
                    "no request in the batch produced",
                    details={"request": view_index, "step": index},
                )
        shared_steps += len(deps)

        # Cone closure: the part vectors must reach exactly own + deps.
        if not view.part_vectors:
            raise DanglingOperandError(
                f"request {view_index} has no result vectors",
                details={"request": view_index},
            )
        cone: set = set()
        stack: List[BulkBitVector] = list(view.part_vectors)
        while stack:
            vector = stack.pop()
            if vector.num_bits != view.num_rows:
                raise WidthMismatchError(
                    f"request {view_index}: result width {vector.num_bits} "
                    f"!= conjunction rows {view.num_rows}",
                    details={
                        "request": view_index,
                        "num_bits": vector.num_bits,
                        "num_rows": view.num_rows,
                    },
                )
            producer = produced.get(id(vector))
            if producer is None or producer in cone:
                continue
            cone.add(producer)
            op, a, b, _out = steps[producer]
            stack.append(a)
            if b is not None:
                stack.append(b)
        if cone != own | deps:
            unreached = sorted((own | deps) - cone)
            undeclared = sorted(cone - (own | deps))
            raise DanglingOperandError(
                f"request {view_index}'s result cone does not match its "
                f"declared steps (charged-but-unused={unreached}, "
                f"consumed-but-undeclared={undeclared})",
                details={
                    "request": view_index,
                    "unreached": unreached,
                    "undeclared": undeclared,
                },
            )

        # Cost ledger: host joins match the split fan-in, and the charged
        # totals are the unoptimized totals net of the declared elimination.
        expected_joins = max(0, len(view.part_vectors) - 1)
        if view.host_join_ops != expected_joins:
            raise CostModelMismatchError(
                f"request {view_index} declares {view.host_join_ops} host "
                f"joins but reads {len(view.part_vectors)} part vectors "
                f"(expected {expected_joins})",
                details={
                    "request": view_index,
                    "declared": view.host_join_ops,
                    "expected": expected_joins,
                },
            )
        expected_eliminated = view.plan_total - len(own) - view.host_join_ops
        if view.ops_eliminated != expected_eliminated or expected_eliminated < 0:
            raise CostModelMismatchError(
                f"request {view_index}'s cost ledger does not balance: "
                f"plan charges {view.plan_total} ops, request owns "
                f"{len(own)} steps + {view.host_join_ops} host joins, "
                f"declares {view.ops_eliminated} eliminated "
                f"(expected {expected_eliminated})",
                details={
                    "request": view_index,
                    "plan_total": view.plan_total,
                    "owned": len(own),
                    "host_join_ops": view.host_join_ops,
                    "declared": view.ops_eliminated,
                    "expected": expected_eliminated,
                },
            )
        total_eliminated += view.ops_eliminated
        total_joins += view.host_join_ops

    return OptimizedBatchReport(
        steps=len(steps),
        requests=len(views),
        shared_steps=shared_steps,
        ops_eliminated=total_eliminated,
        host_join_ops=total_joins,
    )


def check_scatter_coverage(
    predicates: Sequence[Predicate],
    parts: Sequence[Tuple[int, Sequence[Predicate]]],
) -> None:
    """Certify that shard-local sub-chains cover the predicate set exactly.

    Args:
        predicates: The full predicate set of the cluster-level request.
        parts: ``(shard_id, sub_predicates)`` pairs, one per scattered
            sub-request.

    Raises:
        ScatterCoverageError: A predicate is dropped, duplicated, invented,
            or a shard received an empty sub-conjunction.
    """
    scattered: List[Predicate] = []
    for shard_id, sub_predicates in parts:
        if not sub_predicates:
            raise ScatterCoverageError(
                f"shard {shard_id} received an empty sub-conjunction",
                details={"shard": shard_id},
            )
        scattered.extend(sub_predicates)
    if sorted(scattered) != sorted(predicates):
        want = Counter((column, tuple(values)) for column, values in predicates)
        got = Counter((column, tuple(values)) for column, values in scattered)
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        duplicated = sorted(key for key in got if got[key] > want.get(key, 0))
        raise ScatterCoverageError(
            "scattered sub-conjunctions do not cover the predicate set "
            f"exactly once (missing={missing}, extra={extra}, "
            f"duplicated={duplicated})",
            details={
                "missing": missing,
                "extra": extra,
                "duplicated": duplicated,
            },
        )


def check_write_scatter(
    charged: Sequence[str],
    parts: Sequence[Tuple[int, Sequence[str]]],
) -> None:
    """Certify a scattered write's column coverage before any shard runs.

    Unlike read scatter (exactly-once), a *replicated* column legitimately
    appears in several parts — each replica's device pays to maintain its
    copy.  The invariants are: every charged column lands on at least one
    shard, and no part charges a column the write does not affect.

    Args:
        charged: The columns the cluster-level write is charged for.
        parts: ``(shard_id, part_columns)`` pairs, one per scatter part.

    Raises:
        WritePlanError: A charged column is dropped, or a part charges an
            unaffected column.
    """
    want = set(charged)
    covered: set = set()
    for shard_id, columns in parts:
        extra = sorted(set(columns) - want)
        if extra:
            raise WritePlanError(
                f"shard {shard_id}'s write part charges columns {extra} "
                "the write does not affect",
                details={"shard": shard_id, "extra": extra},
            )
        covered.update(columns)
    missing = sorted(want - covered)
    if missing:
        raise WritePlanError(
            f"scattered write drops charged columns {missing} — no shard "
            "would pay their maintenance",
            details={"missing": missing},
        )


def check_failover_reoffer(
    router,
    failed_shard: int,
    target_shards: Sequence[int],
) -> None:
    """Certify a failover migration's targets before the re-offer lands.

    Work cancelled off a failed/draining shard must go to shards that can
    actually serve it: never back to the shard it just left, and never to
    a shard that is itself down, draining, or retired.

    Args:
        router: The cluster's :class:`~repro.cluster.router.ShardRouter`
            (duck-typed — only ``is_routable`` is consulted, keeping this
            module import-free of the cluster package).
        failed_shard: The shard the work was cancelled off.
        target_shards: Shard ids the replacement parts are offered to.

    Raises:
        FailoverError: A target is the failed shard itself or unroutable.
    """
    for shard in target_shards:
        if shard == failed_shard:
            raise FailoverError(
                f"failover re-offer targets the failed shard {shard} itself",
                details={"failed_shard": failed_shard, "target": shard},
            )
        if not router.is_routable(shard):
            raise FailoverError(
                f"failover re-offer targets unroutable shard {shard}",
                details={"failed_shard": failed_shard, "target": shard},
            )


def lint_write_plan(outcome, executor) -> None:
    """Certify one lowered write's charge against its declared outcome.

    ``outcome`` is the :class:`~repro.storage.maintenance.WriteOutcome`
    the planner got back from
    :meth:`~repro.storage.maintenance.MaintenancePolicy.lower_write`, for
    ``executor``'s lanes; the checks pin the ledger the write path reports
    against the primitives it actually charges:

    * the charged columns are a subset of the index's indexed columns;
    * every resolved strategy is ``"eager"`` or ``"lazy"``;
    * the charged plane ops (the steps of the priced-only runs) number the
      declared ``planes_charged`` (and none when every column went lazy);
    * each run runs nothing, sits on ``executor.stable_offset(index)``,
      spans the index's row chunks, and prices every step as
      ``op_cost("or", rows, packed bytes)`` — what a bulk op over one of
      the index's planes is charged;
    * the row-traffic copy is present exactly when ``bytes_moved`` is
      positive, and for exactly that many bytes;
    * appends/deletes declare index-wide invalidation, updates do not.

    Raises:
        WritePlanError: Any of the invariants fails.
    """
    from repro.service.requests import BoundChain, CopyRequest  # local: avoid cycle

    request = outcome.request
    index = request.index
    indexed = set(index.indexed_columns())
    stray = sorted(set(outcome.strategies) - indexed)
    if stray:
        raise WritePlanError(
            f"write charges maintenance for non-indexed columns {stray}",
            details={"columns": stray},
        )
    bad = {c: s for c, s in outcome.strategies.items() if s not in ("eager", "lazy")}
    if bad:
        raise WritePlanError(
            f"write resolved unknown strategies {bad}",
            details={"strategies": bad},
        )
    runs = [p for p in outcome.primitives if type(p) is BoundChain]
    plane_ops = sum(len(run.prices) for run in runs)
    if plane_ops != outcome.planes_charged:
        raise WritePlanError(
            f"write charges {plane_ops} plane ops but declares "
            f"{outcome.planes_charged} planes",
            details={"charged": plane_ops, "declared": outcome.planes_charged},
        )
    if plane_ops and all(s == "lazy" for s in outcome.strategies.values()):
        raise WritePlanError(
            f"lazy-only write still charges {plane_ops} plane ops",
            details={"charged": plane_ops},
        )
    packed = (max(1, index.num_rows) + 7) // 8
    rows = -(-packed // executor.engine.device.geometry.row_size_bytes)
    for run in runs:
        offset, price = executor.stable_offset(index), executor.engine.op_cost("or", rows, packed)
        if run.steps or (run.bank_offset, run.rows) != (offset, rows):
            raise WritePlanError(
                f"plane charge runs {len(run.steps)} steps over {run.rows} rows at offset "
                f"{run.bank_offset} (expected none over {rows} rows at offset {offset})",
                details={"offset": run.bank_offset, "rows": run.rows},
            )
        steps = len(run.prices)
        if run.prices != (price,) * steps or run.latencies != (price.latency_ns,) * steps:
            raise WritePlanError(
                f"plane charge is not priced as {price.name} over {rows} rows",
                details={"expected": price},
            )
    copies = [p for p in outcome.primitives if isinstance(p, CopyRequest)]
    copy_bytes = sum(p.num_bytes for p in copies)
    if (outcome.bytes_moved > 0) != bool(copies) or copy_bytes != outcome.bytes_moved:
        raise WritePlanError(
            f"write declares {outcome.bytes_moved} bytes of row traffic but "
            f"charges {copy_bytes} across {len(copies)} copies",
            details={"declared": outcome.bytes_moved, "charged": copy_bytes},
        )
    expect_all = request.kind in ("append", "delete")
    if outcome.invalidate_all != expect_all:
        raise WritePlanError(
            f"{request.kind} declares invalidate_all={outcome.invalidate_all} "
            f"(expected {expect_all})",
            details={"kind": request.kind, "declared": outcome.invalidate_all},
        )


def lint_cache_consistency(cache, index) -> None:
    """Certify every live cache entry of ``index`` against the index.

    Run by the planner after a write's invalidation (and directly by
    tests): a surviving entry must have been filled at its column's
    current write generation — every write that dirties or rebinds a
    column's planes, or changes the row count, advances it — and store
    exactly the packed byte length of the index's rows.  Either failing
    means a stale bitmap survived the write's eager drop.

    Args:
        cache: The :class:`~repro.cache.ResultCache` to certify.
        index: The index (or shard view) whose entries to check.

    Raises:
        CacheConsistencyError: A live entry violates an invariant.
    """
    packed = (index.num_rows + 7) // 8
    for key, column, generation, nbytes in cache.live_for(index):
        current = index.generation((column,))
        if generation != current:
            raise CacheConsistencyError(
                f"live cache entry {key!r} was filled at generation {generation} of "
                f"column {column!r}, which is now at {current}",
                details={"key": repr(key), "column": column, "entry": generation, "index": current},
            )
        if nbytes != packed:
            raise CacheConsistencyError(
                f"live cache entry {key!r} stores {nbytes} bytes, expected "
                f"{packed} packed bytes for {index.num_rows} rows",
                details={"key": repr(key), "nbytes": nbytes, "expected": packed},
            )


def lint_index_partition(index, columns: Iterable[str]) -> None:
    """Certify that each clean written column's value planes partition the
    table's rows: pairwise disjoint, covering exactly ``num_rows`` rows,
    each equal to the packed ``table.column == value``.  Run after a
    write's mutation under ``sanitize`` (by the planner beside
    :func:`lint_cache_consistency`, and by the cluster coordinator's
    commit).  A dirty, lazily-deferred column is skipped: its next read
    rebuilds it from the table.

    Raises:
        IndexPartitionError: A plane is mis-sized, shares rows with a lower
            code's, or differs from the table; or the planes miss a row.
    """
    dirty = set(index.dirty_columns())
    for column in columns:
        if column in dirty:
            continue
        codes = index.table.column(column)
        seen = np.zeros((index.num_rows + 7) // 8, dtype=np.uint8)
        for value, plane in index.bitmaps[column].items():
            if plane.shape != seen.shape:
                problem = f"holds {plane.size} bytes, not {seen.size}"
            elif (seen & plane).any():
                problem = "shares rows with a lower code's plane"
            elif not np.array_equal(plane, np.packbits(codes == value, bitorder="little")):
                problem = "differs from the table's rows of that code"
            else:
                seen |= plane
                continue
            raise IndexPartitionError(
                f"plane {column!r} = {value} {problem}", details={"column": column, "value": value}
            )
        covered = int(np.bitwise_count(seen).sum())
        if covered != index.num_rows:
            raise IndexPartitionError(
                f"the planes of {column!r} cover {covered} of {index.num_rows} rows",
                details={"column": column, "covered": covered},
            )
