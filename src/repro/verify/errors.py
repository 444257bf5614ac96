"""Typed error hierarchy of the static verification layer.

Every checker in :mod:`repro.verify` rejects ill-formed input by raising a
subclass of :class:`VerifyError`, so callers (and tests) can tell *which*
invariant broke without parsing messages: plan-structure defects raise
:class:`PlanVerifyError` subclasses, schedule defects raise
:class:`ScheduleVerifyError` subclasses.  Each error carries a free-form
``details`` mapping naming the offending step/placement/lane so reports
can render the finding without re-deriving it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class VerifyError(Exception):
    """Base of every static-verification rejection.

    Args:
        message: Human-readable description of the violated invariant.
        details: Structured context (step index, lane key, expected vs
            observed values) for reports and debugging.
    """

    def __init__(self, message: str, details: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.details: Dict[str, Any] = dict(details or {})

    #: Short rule identifier (stable across message wording changes).
    rule = "verify"


# ----------------------------------------------------------------------
# Plan-structure defects (repro.verify.plan_lint)
# ----------------------------------------------------------------------
class PlanVerifyError(VerifyError):
    """A lowered plan/chain violates a structural invariant."""

    rule = "plan"


class ChainCycleError(PlanVerifyError):
    """A step consumes an operand produced only by a later step (or by
    itself) — the dependency chain is not acyclic/topologically ordered."""

    rule = "chain-cycle"


class DanglingOperandError(PlanVerifyError):
    """A step's operand is neither a source plane nor an earlier step's
    output, or an output vector is produced more than once."""

    rule = "dangling-operand"


class WidthMismatchError(PlanVerifyError):
    """Operand widths or row padding disagree along the chain."""

    rule = "width-mismatch"


class CostModelMismatchError(PlanVerifyError):
    """The chain's step count (or per-op breakdown) disagrees with the
    :class:`~repro.database.bitmap_index.BitmapPlan` cost model."""

    rule = "cost-model-mismatch"


class ScatterCoverageError(PlanVerifyError):
    """The shard-local sub-chains of a scattered conjunction do not cover
    the full predicate set exactly once."""

    rule = "scatter-coverage"


class WritePlanError(PlanVerifyError):
    """A lowered write's charged maintenance disagrees with its declared
    outcome: plane-op count vs planes charged, charged columns outside the
    index, a lazy column charged device ops, or a scattered write whose
    parts drop or invent charged columns."""

    rule = "write-plan"


class CacheConsistencyError(PlanVerifyError):
    """A live result-cache entry violates a consistency invariant: it
    depends on a column whose planes are dirty, records a row count the
    index no longer has, or stores a bitmap of the wrong packed length."""

    rule = "cache-consistency"


class IndexPartitionError(PlanVerifyError):
    """A written column's value planes no longer partition the table's
    rows: two planes share a row, a row is in none, or a plane differs
    from the rows the table holds that code in."""

    rule = "index-partition"


class SharedAnswerError(PlanVerifyError):
    """An answer handed out again (its write generation unchanged) differs
    from the result the current batch computed for the same question."""

    rule = "shared-answer"


class FailoverError(PlanVerifyError):
    """A failover re-offer targets the failed/draining shard itself or a
    shard that is not routable — migrated work would land right back on
    a dead queue."""

    rule = "failover"


# ----------------------------------------------------------------------
# Schedule defects (repro.verify.schedule_check)
# ----------------------------------------------------------------------
class ScheduleVerifyError(VerifyError):
    """A lane schedule violates a hazard/causality/accounting invariant."""

    rule = "schedule"


class LaneHazardError(ScheduleVerifyError):
    """Two placements overlap in time on one lane (a bank race)."""

    rule = "lane-hazard"


class CausalityError(ScheduleVerifyError):
    """A placement starts before its release, finishes before it starts,
    drifts from the deterministic replay of its schedule, or completes
    past the batch-synchronous barrier bound."""

    rule = "causality"


class AccountingError(ScheduleVerifyError):
    """The schedule's busy/union/overlap accounting does not reconcile
    with the placements in its interval log."""

    rule = "accounting"
