"""Static verification layer: plan linter + lane-schedule race detector.

Two independent checkers certify the pipeline's structural invariants
*before/independently of* execution (see :mod:`repro.verify.plan_lint`
and :mod:`repro.verify.schedule_check`), both rejecting via the typed
:class:`VerifyError` hierarchy.  The third sanitizer — the repo-wide AST
invariant lint — lives in ``tools/lint_invariants.py`` because it checks
source text, not runtime objects.
"""

from repro.verify.errors import (
    AccountingError,
    CacheConsistencyError,
    CausalityError,
    ChainCycleError,
    CostModelMismatchError,
    DanglingOperandError,
    FailoverError,
    LaneHazardError,
    PlanVerifyError,
    ScatterCoverageError,
    ScheduleVerifyError,
    SharedAnswerError,
    VerifyError,
    WidthMismatchError,
    WritePlanError,
)
from repro.verify.plan_lint import (
    ChainLintReport,
    OptimizedBatchReport,
    OptimizedRequestView,
    check_failover_reoffer,
    check_scatter_coverage,
    check_write_scatter,
    lint_binding,
    lint_cache_consistency,
    lint_chain,
    lint_lowered_conjunction,
    lint_optimized_batch,
    lint_write_plan,
)
from repro.verify.schedule_check import (
    ScheduleCheckReport,
    ScheduleSanitizer,
    check_schedule,
)

__all__ = [
    "AccountingError",
    "CacheConsistencyError",
    "CausalityError",
    "ChainCycleError",
    "ChainLintReport",
    "CostModelMismatchError",
    "DanglingOperandError",
    "FailoverError",
    "LaneHazardError",
    "OptimizedBatchReport",
    "OptimizedRequestView",
    "PlanVerifyError",
    "ScatterCoverageError",
    "ScheduleCheckReport",
    "ScheduleSanitizer",
    "ScheduleVerifyError",
    "SharedAnswerError",
    "VerifyError",
    "WidthMismatchError",
    "WritePlanError",
    "check_failover_reoffer",
    "check_scatter_coverage",
    "check_schedule",
    "check_write_scatter",
    "lint_binding",
    "lint_cache_consistency",
    "lint_chain",
    "lint_lowered_conjunction",
    "lint_optimized_batch",
    "lint_write_plan",
]
