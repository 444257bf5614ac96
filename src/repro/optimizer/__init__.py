"""Batch plan optimizer: cross-request CSE and sub-chain splitting.

The passes here rewrite one batch's lowered plans between the
:class:`~repro.service.planner.BatchPlanner` closing the batch and the
:class:`~repro.service.executor.BatchExecutor` dispatching it.  Enable
them with ``optimize=True`` (or an explicit :class:`OptimizerConfig`) on
the :class:`~repro.api.session.PimSession` constructors — the
``optimizer`` field of :class:`~repro.service.config.PipelineConfig`,
which is where :class:`OptimizerConfig` is declared (beside the other
pure-data knobs, below the planner that consumes it).
"""

from repro.optimizer.canonical import canonical_key, predicate_key
from repro.optimizer.passes import BatchOptimizer
from repro.service.config import OptimizerConfig

__all__ = [
    "BatchOptimizer",
    "OptimizerConfig",
    "canonical_key",
    "predicate_key",
]
