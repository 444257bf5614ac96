"""Batch plan optimizer: cross-request CSE and sub-chain splitting.

The passes here rewrite one batch's lowered plans between the
:class:`~repro.service.planner.BatchPlanner` closing the batch and the
:class:`~repro.service.executor.BatchExecutor` dispatching it.  Enable
them with ``optimize=True`` (or ``cache=``, which turns them on) on the
:class:`~repro.api.session.PimSession` constructors — the ``optimize``
field of :class:`~repro.service.config.PipelineConfig`.
"""

from repro.optimizer.canonical import predicate_key
from repro.optimizer.passes import BatchOptimizer

__all__ = [
    "BatchOptimizer",
    "predicate_key",
]
