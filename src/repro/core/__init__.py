"""User-facing composition layer: the :class:`PIMSystem` and adoption tools.

The paper's final section argues that PIM adoption needs system support:
programming interfaces, runtime scheduling of what to offload, coherence
between PIM logic and the host, and rigorous evaluation infrastructure.
This package is the stack's answer to those needs:

* :class:`repro.core.system.PIMSystem` — one object that composes a host
  CPU, a DRAM (or 3D-stacked) device, the RowClone/Ambit engines, and the
  reporting machinery behind a small, typed API (``bulk_and``, ``copy``,
  ``fill``, ...),
* :mod:`repro.core.offload` — a data-movement-aware offload decision engine
  that chooses between host and PIM execution for a described kernel,
* :mod:`repro.core.coherence` — a LazyPIM-style coherence cost model that
  estimates the overhead of keeping host caches coherent with PIM updates.
"""

from repro.core.coherence import CoherenceModel, CoherencePolicy
from repro.core.offload import ExecutionTarget, KernelDescriptor, OffloadDecision, OffloadPlanner
from repro.core.system import OperationRecord, PIMSystem

__all__ = [
    "CoherenceModel",
    "CoherencePolicy",
    "ExecutionTarget",
    "KernelDescriptor",
    "OffloadDecision",
    "OffloadPlanner",
    "OperationRecord",
    "PIMSystem",
]
