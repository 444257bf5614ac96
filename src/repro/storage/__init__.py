"""``repro.storage`` — the mutation subsystem: first-class write requests
and bitmap-plane maintenance policies.

Writes (:class:`AppendRequest` / :class:`UpdateRequest` /
:class:`DeleteRequest`) flow through the same frontend queue, planner, and
executor as reads; a :class:`MaintenancePolicy` keeps the bitmap-index
planes consistent under three strategies — eager, lazy, hybrid — with the
maintenance work charged as bulk ops on the lanes the index occupies.
See :mod:`repro.storage.requests` and :mod:`repro.storage.maintenance`.
"""

from __future__ import annotations

from repro.storage.maintenance import (
    CODE_BYTES,
    MaintenancePolicy,
    STRATEGIES,
    WriteOutcome,
)
from repro.storage.requests import (
    AppendRequest,
    DeleteRequest,
    UpdateRequest,
    WRITE_KINDS,
    WriteRequest,
    apply_mutation,
    charged_columns,
    check_row_ids,
    is_write_request,
)

__all__ = [
    "AppendRequest",
    "CODE_BYTES",
    "DeleteRequest",
    "MaintenancePolicy",
    "STRATEGIES",
    "UpdateRequest",
    "WRITE_KINDS",
    "WriteOutcome",
    "WriteRequest",
    "apply_mutation",
    "charged_columns",
    "check_row_ids",
    "is_write_request",
]
