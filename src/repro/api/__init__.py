"""The unified client API: sessions, futures, and the shared plan IR.

``repro.api`` is the one stable surface callers program against,
whatever executes underneath:

* :class:`PimSession` — ``submit`` takes the request dataclasses of
  :mod:`repro.service.requests` / :mod:`repro.storage.requests` (the one
  request vocabulary; ``scan`` / ``conjunction`` / ``range_count`` /
  ``append`` / ``update`` / ``delete`` are sugar that builds them),
  :class:`Future` handles, one :class:`Response` shape, one
  :class:`SessionReport` roll-up;
* :class:`Backend` — the ``offer`` / ``advance_to`` / ``drain`` /
  ``result`` protocol every tier speaks
  (:class:`~repro.service.frontend.ServiceFrontend`,
  :class:`~repro.cluster.frontend.ClusterFrontend`, and the serial
  :class:`HostBackend` baseline);
* :mod:`repro.api.plans` — the shared chain lowering both tiers run:
  a conjunction's shape is compiled once
  (:class:`~repro.api.plans.CompiledChain`) and bound per request;
  :func:`lower_conjunction_steps` is both in one call.

The exported names below are pinned by ``tests/test_api_surface.py``;
additions are deliberate API growth, removals are breaking changes.
"""

from repro.api.backends import Backend, HostBackend
from repro.api.plans import lower_conjunction_steps
from repro.api.session import (
    ClusterDetails,
    Future,
    HostDetails,
    PimSession,
    RequestFailed,
    RequestRejected,
    Response,
    ResponseDetails,
    ServiceDetails,
    SessionReport,
    ShardUnavailable,
)
from repro.service.requests import SCAN_KINDS

__all__ = [
    "Backend",
    "ClusterDetails",
    "Future",
    "HostBackend",
    "HostDetails",
    "PimSession",
    "RequestFailed",
    "RequestRejected",
    "Response",
    "ResponseDetails",
    "SCAN_KINDS",
    "ServiceDetails",
    "SessionReport",
    "ShardUnavailable",
    "lower_conjunction_steps",
]
