"""API-surface snapshot for `repro.api`.

The exported names of the unified client API are the repo's stable
surface: examples, benchmarks, and every future scenario PR program
against them.  This snapshot makes surface changes *deliberate* — adding
a name means extending the snapshot in the same PR; losing one is a
breaking change the suite catches immediately.
"""

import repro.api as api

#: The pinned public surface.  Keep sorted; update deliberately.
EXPECTED_EXPORTS = [
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


def test_api_exports_match_snapshot():
    assert sorted(api.__all__) == EXPECTED_EXPORTS


def test_every_export_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None


def test_session_surface_is_stable():
    """The PimSession methods callers rely on (a minimal shape check, so
    a rename shows up here and not in a downstream example)."""
    for method in (
        "scan",
        "range_count",
        "conjunction",
        "append",
        "update",
        "delete",
        "submit",
        "submit_stream",
        "advance_to",
        "drain",
        "close",
        "report",
        "responses",
        "over_service",
        "over_cluster",
        "over_host",
    ):
        assert callable(getattr(api.PimSession, method)), method


def test_future_and_response_surface_is_stable():
    for attr in ("done", "result", "response", "status", "metrics"):
        assert hasattr(api.Future, attr), attr
    response_fields = set(api.Response.__dataclass_fields__)
    assert {
        "kind",
        "status",
        "value",
        "matching_rows",
        "latency_ns",
        "energy_j",
        "breakdown",
        "wait_ns",
        "sojourn_ns",
        "deadline_missed",
        "details",
    } <= response_fields
