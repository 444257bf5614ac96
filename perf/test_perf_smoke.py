"""Smoke test of the benchmark harness (collected by the tier-1 command).

Runs all four workloads at 2 % of their stream length, untraced and
traced, and pins what a later change could silently break: the emitted
names match ``BENCHMARK.json``, the virtual clock is deterministic, the
oracle can fail, and the tracing shims leave nothing behind.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from oracle import Oracle  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import SPECS, build  # noqa: E402

from repro.ambit.bitvector import BulkBitVector  # noqa: E402

SCALE = 0.02
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run_all(seed: int, trace: bool, out: Path = None):
    return {
        name: run.run_workload(name, seed, seconds=0.0, trace=trace, scale=SCALE, out=out)
        for name in SPECS
    }


@pytest.fixture(scope="module")
def declared():
    with (HERE.parent / "BENCHMARK.json").open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def untraced():
    return _run_all(7, trace=False)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf_out")
    return _run_all(7, trace=True, out=out), out


def _exact(documents):
    """Everything read on the virtual clock, plus the operation counts."""
    return {
        name: (
            {k: m["value"] for k, m in doc["metrics"].items() if m["clock"] == "virtual"},
            doc["ops"],
        )
        for name, doc in documents.items()
    }


def test_emitted_names_match_benchmark_json(declared, untraced, traced):
    assert [w["name"] for w in declared["workloads"]] == list(SPECS)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    assert "setup_s" in end_to_end
    assert all(NAME.fullmatch(name) for name in [*end_to_end, *per_layer, *SPECS])
    for documents, names in ((untraced, end_to_end), (traced[0], per_layer)):
        for doc in documents.values():
            assert doc["correct"] and doc["ops"]["failed"] == 0
            assert {k: m["unit"] for k, m in doc["metrics"].items()} == names
            line = json.loads(run.contract_line(doc))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert set(line["metrics"]) == set(names)


def test_virtual_clock_is_deterministic_and_seeded(untraced, traced):
    assert _exact(_run_all(7, trace=False)) == _exact(untraced)
    assert _exact(_run_all(7, trace=True)) == _exact(traced[0])
    other = _exact(_run_all(8, trace=False))
    for name, exact in _exact(untraced).items():
        assert other[name] != exact, f"{name}: a different seed must change the stream"


def test_layers_work_only_where_the_workload_sends_traffic(traced):
    documents, out = traced

    def value(name, key):
        return documents[name]["metrics"][key]["value"]

    assert value("svc_plain_conj", "optimizer.calls") == 0
    assert value("svc_plain_conj", "cache.calls") == 0
    assert value("svc_shared_conj", "cache.hits") > 0
    for name in SPECS:
        cluster = name == "cluster_faulted_audited"
        assert (value(name, "storage.writes") > 0) == (name == "svc_mixed_rw")
        assert (value(name, "cluster.frontend.calls") > 0) == cluster
        assert (value(name, "cluster.faults.kills") > 0) == cluster
        assert (value(name, "obs.spans_per_req") > 0) == cluster
        assert (value(name, "verify.overhead_frac") != 0) == cluster
        # Layer self times account for the whole traced region but the
        # harness's own submit loop.
        assert 0.0 <= value(name, "trace.uncovered_frac") <= 0.15
        trace = json.loads((out / f"TRACE_{name}.json").read_text())
        assert trace["fields"] == ["name", "layer", "start_us", "end_us", "parent", "cause"]
        under_shims = sum(layer["self_ms"] for layer in trace["layers"].values())
        assert under_shims <= trace["timed_region_us"] / 1e3
        assert all(span[4] < i for i, span in enumerate(trace["spans"]))


def test_oracle_rejects_a_corrupted_response():
    workload = build(SPECS["svc_mixed_rw"], seed=7, scale=SCALE)
    session, _ = run.open_session(workload)
    oracle = Oracle(workload.events)
    _, responses = run.drive(session, workload.events)
    victim = next(i for i, r in enumerate(responses) if r.kind == "conjunction")
    responses[victim].value = responses[victim].value.copy()
    responses[victim].value[0] ^= 1
    assert oracle.check(responses) == [victim]


def test_shims_restore_what_they_wrapped():
    workload = build(SPECS["cluster_faulted_audited"], seed=7, scale=SCALE)
    session, controller = run.open_session(workload)
    vector_init = BulkBitVector.__init__
    shard = session.backend.shards[0]
    tracer = Tracer()
    tracer.attach(session, workload.events, controller)
    assert "submit" in vars(session) and BulkBitVector.__init__ is not vector_init
    tracer.detach()
    assert BulkBitVector.__init__ is vector_init
    for owner in (session, session.backend, session.backend.router, controller, shard,
                  shard.planner, shard.executor, shard.executor.lanes, shard.executor.engine):
        assert not any(callable(v) and v.__name__ == "shim" for v in vars(owner).values())
    run.drive(session, workload.events)
    assert tracer.spans == []
