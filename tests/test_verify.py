"""Tests for the static verification layer (``repro.verify`` + tools).

Three checkers, each tested from both sides:

* **Plan linter** — real lowered conjunction chains pass; hand-built
  known-bad chains (cycle, double-produce, width mismatch, stale cost
  model, dropped predicate, broken scatter) are each rejected with their
  typed :class:`~repro.verify.errors.PlanVerifyError` subclass.
* **Schedule race detector** — honest lane schedules pass (pipelined and
  barrier, service and cluster, with ``sanitize=True`` live on every
  dispatch); tampered interval logs and accounting are each rejected
  with their typed :class:`~repro.verify.errors.ScheduleVerifyError`
  subclass, and the non-raising audit collects every finding.
* **Repo invariant lint / bench schema** — the committed tree is clean,
  a deliberately introduced mutable-default regression fails the lint
  (exit code 1, the CI gate), waivers suppress, and malformed
  ``BENCH_*.json`` payloads are rejected by the schema validator.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.ambit.bitvector import BulkBitVector
from repro.analysis import audit_cluster, audit_executor, render_audit
from repro.api.plans import lower_conjunction_steps
from repro.cluster import ClusterFrontend, ShardRouter
from repro.database.bitmap_index import BitmapIndex, BitmapPlan
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import ColumnTable
from repro.service import (
    ArrivalEvent,
    BitmapConjunctionRequest,
    LaneSchedule,
    PipelineConfig,
    ScanRequest,
    ServiceFrontend,
)
from repro.service.lanes import LanePlacement
from repro.verify import (
    AccountingError,
    CausalityError,
    ChainCycleError,
    CostModelMismatchError,
    DanglingOperandError,
    LaneHazardError,
    ScatterCoverageError,
    VerifyError,
    WidthMismatchError,
    check_scatter_coverage,
    check_schedule,
    lint_chain,
    lint_lowered_conjunction,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_PATH = REPO_ROOT / "tools" / "lint_invariants.py"
VALIDATE_PATH = REPO_ROOT / "tools" / "validate_bench.py"


def _load_tool(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    # Registered before exec: dataclass processing resolves the module's
    # (PEP 563) annotations through sys.modules.
    sys.modules[path.stem] = module
    spec.loader.exec_module(module)
    return module


lint_invariants = _load_tool(LINT_PATH)
validate_bench = _load_tool(VALIDATE_PATH)
check_artifacts_repeat = _load_tool(REPO_ROOT / "tools" / "check_artifacts_repeat.py")


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture
def table() -> ColumnTable:
    rng = np.random.default_rng(7)
    table = ColumnTable("t", 300)
    table.add_column("region", rng.integers(0, 5, size=300))
    table.add_column("status", rng.integers(0, 3, size=300))
    table.add_column("tier", rng.integers(0, 6, size=300))
    return table


@pytest.fixture
def index(table: ColumnTable) -> BitmapIndex:
    return BitmapIndex(table, ["region", "status", "tier"])


PREDICATES = (("region", (1, 2)), ("status", (0, 1)), ("tier", (3,)))


def _lowered(index: BitmapIndex, predicates=PREDICATES, row_size_bytes: int = 8192):
    return lower_conjunction_steps(index, predicates, row_size_bytes=row_size_bytes)


# ----------------------------------------------------------------------
# Plan linter: clean chains pass
# ----------------------------------------------------------------------
class TestPlanLintClean:
    def test_real_lowered_chain_passes(self, index):
        steps, result, plan = _lowered(index)
        report = lint_lowered_conjunction(
            PREDICATES, steps, result, plan, num_rows=index.num_rows
        )
        assert report.steps == len(steps) == plan.total_operations
        assert report.op_counts == {"or": 2, "and": 2}
        # Sources: one bitmap plane per predicate value.
        assert report.sources == sum(len(values) for _c, values in PREDICATES)

    def test_zero_step_identity_chain_passes(self, index):
        predicates = (("tier", (3,)),)
        steps, result, plan = _lowered(index, predicates)
        assert steps == []
        report = lint_lowered_conjunction(
            predicates, steps, result, plan, num_rows=index.num_rows
        )
        assert report.steps == 0

    def test_row_size_pinning(self, index):
        steps, result, plan = _lowered(index, row_size_bytes=64)
        lint_chain(steps, result, plan, num_rows=index.num_rows, row_size_bytes=64)
        with pytest.raises(WidthMismatchError):
            lint_chain(steps, result, plan, num_rows=index.num_rows, row_size_bytes=8192)


# ----------------------------------------------------------------------
# Plan linter: known-bad chains are rejected with typed errors
# ----------------------------------------------------------------------
class TestPlanLintKnownBad:
    def test_cyclic_chain_rejected(self, index):
        steps, result, plan = _lowered(index)
        # Forward reference: first step consumes the last step's output.
        op, _a, b, out = steps[0]
        steps = [(op, steps[-1][3], b, out)] + steps[1:]
        with pytest.raises(ChainCycleError) as excinfo:
            lint_chain(steps, result, plan, num_rows=index.num_rows)
        assert excinfo.value.rule == "chain-cycle"
        assert excinfo.value.details["step"] == 0

    def test_self_consuming_step_rejected(self, index):
        steps, result, plan = _lowered(index)
        op, a, _b, out = steps[1]
        steps = steps[:1] + [(op, a, out, out)] + steps[2:]
        with pytest.raises(ChainCycleError):
            lint_chain(steps, result, plan, num_rows=index.num_rows)

    def test_double_produced_output_rejected(self, index):
        steps, result, plan = _lowered(index)
        op, a, b, _out = steps[1]
        steps = steps[:1] + [(op, a, b, steps[0][3])] + steps[2:]
        with pytest.raises(DanglingOperandError):
            lint_chain(steps, result, plan, num_rows=index.num_rows)

    def test_width_mismatch_rejected(self, index):
        steps, result, plan = _lowered(index)
        op, a, _b, out = steps[0]
        steps = [(op, a, BulkBitVector(index.num_rows + 64), out)] + steps[1:]
        with pytest.raises(WidthMismatchError) as excinfo:
            lint_chain(steps, result, plan, num_rows=index.num_rows)
        assert excinfo.value.rule == "width-mismatch"

    def test_stale_cost_model_rejected(self, index):
        steps, result, plan = _lowered(index)
        stale = BitmapPlan(
            operations=plan.operations + [("or", 1)], result_bits=plan.result_bits
        )
        with pytest.raises(CostModelMismatchError):
            lint_chain(steps, result, stale, num_rows=index.num_rows)

    def test_op_breakdown_mismatch_rejected(self, index):
        steps, result, plan = _lowered(index)
        # Same step count, different breakdown: one OR relabeled as AND.
        swapped = BitmapPlan(operations=[("or", 1), ("and", 3)], result_bits=plan.result_bits)
        assert swapped.total_operations == plan.total_operations
        with pytest.raises(CostModelMismatchError):
            lint_chain(steps, result, swapped, num_rows=index.num_rows)

    def test_dropped_predicate_rejected(self, index):
        # A lowering that silently dropped a predicate, paired with the
        # matching stale plan, passes lint_chain — the conjunction-level
        # check against the *predicate set* is what catches it.
        short = PREDICATES[:2]
        steps, result, plan = _lowered(index, short)
        with pytest.raises(CostModelMismatchError):
            lint_lowered_conjunction(PREDICATES, steps, result, plan, num_rows=index.num_rows)

    def test_wrong_result_vector_rejected(self, index):
        steps, _result, plan = _lowered(index)
        with pytest.raises(DanglingOperandError):
            lint_chain(steps, steps[0][3], plan, num_rows=index.num_rows)

    def test_errors_are_typed_verify_errors(self, index):
        steps, result, plan = _lowered(index)
        stale = BitmapPlan(operations=[], result_bits=plan.result_bits)
        with pytest.raises(VerifyError):
            lint_chain(steps, result, stale, num_rows=index.num_rows)


# ----------------------------------------------------------------------
# Scatter coverage
# ----------------------------------------------------------------------
class TestScatterCoverage:
    def test_exact_cover_passes(self):
        check_scatter_coverage(
            PREDICATES, [(0, PREDICATES[:1]), (1, PREDICATES[1:])]
        )

    def test_dropped_predicate_rejected(self):
        with pytest.raises(ScatterCoverageError) as excinfo:
            check_scatter_coverage(PREDICATES, [(0, PREDICATES[:2])])
        assert excinfo.value.details["missing"]

    def test_duplicated_predicate_rejected(self):
        with pytest.raises(ScatterCoverageError) as excinfo:
            check_scatter_coverage(
                PREDICATES, [(0, PREDICATES), (1, PREDICATES[:1])]
            )
        assert excinfo.value.details["duplicated"]

    def test_empty_part_rejected(self):
        with pytest.raises(ScatterCoverageError):
            check_scatter_coverage(PREDICATES, [(0, PREDICATES), (1, ())])


# ----------------------------------------------------------------------
# Schedule race detector: honest schedules pass
# ----------------------------------------------------------------------
def _honest_schedule() -> LaneSchedule:
    lanes = LaneSchedule(["a", "b"])
    lanes.open_batch()
    lanes.place(["a"], 100.0, release_ns=0.0)
    lanes.place(["b"], 60.0, release_ns=0.0)
    lanes.place(["a", "b"], 40.0, release_ns=0.0)
    lanes.open_batch()
    lanes.place(["b"], 30.0, release_ns=50.0)
    return lanes


class TestScheduleCheckClean:
    def test_honest_schedule_passes(self):
        report = check_schedule(_honest_schedule())
        assert report.ok
        assert report.placements == 4
        assert report.batches == 2
        assert report.lanes == 2

    def test_empty_schedule_passes(self):
        assert check_schedule(LaneSchedule(["a"])).ok

    def test_host_lane_and_multi_lane_requests_pass(self):
        lanes = LaneSchedule(["a", "b", "c"])
        lanes.open_batch()
        lanes.place(["host"], 10.0)
        lanes.place(["a", "b", "c"], 25.0)
        lanes.place(["host"], 5.0)
        assert check_schedule(lanes).ok


# ----------------------------------------------------------------------
# Schedule race detector: tampered logs/accounting are rejected
# ----------------------------------------------------------------------
def _tamper(lanes: LaneSchedule, position: int, **changes) -> LaneSchedule:
    lanes.log[position] = replace(lanes.log[position], **changes)
    return lanes


class TestScheduleCheckKnownBad:
    def test_overlapping_lane_intervals_rejected(self):
        lanes = _honest_schedule()
        # Pull the second lane-a placement into the first one's interval.
        _tamper(lanes, 2, start_ns=50.0, finish_ns=90.0)
        with pytest.raises(LaneHazardError) as excinfo:
            check_schedule(lanes)
        assert excinfo.value.rule == "lane-hazard"

    def test_start_before_release_rejected(self):
        lanes = LaneSchedule(["a"])
        lanes.open_batch()
        lanes.place(["a"], 10.0, release_ns=100.0)
        _tamper(lanes, 0, release_ns=200.0)
        with pytest.raises(CausalityError):
            check_schedule(lanes)

    def test_finish_latency_disagreement_rejected(self):
        lanes = LaneSchedule(["a"])
        lanes.open_batch()
        lanes.place(["a"], 10.0)
        _tamper(lanes, 0, finish_ns=25.0)
        with pytest.raises(CausalityError):
            check_schedule(lanes)

    def test_negative_latency_rejected(self):
        lanes = LaneSchedule(["a"])
        lanes.open_batch()
        lanes.place(["a"], 10.0)
        _tamper(lanes, 0, latency_ns=-10.0)
        with pytest.raises(CausalityError):
            check_schedule(lanes)

    def test_schedule_drift_rejected(self):
        lanes = _honest_schedule()
        # Unforced idle: the log claims a later start than the replay.
        last = lanes.log[-1]
        _tamper(lanes, 3, start_ns=last.start_ns + 500.0, finish_ns=last.finish_ns + 500.0)
        with pytest.raises(CausalityError) as excinfo:
            check_schedule(lanes)
        assert "drift" in str(excinfo.value)

    def test_busy_union_tamper_rejected(self):
        lanes = _honest_schedule()
        lanes.busy_union_ns += 7.0
        with pytest.raises(AccountingError):
            check_schedule(lanes)

    def test_per_lane_busy_tamper_rejected(self):
        lanes = _honest_schedule()
        lanes.busy["a"] += 3.0
        with pytest.raises(AccountingError) as excinfo:
            check_schedule(lanes)
        assert excinfo.value.details["lane"] == "a"

    def test_request_count_tamper_rejected(self):
        lanes = _honest_schedule()
        lanes.requests += 1
        with pytest.raises(AccountingError):
            check_schedule(lanes)

    def test_overlap_tamper_rejected_on_pipelined_schedule(self):
        lanes = _honest_schedule()
        lanes.batches = 2  # marks the schedule as persistent/pipelined
        lanes.cross_batch_overlap_ns = 123.0
        with pytest.raises(AccountingError):
            check_schedule(lanes)

    def test_collect_mode_gathers_all_findings(self):
        lanes = _honest_schedule()
        last = lanes.log[-1]
        _tamper(lanes, 3, start_ns=last.start_ns + 500.0, finish_ns=last.finish_ns + 500.0)
        report = check_schedule(lanes, raise_on_error=False)
        assert not report.ok
        rules = {v.rule for v in report.violations}
        # Drift, the barrier completion bound, and the horizon accounting
        # all disagree with the tampered entry.
        assert "causality" in rules and "accounting" in rules
        assert any("barrier bound" in str(v) for v in report.violations)

    def test_incremental_checker_flags_only_new_batches(self):
        from repro.verify import ScheduleSanitizer

        lanes = LaneSchedule(["a"])
        sanitizer = ScheduleSanitizer()
        lanes.open_batch()
        lanes.place(["a"], 10.0)
        assert sanitizer.check(lanes).ok
        lanes.open_batch()
        lanes.place(["a"], 10.0)
        lanes.log.append(
            LanePlacement(
                lanes=("a",), latency_ns=5.0, release_ns=0.0,
                start_ns=2.0, finish_ns=7.0, batch_index=2,
            )
        )
        with pytest.raises(LaneHazardError):
            sanitizer.check(lanes)


# ----------------------------------------------------------------------
# sanitize=True live on real workloads (service + cluster, both modes)
# ----------------------------------------------------------------------
def _workload(table: ColumnTable, index: BitmapIndex):
    column = BitWeavingColumn.from_table(table, "tier")
    events = []
    t = 0.0
    for i in range(10):
        events.append(
            ArrivalEvent(
                arrival_ns=t,
                request=ScanRequest(column=column, kind="less_equal", constants=(3,)),
            )
        )
        events.append(
            ArrivalEvent(
                arrival_ns=t,
                request=BitmapConjunctionRequest(index=index, predicates=PREDICATES),
            )
        )
        t += 400.0
    return events


class TestSanitizeKnob:
    @pytest.mark.parametrize("pipeline", [True, False])
    def test_service_tier_clean_under_sanitize(self, table, index, pipeline):
        frontend = ServiceFrontend(PipelineConfig(pipeline=pipeline, sanitize=True))
        result = frontend.run(_workload(table, index))
        assert len(result.completed()) == 20
        # Same workload without the sanitizer: identical results (the
        # checker is read-only).
        baseline = ServiceFrontend(PipelineConfig(pipeline=pipeline))
        expected = baseline.run(_workload(table, index))
        for got, want in zip(result.completed(), expected.completed()):
            assert np.array_equal(got.value, want.value)

    @pytest.mark.parametrize("pipeline", [True, False])
    def test_cluster_tier_clean_under_sanitize(self, table, index, pipeline):
        cluster = ClusterFrontend(
            num_shards=3,
            config=PipelineConfig(pipeline=pipeline, sanitize=True),
            router=ShardRouter(3),
        )
        result = cluster.run(_workload(table, index))
        assert len(result.completed()) == 20
        for record in result.completed():
            if isinstance(record.request, BitmapConjunctionRequest):
                expected, _ = index.evaluate_conjunction(list(record.request.predicates))
                assert np.array_equal(record.value, expected)

    def test_audit_report_over_sanitized_run(self, table, index):
        frontend = ServiceFrontend(PipelineConfig(pipeline=True, sanitize=True))
        executor = frontend.executor
        frontend.run(_workload(table, index))
        audit = audit_executor(executor)
        assert audit.ok and audit.report.placements == executor.lanes.requests
        rendered = render_audit([audit])
        assert "ok" in rendered and "executor" in rendered

    def test_audit_report_over_cluster(self, table, index):
        cluster = ClusterFrontend(num_shards=2, config=PipelineConfig(sanitize=True))
        cluster.run(_workload(table, index))
        audits = audit_cluster(cluster)
        assert len(audits) == 2 and all(a.ok for a in audits)

    def test_audit_collects_violations_without_raising(self):
        lanes = _honest_schedule()
        lanes.busy_union_ns += 11.0
        from repro.analysis import audit_schedule

        audit = audit_schedule(lanes, name="tampered")
        assert not audit.ok
        assert "violation" in render_audit([audit])


# ----------------------------------------------------------------------
# Repo invariant lint (tools/lint_invariants.py)
# ----------------------------------------------------------------------
class TestInvariantLint:
    def test_committed_tree_is_clean(self):
        findings = lint_invariants.collect_findings([REPO_ROOT / "src" / "repro"])
        assert findings == []

    def test_mutable_default_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Config:\n"
            "    items: list = []\n"
        )
        findings = lint_invariants.lint_source(source, "bad.py")
        assert [f.rule for f in findings] == ["mutable-default"]

    def test_shared_call_default_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Config:\n"
            "    stats: dict = dict()\n"
        )
        assert [f.rule for f in lint_invariants.lint_source(source, "bad.py")] == [
            "mutable-default"
        ]

    def test_field_default_factory_not_flagged(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Config:\n"
            "    items: list = field(default_factory=list)\n"
            "    count: int = 0\n"
        )
        assert lint_invariants.lint_source(source, "good.py") == []

    def test_field_mutable_default_flagged(self):
        source = (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Config:\n"
            "    items: list = field(default=[])\n"
        )
        assert [f.rule for f in lint_invariants.lint_source(source, "bad.py")] == [
            "mutable-default"
        ]

    def test_wall_clock_imports_flagged(self):
        source = "import time\nfrom random import random\n"
        rules = [f.rule for f in lint_invariants.lint_source(source, "bad.py")]
        assert rules == ["wall-clock", "wall-clock"]

    def test_numpy_random_not_flagged(self):
        source = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert lint_invariants.lint_source(source, "good.py") == []

    def test_frozen_mutation_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: int = 0\n"
            "    def move(self) -> None:\n"
            "        self.x = 1\n"
        )
        assert [f.rule for f in lint_invariants.lint_source(source, "bad.py")] == [
            "frozen-mutation"
        ]

    def test_object_setattr_idiom_not_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Point:\n"
            "    x: int = 0\n"
            "    def __post_init__(self) -> None:\n"
            "        object.__setattr__(self, 'x', 1)\n"
        )
        assert lint_invariants.lint_source(source, "good.py") == []

    def test_export_drift_flagged(self):
        source = "__all__ = ['missing', 'present', 'present']\npresent = 1\n"
        rules = sorted(f.rule for f in lint_invariants.lint_source(source, "bad.py"))
        assert rules == ["export-drift", "export-drift"]

    _PLANE_WRITES = (
        "import numpy as np\n"
        "def clear(self, column, value, sel):\n"
        "    plane = self.bitmaps[column][value]\n"
        "    np.bitwise_and.at(plane, sel // 8, 0)\n"
        "def set_bits(index, column, value, sel):\n"
        "    planes = index.bitmaps[column]\n"
        "    plane = planes[value]\n"
        "    plane[sel] = 1\n"
        "    plane[sel] |= 1\n"
        "    plane |= 1\n"
        "    planes[value][sel] = 1\n"
    )

    def test_plane_aliasing_flagged_in_index_and_storage_modules(self):
        for path in ("src/repro/database/bad.py", "src/repro/storage/bad.py"):
            findings = lint_invariants.lint_source(self._PLANE_WRITES, path)
            assert [(f.rule, f.line) for f in findings] == [
                ("plane-aliasing", line) for line in (4, 8, 9, 10, 11)
            ]
        # The copy-on-write discipline binds only those two packages.
        assert lint_invariants.lint_source(self._PLANE_WRITES, "src/repro/cache/ok.py") == []

    def test_plane_copy_on_write_not_flagged(self):
        source = (
            "import numpy as np\n"
            "def update(self, column, value, sel, packed_len):\n"
            "    planes = self.bitmaps[column]\n"
            "    planes[value] = np.zeros(packed_len, dtype=np.uint8)\n"  # new plane
            "    plane = planes[value] = planes[value].copy()\n"
            "    np.bitwise_or.at(plane, sel // 8, 1)\n"
            "    stale = planes[value]\n"
            "    stale = stale.copy()\n"  # rebinding to a copy clears the alias
            "    stale[sel] = 1\n"
            "    result = self.bitmaps[column][value].copy()\n"
            "    result |= planes[value]\n"
        )
        assert lint_invariants.lint_source(source, "src/repro/database/good.py") == []

    def test_plane_aliasing_waiver(self):
        source = (
            "def poke(planes, value):\n"
            "    planes[value][0] = 1  # lint: allow[plane-aliasing]\n"
        )
        assert lint_invariants.lint_source(source, "src/repro/storage/waived.py") == []

    _KNOB_DRIFT = (
        "from dataclasses import dataclass\n"
        "class Frontend:\n"
        "    def __init__(self, config, policy: 'Optional[BatchPolicy]' = None,\n"
        "                 max_queue_depth=64, *, cache: bool = False): ...\n"
        "    def run(self, functional: bool = False): ...\n"  # per-call, not a knob
        "class Client:\n"
        "    def __init__(self, policy: Optional[BackoffPolicy] = None): ...\n"  # other policy
        "@dataclass\n"
        "class Record:\n"
        "    sanitize: bool = False\n"
        "    priority: int = 0\n"
    )

    def test_knob_drift_flags_redeclared_pipeline_knobs(self):
        knobs = lint_invariants.pipeline_knobs(
            (REPO_ROOT / "src" / "repro" / "service" / "config.py").read_text()
        )
        assert set(knobs) == {f.name for f in dataclasses.fields(PipelineConfig)}
        for package in ("service", "cluster", "api"):
            findings = lint_invariants.lint_source(self._KNOB_DRIFT, f"src/repro/{package}/x.py")
            assert [(f.rule, f.line) for f in findings] == [
                ("knob-drift", 3),
                ("knob-drift", 4),
                ("knob-drift", 4),
                ("knob-drift", 10),
            ]
        # Only the three tiers are in scope, and the config module is exempt.
        assert lint_invariants.lint_source(self._KNOB_DRIFT, "src/repro/optimizer/x.py") == []
        assert lint_invariants.lint_source(self._KNOB_DRIFT, "src/repro/service/config.py") == []

    def test_knob_drift_waivers_sit_only_on_the_executor(self):
        waived = [
            str(path.relative_to(REPO_ROOT))
            for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
            if "allow[knob-drift]" in path.read_text()
        ]
        assert waived == ["src/repro/service/executor.py"]
        source = (REPO_ROOT / waived[0]).read_text().replace("# lint: allow[knob-drift]", "")
        names = [f.message.split("'")[1] for f in lint_invariants.lint_source(source, waived[0])]
        assert names == ["pipeline", "verify_fraction", "verify_seed", "sanitize"]

    # The bodies the rule was written against: the elastic controller's
    # `step` and the cluster frontend's `publish_gauges` as they stood
    # when both decided from the shared registry, plus the hybrid
    # hotness store's read.
    _OBS_READBACK = (
        "def step(self, now_ns):\n"
        "    cluster = self.cluster\n"
        "    cluster.publish_gauges(now_ns)\n"
        "    snapshot = cluster.obs.snapshot()\n"
        "    gauges = snapshot['gauges']\n"
        "    imbalance = gauges.get('cluster.imbalance', 1.0)\n"
        "def publish_gauges(self, at_ns=None):\n"
        "    registry = self.obs.metrics\n"
        "    offered = registry.counter('cluster.offered').value\n"
        "    rejected = registry.counter('cluster.rejected').value\n"
        "    registry.gauge('cluster.rejection_rate').set(\n"
        "        rejected / offered if offered > 0.0 else 0.0\n"
        "    )\n"
        "def reads_of(self, column):\n"
        "    return self._metrics.counter(f'storage.reads.{column}').value\n"
        "def tail(self, registry, obs):\n"
        "    level = registry.gauge('frontend.backlog_ns').value\n"
        "    p99 = self.obs.metrics.histogram('frontend.wait_ns').quantile(99.0)\n"
        "    summary = registry.histogram('frontend.wait_ns').snapshot()\n"
        "    return obs.snapshot(), self.metrics.snapshot(), obs.metrics.snapshot()\n"
    )

    def test_obs_readback_flags_decisions_reading_recordings(self):
        for path in ("src/repro/cluster/x.py", "src/repro/storage/x.py", "repro/api/x.py"):
            findings = lint_invariants.lint_source(self._OBS_READBACK, path)
            assert [(f.rule, f.line) for f in findings] == [
                ("obs-readback", line) for line in (4, 9, 10, 15, 17, 18, 19, 20, 20, 20)
            ]
        # The plane reads itself; benchmarks, examples and tools print it.
        for path in ("src/repro/obs/metrics.py", "benchmarks/bench_x.py", "tools/x.py"):
            assert lint_invariants.lint_source(self._OBS_READBACK, path) == []

    def test_obs_readback_passes_writes_and_owned_state(self):
        source = (
            "def note_read(self, columns):\n"
            "    registry = self._obs.metrics if self._obs.enabled else None\n"
            "    for column in columns:\n"
            "        self._reads[column] = self._reads.get(column, 0.0) + 1.0\n"
            "        if registry is not None:\n"
            "            registry.counter(f'storage.reads.{column}').inc()\n"
            "def publish_gauges(self, at_ns=None):\n"
            "    health = self.health(at_ns)\n"
            "    registry = self.obs.metrics\n"
            "    registry.gauge('cluster.imbalance').set(health.imbalance)\n"
            "    registry.histogram('cluster.sojourn_ns').observe(1.0)\n"
            "    return health\n"
            "def stats(self, record):\n"
            "    return self.cache.snapshot(), record.value, self.result_cache.snapshot()\n"
        )
        assert lint_invariants.lint_source(source, "src/repro/cluster/x.py") == []

    def test_obs_readback_waiver_sits_only_on_the_session_report(self):
        waived = [
            str(path.relative_to(REPO_ROOT))
            for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
            if "allow[obs-readback]" in path.read_text()
        ]
        assert waived == ["src/repro/api/session.py"]
        source = (REPO_ROOT / waived[0]).read_text()
        assert source.count("allow[obs-readback]") == 1
        findings = lint_invariants.lint_source(
            source.replace("# lint: allow[obs-readback]", ""), waived[0]
        )
        assert [f.rule for f in findings] == ["obs-readback"]
        # ...and it is the report, not a decision.
        line = source.splitlines()[findings[0].line - 1]
        assert "obs=self.obs.snapshot()" in line

    # A module that rejects and completes inline, the way `offer` and
    # `serve_batch` did before each tier had one door per outcome.
    _TERMINAL_WRITES = (
        "def offer(self, queued):\n"
        "    if len(self._heap) >= self.max_queue_depth:\n"
        "        queued.admitted = False\n"
        "        queued.rejected_reason = 'queue_full'\n"
        "    queued.start_ns = self.clock_ns\n"  # not terminal on its own
        "def _gather(self, record, parts):\n"
        "    record.finish_ns: float = max(p.finish_ns for p in parts)\n"
        "    record.finish_ns += record.host_merge_ns\n"
        "    record.admitted, record.value = True, None\n"
        "def _settle_rejected(self, queued, reason):\n"
        "    queued.admitted = False\n"
    )

    def test_terminal_write_flags_inline_settling(self):
        flagged = {
            "src/repro/service/x.py": (3, 4, 7, 8, 9, 11),
            "src/repro/optimizer/x.py": (3, 4, 7, 8, 9, 11),
            # Each tier's own doors are allow-listed in its own module only.
            "src/repro/service/frontend.py": (3, 4, 7, 8, 9),
            "src/repro/cluster/frontend.py": (3, 4, 11),
            "src/repro/api/backends.py": (7, 8, 9, 11),
        }
        for path, lines in flagged.items():
            findings = lint_invariants.lint_source(self._TERMINAL_WRITES, path)
            assert [(f.rule, f.line) for f in findings] == [
                ("terminal-write", line) for line in lines
            ]
        # Tests, benchmarks and tools build envelopes however they like.
        for path in ("tests/test_x.py", "benchmarks/bench_x.py", "tools/x.py"):
            assert lint_invariants.lint_source(self._TERMINAL_WRITES, path) == []
        waived = self._TERMINAL_WRITES.replace(
            "    queued.admitted = False\n",
            "    queued.admitted = False  # lint: allow[terminal-write]\n",
        )
        findings = lint_invariants.lint_source(waived, "src/repro/service/frontend.py")
        assert [f.line for f in findings] == [4, 7, 8, 9]

    def test_terminal_write_allow_list_names_real_methods(self):
        """Every allow-listed settle method exists in its module and does
        write a terminal attribute — a renamed door cannot leave a stale
        allowance behind — and nothing in the tree needs a waiver."""
        for suffix, names in lint_invariants._SETTLE_METHODS.items():
            path = REPO_ROOT / "src" / suffix
            source = path.read_text()
            assert "allow[terminal-write]" not in source
            for name in sorted(names):
                renamed = source.replace(f"def {name}(", f"def {name}_inline(")
                assert renamed != source, f"{suffix} has no {name}"
                findings = lint_invariants.lint_source(renamed, str(path))
                assert findings and {f.rule for f in findings} == {"terminal-write"}

    # A frontend that polls its lifetime record list the way the cluster's
    # `_finalize_records` / `_migrate_queued` did, beside the readers that may.
    _HISTORY_WALKS = (
        "from dataclasses import dataclass\n"
        "class Frontend:\n"
        "    def drain(self):\n"
        "        for record in self.records:\n"
        "            record.poll()\n"
        "    def health(self):\n"
        "        return sum(1 for r in self.records if not r.admitted) / len(self.records)\n"
        "    def result(self):\n"
        "        return [r for r in self.records if r.completed]\n"
        "    def own(self, session):\n"
        "        return [f.record for f in session.futures] + list(self.records)\n"
        "@dataclass\n"
        "class Result:\n"
        "    def completed(self):\n"
        "        return [r for r in self.records if r.completed]\n"
    )

    def test_history_walk_flags_polls_over_the_record_list(self):
        for package in ("service", "cluster", "api"):
            findings = lint_invariants.lint_source(
                self._HISTORY_WALKS, f"src/repro/{package}/x.py"
            )
            assert [(f.rule, f.line) for f in findings] == [
                ("history-walk", 4),
                ("history-walk", 7),
            ]
        # Other packages keep lists called `records` for their own purposes.
        for path in ("src/repro/analysis/x.py", "tests/test_x.py", "tools/x.py"):
            assert lint_invariants.lint_source(self._HISTORY_WALKS, path) == []
        waived = self._HISTORY_WALKS.replace(
            "self.records:\n", "self.records:  # lint: allow[history-walk]\n"
        )
        findings = lint_invariants.lint_source(waived, "src/repro/cluster/x.py")
        assert [f.line for f in findings] == [7]

    def test_history_walk_tampering_the_tree_is_caught(self):
        """The rule is what keeps the poll deleted: re-adding it to
        `ClusterFrontend.drain` — or walking `records` in `health` — is a
        finding, and nothing in the tree needs a waiver."""
        path = REPO_ROOT / "src" / "repro" / "cluster" / "frontend.py"
        source = path.read_text()
        assert "allow[history-walk]" not in source
        assert lint_invariants.lint_source(source, str(path)) == []
        anchor = "        offered = len(self.records)\n"
        assert anchor in source
        tampered = source.replace(
            anchor, "        offered = sum(1 for _ in self.records)\n"
        )
        findings = lint_invariants.lint_source(tampered, str(path))
        assert [f.rule for f in findings] == ["history-walk"]

    def test_waiver_suppresses(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Config:\n"
            "    items: list = []  # lint: allow[mutable-default]\n"
        )
        assert lint_invariants.lint_source(source, "waived.py") == []

    def test_cli_gate_fails_on_mutable_default_regression(self, tmp_path):
        # The acceptance criterion: a deliberately introduced
        # mutable-default regression fails the CI lint gate (exit 1) —
        # demonstrated here against a temp file, never committed.
        bad = tmp_path / "regression.py"
        bad.write_text(
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class Runtime:\n"
            "    queues: dict = {}\n"
        )
        proc = subprocess.run(
            [sys.executable, str(LINT_PATH), str(bad)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "mutable-default" in proc.stdout

    def test_cli_clean_tree_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, str(LINT_PATH), str(REPO_ROOT / "src" / "repro")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


# ----------------------------------------------------------------------
# BENCH_*.json schema validation (tools/validate_bench.py)
# ----------------------------------------------------------------------
def _pipeline_payload() -> dict:
    mode = {
        "completed": 10, "rejected": 0, "batches": 2, "throughput_gb_s": 1.5,
        "sojourn_p50_us": 3.0, "sojourn_p99_us": 9.0, "makespan_ms": 0.5,
        "busy_ms": 0.4, "bank_idle_fraction": 0.2, "cross_batch_overlap_ms": 0.1,
    }
    return {
        "barrier": dict(mode),
        "pipelined": dict(mode),
        "pipelined_vs_barrier_throughput": 1.4,
    }


class TestBenchValidation:
    def test_valid_pipeline_payload_passes(self, tmp_path):
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps(_pipeline_payload()))
        assert validate_bench.validate_file(path) == []

    def test_missing_field_rejected(self, tmp_path):
        payload = _pipeline_payload()
        del payload["pipelined"]["throughput_gb_s"]
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps(payload))
        errors = validate_bench.validate_file(path)
        assert any("throughput_gb_s" in e for e in errors)

    def test_nan_rejected(self, tmp_path):
        payload = _pipeline_payload()
        payload["pipelined"]["busy_ms"] = float("nan")
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps(payload))  # serializes as bare NaN
        errors = validate_bench.validate_file(path)
        assert errors and "non-finite" in errors[0]

    def test_wrong_type_rejected(self, tmp_path):
        payload = _pipeline_payload()
        payload["barrier"]["completed"] = "10"
        path = tmp_path / "BENCH_pipeline.json"
        path.write_text(json.dumps(payload))
        errors = validate_bench.validate_file(path)
        assert any("expected integer" in e for e in errors)

    def test_unknown_benchmark_gets_generic_sweep(self, tmp_path):
        path = tmp_path / "BENCH_novel.json"
        path.write_text('{"metric": 1.0}')
        assert validate_bench.validate_file(path) == []
        path.write_text('{"metric": Infinity}')
        assert validate_bench.validate_file(path)

    def test_emitted_benchmark_files_validate(self):
        # The repo-root BENCH files written by actual benchmark runs (when
        # present) must satisfy their schemas.
        emitted = sorted(REPO_ROOT.glob("BENCH_*.json"))
        for path in emitted:
            assert validate_bench.validate_file(path) == [], path


# ----------------------------------------------------------------------
# Artifact repeatability (tools/check_artifacts_repeat.py)
# ----------------------------------------------------------------------
class TestArtifactsRepeat:
    """The CI step's verdict, with the benchmark passes stubbed out (the
    real ones take a minute): it exits non-zero on one differing byte."""

    FILES = {
        "BENCH_pipeline.json": b'{"pipelined_vs_barrier_throughput": 1.4}\n',
        "TRACE_pipeline.json": b'{"traceEvents": []}\n',
    }

    def _stub_passes(self, monkeypatch, *passes):
        """Each stubbed ``run_pass`` call writes the next dict of files."""
        pending = list(passes)

        def run_pass(directory: Path) -> None:
            directory.mkdir(parents=True, exist_ok=True)
            for name, content in pending.pop(0).items():
                (directory / name).write_bytes(content)

        monkeypatch.setattr(check_artifacts_repeat, "run_pass", run_pass)
        return pending

    def test_identical_passes_exit_zero(self, monkeypatch, capsys):
        pending = self._stub_passes(monkeypatch, self.FILES, self.FILES)
        assert check_artifacts_repeat.main([]) == 0
        assert pending == [] and "2 artifacts repeat" in capsys.readouterr().out

    def test_one_differing_byte_fails_naming_the_file(self, monkeypatch, capsys):
        tampered = dict(self.FILES)
        tampered["TRACE_pipeline.json"] = tampered["TRACE_pipeline.json"].replace(b"[]", b"[ ]")
        self._stub_passes(monkeypatch, self.FILES, tampered)
        assert check_artifacts_repeat.main([]) == 1
        assert "TRACE_pipeline.json" in capsys.readouterr().err

    def test_against_reuses_the_first_pass_on_disk(self, monkeypatch, tmp_path, capsys):
        for name, content in self.FILES.items():
            (tmp_path / name).write_bytes(content)
        (tmp_path / "notes.json").write_text("not an artifact")
        pending = self._stub_passes(monkeypatch, self.FILES)  # only the second pass runs
        assert check_artifacts_repeat.main(["--against", str(tmp_path)]) == 0
        assert pending == []
        # A file only one pass wrote is a difference too (here: a stale one).
        (tmp_path / "BENCH_stale.json").write_text("{}")
        self._stub_passes(monkeypatch, self.FILES)
        assert check_artifacts_repeat.main(["--against", str(tmp_path)]) == 1
        assert "BENCH_stale.json: only written by the first pass" in capsys.readouterr().err

    def test_no_artifacts_at_all_is_a_failure(self, monkeypatch):
        self._stub_passes(monkeypatch, {}, {})
        assert check_artifacts_repeat.main([]) == 1

    def test_the_passes_cover_the_ci_smokes(self):
        """The script reruns exactly the smokes the workflow runs."""
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        in_ci = [
            line.split("benchmarks/bench_")[1].split(".py")[0]
            for line in workflow.splitlines()
            if "pytest benchmarks/bench_" in line
        ]
        assert tuple(in_ci) == check_artifacts_repeat.SMOKES
        assert "tools/check_artifacts_repeat.py --against ." in workflow
