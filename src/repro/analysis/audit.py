"""Standalone schedule-audit report over lane timelines.

Renders the schedule race detector's findings
(:mod:`repro.verify.schedule_check`) as the same kind of text report the
benchmark tables use: one row per audited schedule with its placement,
batch, lane, busy-union and overlap accounting, and — when the audit is
run non-raising — every violation listed underneath.  This is the
offline/"report" face of the sanitizer; the online face is the
``sanitize=True`` knob of :class:`~repro.service.config.PipelineConfig`
(either tier, or a hand-built executor), which raises on the first
violation instead — and is what makes an executor keep an interval log
(an unsanitized one's audit raises ``ValueError``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.executor import BatchExecutor
    from repro.service.lanes import LaneSchedule
    from repro.verify.schedule_check import ScheduleCheckReport


@dataclass
class ScheduleAudit:
    """One audited schedule: its name and the checker's report."""

    name: str
    report: "ScheduleCheckReport"

    @property
    def ok(self) -> bool:
        """True when the schedule passed every check."""
        return self.report.ok


def audit_schedule(schedule: "LaneSchedule", name: str = "lanes") -> ScheduleAudit:
    """Audit one lane schedule, collecting (not raising) violations."""
    from repro.verify.schedule_check import check_schedule  # local: avoid cycle

    return ScheduleAudit(name=name, report=check_schedule(schedule, raise_on_error=False))


def audit_executor(executor: "BatchExecutor", name: str = "executor") -> ScheduleAudit:
    """The cumulative report of a sanitized executor's online checker,
    which consumed each batch's placements as it certified them."""
    if executor.sanitizer is None:
        raise ValueError("an executor logs placements only under sanitize=True")
    return ScheduleAudit(name=name, report=executor.sanitizer.report())


def audit_cluster(cluster, name: str = "cluster") -> List[ScheduleAudit]:
    """Audit every shard executor's lane timelines of a cluster frontend."""
    return [
        audit_executor(shard.executor, name=f"{name}/shard{i}")
        for i, shard in enumerate(cluster.shards)
    ]


def render_audit(audits: Iterable[ScheduleAudit]) -> str:
    """Render audits as a text report (one row each, violations below)."""
    audits = list(audits)
    rows: List[Tuple[str, ...]] = [
        ("schedule", "placements", "batches", "lanes", "busy_union_ns", "overlap_ns", "status")
    ]
    violation_lines: List[str] = []
    for audit in audits:
        report = audit.report
        rows.append(
            (
                audit.name,
                str(report.placements),
                str(report.batches),
                str(report.lanes),
                f"{report.busy_union_ns:.1f}",
                f"{report.cross_batch_overlap_ns:.1f}",
                "ok" if report.ok else f"{len(report.violations)} violation(s)",
            )
        )
        for violation in report.violations:
            violation_lines.append(f"  [{audit.name}] {violation.rule}: {violation}")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    if violation_lines:
        lines.append("violations:")
        lines.extend(violation_lines)
    return "\n".join(lines)


def schedule_audit_report(schedules: Sequence[Tuple[str, "LaneSchedule"]]) -> str:
    """Audit named schedules and render the combined text report."""
    return render_audit(audit_schedule(schedule, name) for name, schedule in schedules)
