"""A3 — Offload-decision crossover as compute intensity rises.

Design-choice ablation (README.md, "Tests and benchmarks"): the adoption
layer's offload planner (Section 4 of the paper: runtime scheduling of code
on PIM logic) should send data-movement-bound kernels to PIM and keep
compute-bound kernels on the host.  This sweep varies a kernel's
operations-per-byte ratio and reports the chosen target, the projected
speedup, and the projected energy reduction, locating the crossover point.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import ResultTable
from repro.core.offload import ExecutionTarget, KernelDescriptor, OffloadPlanner

from _bench_utils import emit

OPS_PER_BYTE = (0.125, 0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128)
MEMORY_BYTES = 512 * 1024 * 1024


def _run_experiment():
    planner = OffloadPlanner()
    table = ResultTable(
        title="A3: offload decision vs. kernel compute intensity (ops/byte)",
        columns=["ops_per_byte", "target", "projected_speedup", "projected_energy_red_%"],
    )
    targets = []
    for intensity in OPS_PER_BYTE:
        kernel = KernelDescriptor(
            name=f"kernel_{intensity}",
            instructions=intensity * MEMORY_BYTES,
            memory_bytes=MEMORY_BYTES,
            streaming_fraction=0.6,
        )
        decision = planner.plan(kernel)
        targets.append(decision.target)
        table.add_row(
            intensity,
            decision.target.value,
            decision.projected_speedup,
            decision.projected_energy_reduction_percent,
        )
    return table, targets


@pytest.mark.benchmark(group="A3-offload-crossover")
def test_a3_offload_crossover(benchmark):
    table, targets = benchmark(_run_experiment)
    emit(table)
    # Data-movement-bound kernels are offloaded; compute-bound kernels stay
    # on the host; the crossover is monotone.
    assert targets[0] is not ExecutionTarget.HOST
    assert targets[-1] is ExecutionTarget.HOST
    first_host = targets.index(ExecutionTarget.HOST)
    assert all(t is ExecutionTarget.HOST for t in targets[first_host:])
    assert 0 < first_host < len(targets) - 1
