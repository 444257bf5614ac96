"""A2 — Where Tesseract's win comes from: bandwidth vs. the programming model.

Design-choice ablation (README.md, "Tests and benchmarks"): Tesseract
couples (1) the raw bandwidth of vault-local access with (2) non-blocking
remote function calls that move computation to data instead of pulling data
across the network.
This ablation compares the full design against a variant that services
remote edges with blocking remote reads, isolating the contribution of the
communication interface.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import ResultTable
from repro.graph.algorithms import pagerank
from repro.graph.generators import erdos_renyi
from repro.graph.partition import partition_graph
from repro.stacked.hmc import StackedMemorySystem
from repro.tesseract.baseline import ConventionalGraphSystem
from repro.tesseract.runtime import TesseractSystem

from _bench_utils import emit

SCALE_FACTOR = 256


def _prepare():
    graph = erdos_renyi(1 << 16, avg_degree=16, seed=3)
    partition = partition_graph(graph, 512, vaults_per_cube=32, strategy="degree_balanced")
    _, profile = pagerank(graph, max_iterations=10)
    return graph, partition, profile.scaled(SCALE_FACTOR)


def _run_experiment(graph, partition, profile):
    baseline = ConventionalGraphSystem()
    with_rfc = TesseractSystem(StackedMemorySystem(num_stacks=16))
    without_rfc = TesseractSystem(
        StackedMemorySystem(num_stacks=16), use_remote_function_calls=False
    )
    host = baseline.execute(
        graph, profile, effective_num_vertices=graph.num_vertices * SCALE_FACTOR
    )
    full = with_rfc.execute(profile, partition)
    reads_only = without_rfc.execute(profile, partition)

    table = ResultTable(
        title="A2: PageRank on Tesseract with and without remote function calls",
        columns=["system", "time_ms", "speedup_vs_host"],
    )
    table.add_row("DDR3-OoO host", host.time_ns / 1e6, 1.0)
    table.add_row("Tesseract (remote reads)", reads_only.time_ns / 1e6, reads_only.speedup_over(host))
    table.add_row("Tesseract (remote function calls)", full.time_ns / 1e6, full.speedup_over(host))
    rfc_benefit = reads_only.time_ns / full.time_ns
    return table, full.speedup_over(host), reads_only.speedup_over(host), rfc_benefit


@pytest.mark.benchmark(group="A2-tesseract-rfc")
def test_a2_remote_function_call_contribution(benchmark):
    graph, partition, profile = _prepare()
    table, full_speedup, reads_speedup, rfc_benefit = benchmark.pedantic(
        _run_experiment, args=(graph, partition, profile), rounds=1, iterations=1
    )
    emit(table)
    emit(
        f"remote function calls contribute a {rfc_benefit:.1f}x improvement over "
        "blocking remote reads on the same hardware"
    )
    assert full_speedup > reads_speedup
    assert rfc_benefit > 1.3
