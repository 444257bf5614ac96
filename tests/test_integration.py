"""Cross-module integration tests.

Each test exercises a realistic end-to-end flow through several subsystems,
mirroring the experiments the benchmark harness runs (at a much smaller
scale so the whole suite stays fast).
"""

import numpy as np
import pytest

from repro.ambit.engine import AmbitConfig, AmbitEngine
from repro.analysis.metrics import arithmetic_mean, geometric_mean
from repro.consumer.analysis import ConsumerStudy
from repro.api import PimSession
from repro.core.system import PIMSystem
from repro.database.bitmap_index import BitmapIndex
from repro.database.bitweaving import BitWeavingColumn
from repro.database.tables import generate_sales_table
from repro.dram.device import DramDevice
from repro.graph.algorithms import breadth_first_search, pagerank
from repro.graph.generators import erdos_renyi, rmat
from repro.graph.partition import partition_graph
from repro.hostsim.cpu import HostCpu
from repro.hostsim.gpu import HostGpu
from repro.stacked.hmc import HmcParameters, StackedMemorySystem
from repro.tesseract.baseline import ConventionalGraphSystem
from repro.tesseract.runtime import TesseractSystem


class TestAmbitEndToEnd:
    def test_ambit_vs_cpu_vs_gpu_ordering(self):
        """E1's qualitative ordering: Ambit > GPU > CPU for bulk bitwise ops."""
        device = DramDevice.ddr3()
        ambit = AmbitEngine(device, AmbitConfig(banks_parallel=8))
        cpu = HostCpu(dram=device)
        gpu = HostGpu()
        size_bits = 16 << 20
        ratios = []
        from repro.ambit.bitvector import BulkBitVector

        for op in ("not", "and", "or", "nand", "nor", "xor", "xnor"):
            va = BulkBitVector(size_bits)
            vb = None if op == "not" else BulkBitVector(size_bits)
            _, ambit_metrics = ambit.execute(op, va, vb)
            cpu_metrics = cpu.bulk_bitwise(op, size_bits // 8)
            gpu_metrics = gpu.bulk_bitwise(op, size_bits // 8)
            assert (
                ambit_metrics.throughput_bytes_per_s
                > gpu_metrics.throughput_bytes_per_s
                > cpu_metrics.throughput_bytes_per_s
            )
            ratios.append(
                ambit_metrics.throughput_bytes_per_s / cpu_metrics.throughput_bytes_per_s
            )
        assert 25 < arithmetic_mean(ratios) < 70

    def test_rowclone_feeds_ambit_control_rows(self, small_device):
        """RowClone and Ambit share the same AAP substrate: initializing a
        row with RowClone's FPM copy (one AAP) and then running a TRA-based
        AND in the same device produces the expected AND."""
        engine = AmbitEngine(small_device, AmbitConfig(banks_parallel=2))
        bank = small_device.bank_at(0, 0, 0)
        zeros = np.zeros(64, dtype=np.uint8)
        bank.write_row(0, zeros)
        bank.aap(0, 1)
        assert np.array_equal(bank.read_row(1), zeros)
        a = engine.alloc_vector(256).fill_random(seed=1)
        b = engine.alloc_vector(256).fill_random(seed=2)
        out, _ = engine.execute("and", a, b, functional=True)
        assert np.array_equal(out.data[:32], a.expected_and(b))


class TestDatabaseEndToEnd:
    def test_bitmap_and_bitweaving_agree_with_rowscan(self):
        table = generate_sales_table(20_000, seed=5)
        index = BitmapIndex(table, ["region"])
        column = BitWeavingColumn.from_table(table, "quantity")
        host, service = PimSession.over_host(), PimSession.over_service()

        region_codes = table.column("region")
        quantity_codes = table.column("quantity")
        reference = int(
            (np.isin(region_codes, [0, 1]) & True).sum()
        )
        bitmap_result = service.conjunction(index, [("region", [0, 1])]).result()
        assert bitmap_result.matching_rows == reference

        reference_range = int(((quantity_codes >= 10) & (quantity_codes <= 200)).sum())
        for session in (host, service):
            result = session.range_count(column, 10, 200).result()
            assert result.matching_rows == reference_range


class TestTesseractEndToEnd:
    def test_five_workload_summary_shape(self):
        """A miniature version of E5: all five workloads, speedup and energy
        reduction summarized the way the paper reports them."""
        # Un-skewed synthetic graph: at this miniature scale an R-MAT graph's
        # single heaviest vertex would dominate one vault's load and mask the
        # bandwidth argument the experiment is about.
        graph = erdos_renyi(1 << 13, avg_degree=16, seed=9)
        partition = partition_graph(
            graph, 512, vaults_per_cube=32, strategy="degree_balanced"
        )
        tesseract = TesseractSystem(StackedMemorySystem(num_stacks=16))
        baseline = ConventionalGraphSystem()
        speedups = []
        reductions = []
        from repro.graph.algorithms import (
            average_teenage_follower,
            single_source_shortest_paths,
            weakly_connected_components,
        )

        workloads = [
            pagerank(graph, max_iterations=3)[1],
            breadth_first_search(graph)[1],
            single_source_shortest_paths(graph)[1],
            weakly_connected_components(graph, max_iterations=5)[1],
            average_teenage_follower(graph)[1],
        ]
        for profile in workloads:
            scaled = profile.scaled(2048)
            pim = tesseract.execute(scaled, partition)
            host = baseline.execute(
                graph, scaled, effective_num_vertices=graph.num_vertices * 2048
            )
            speedups.append(pim.speedup_over(host))
            reductions.append(pim.energy_reduction_percent(host))
        assert 6 < geometric_mean(speedups) < 25
        assert 75 < arithmetic_mean(reductions) < 95


class TestConsumerEndToEnd:
    def test_study_runs_with_custom_stack(self):
        study = ConsumerStudy()
        stack = HmcParameters.hmc2()
        assert stack.logic_layer.num_vaults == 32
        fraction = study.average_data_movement_fraction()
        reductions = study.average_reductions()
        assert fraction > 0.5
        assert reductions["pim_core_energy_reduction_percent"] > 35


class TestPimSystemEndToEnd:
    def test_query_style_workflow_through_public_api(self):
        system = PIMSystem.default()
        bits = 1 << 21
        region = system.alloc_bitvector(bits).fill_random(seed=1, density=0.2)
        product = system.alloc_bitvector(bits).fill_random(seed=2, density=0.3)
        recent = system.alloc_bitvector(bits).fill_random(seed=3, density=0.5)
        matches = system.bulk_and(region, product)
        matches = system.bulk_and(matches, recent)
        expected = region.data & product.data & recent.data
        assert np.array_equal(matches.data, expected)
        assert len(system.history) == 2
        assert all(record.speedup > 10 for record in system.history)
        report = system.history_table().render()
        assert "ambit_and" in report
