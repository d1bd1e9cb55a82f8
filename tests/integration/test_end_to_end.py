"""End-to-end integration tests exercising the full public API path.

These tests cover the complete workflow a user of the library follows:
pick a system preset, place ranks, run an exchange through the simulator,
cross-check against the analytic model, build a tuning table and regenerate
a figure — all in one scenario.
"""

import numpy as np
import pytest

from repro.bench import BenchmarkHarness, figure10, format_figure, to_csv
from repro.core import run_alltoall
from repro.core.selection import AlgorithmSelector, SelectionTable, default_candidates
from repro.machine import LocalityLevel, ProcessMap, get_system
from repro.model.predict import predict_time
from repro.obs import RecordingSink


class TestFullWorkflow:
    @pytest.fixture(scope="class")
    def pmap(self):
        cluster = get_system("dane", 4)
        return ProcessMap(cluster, ppn=8, num_nodes=4)

    def test_simulate_validate_and_model_one_exchange(self, pmap):
        sink = RecordingSink()
        outcome = run_alltoall(
            "multileader-node-aware", pmap, msg_bytes=256, procs_per_leader=4, sink=sink
        )
        assert outcome.correct
        # The matched messages, traffic counters and phase breakdown must be
        # mutually consistent.
        inter_node = [event for event in sink.of_kind("match")
                      if pmap.locality(event[1], event[2]) == LocalityLevel.NETWORK]
        assert len(inter_node) == outcome.inter_node_messages
        assert sum(event[3] for event in inter_node) == outcome.inter_node_bytes
        # Every instrumented phase fits within the total exchange duration.
        assert all(v <= outcome.elapsed for v in outcome.phase_times.values())
        # The analytic model for the same configuration is within an order of magnitude.
        modelled = predict_time(
            "multileader-node-aware", pmap, 256, procs_per_leader=4
        )
        assert 0.1 < modelled / outcome.elapsed < 10.0

    def test_tuning_table_from_simulated_sweep(self, pmap):
        table = SelectionTable()
        for candidate in default_candidates(pmap.ppn):
            for msg_bytes in (16, 512):
                outcome = run_alltoall(
                    candidate.algorithm, pmap, msg_bytes, validate=False, keep_job=False,
                    **candidate.as_kwargs(),
                )
                table.record(pmap.num_nodes, msg_bytes, candidate.describe(), outcome.elapsed)
        assert table.best(4, 16)
        assert table.best(4, 512)
        assert len(table.as_rows()) == 2

    def test_model_selector_consistent_with_figure(self):
        """The selector's winner at 4 bytes equals the fastest series of Figure 10."""
        fig = figure10(msg_sizes=(4,))
        selector = AlgorithmSelector(get_system("dane", 32), ppn=112)
        best, _ = selector.select(num_nodes=32, msg_bytes=4)
        label_by_algorithm = {
            "system-mpi": "System MPI",
            "hierarchical": "Hierarchical",
            "node-aware": "Node-Aware",
            "multileader": "Multileader",
            "locality-aware": "Locality-Aware",
            "multileader-node-aware": "Multileader + Locality",
        }
        assert label_by_algorithm[best.algorithm] == fig.best_at(4)[0]

    def test_figure_rendering_roundtrip(self):
        fig = figure10(msg_sizes=(4, 1024))
        text = format_figure(fig)
        csv = to_csv(fig)
        assert "System MPI" in text
        assert csv.count("\n") == 3  # header + two sizes
        assert str(1024) in csv

    def test_harness_engines_agree_on_ordering(self):
        """Simulated and modelled engines agree which of two algorithms is faster."""
        cluster = get_system("dane", 4)
        simulated = BenchmarkHarness(cluster, 8, engine="simulate")
        modelled = BenchmarkHarness(cluster, 8, engine="model")
        for msg_bytes in (8, 2048):
            sim_flat = simulated.time_point("pairwise", msg_bytes, 4).seconds
            sim_agg = simulated.time_point("node-aware", msg_bytes, 4).seconds
            mod_flat = modelled.time_point("pairwise", msg_bytes, 4).seconds
            mod_agg = modelled.time_point("node-aware", msg_bytes, 4).seconds
            assert (sim_agg < sim_flat) == (mod_agg < mod_flat), (
                f"engines disagree at {msg_bytes} B: sim {sim_agg:.2e}/{sim_flat:.2e} "
                f"model {mod_agg:.2e}/{mod_flat:.2e}"
            )

    def test_amber_and_tuolomne_runnable_end_to_end(self):
        for system in ("amber", "tuolomne"):
            cluster = get_system(system, 2)
            pmap = ProcessMap(cluster, ppn=4, num_nodes=2)
            outcome = run_alltoall("node-aware", pmap, msg_bytes=64)
            assert outcome.correct
