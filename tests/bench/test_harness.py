"""Tests of the benchmark harness on both engines.

The paper-scale ablation sweeps (group size, inner exchange, injection
bandwidth, matching cost) are checked in
``tests/integration/test_paper_trends.py``.
"""

import pytest

from repro.bench.harness import PAPER_MESSAGE_SIZES, PAPER_NODE_COUNTS, BenchmarkHarness
from repro.core.instrumentation import PHASE_INTER
from repro.errors import ConfigurationError
from repro.machine.systems import dane, tiny_cluster


class TestConstants:
    def test_paper_sweep_ranges(self):
        assert PAPER_MESSAGE_SIZES[0] == 4 and PAPER_MESSAGE_SIZES[-1] == 4096
        assert PAPER_NODE_COUNTS == (2, 4, 8, 16, 32)


class TestHarnessModelEngine:
    @pytest.fixture(scope="class")
    def harness(self):
        return BenchmarkHarness(dane(32), 112, engine="model")

    def test_time_point(self, harness):
        point = harness.time_point("node-aware", 1024, 32)
        assert point.seconds > 0.0
        assert PHASE_INTER in point.phases

    def test_size_sweep(self, harness):
        series = harness.size_sweep("system-mpi", msg_sizes=(4, 64, 1024), num_nodes=32)
        assert series.xs() == [4, 64, 1024]
        assert series.ys() == sorted(series.ys())  # monotone in size

    def test_node_sweep(self, harness):
        series = harness.node_sweep("node-aware", msg_bytes=1024, node_counts=(2, 8, 32))
        assert series.xs() == [2, 8, 32]
        assert series.ys() == sorted(series.ys())  # more nodes -> more time

    def test_phase_series(self, harness):
        series = harness.phase_series("hierarchical", PHASE_INTER, msg_sizes=(4, 256), num_nodes=32)
        assert all(y > 0 for y in series.ys())

    def test_label_override(self, harness):
        series = harness.size_sweep("node-aware", msg_sizes=(4,), num_nodes=32, label="NA")
        assert series.label == "NA"

    def test_too_many_nodes_rejected(self, harness):
        with pytest.raises(ConfigurationError):
            harness.time_point("node-aware", 64, 64)

    def test_invalid_engine_rejected(self):
        with pytest.raises(ConfigurationError):
            BenchmarkHarness(dane(2), 4, engine="hardware")

    def test_invalid_repetitions_rejected(self):
        with pytest.raises(ConfigurationError):
            BenchmarkHarness(dane(2), 4, repetitions=0)

    def test_describe(self, harness):
        assert "dane" in harness.describe() and "model" in harness.describe()


class TestHarnessSimulateEngine:
    @pytest.fixture(scope="class")
    def harness(self):
        return BenchmarkHarness(tiny_cluster(num_nodes=4), 4, engine="simulate")

    def test_time_point_runs_simulation(self, harness):
        point = harness.time_point("node-aware", 64, 4)
        assert point.seconds > 0.0
        assert PHASE_INTER in point.phases

    def test_repetitions_min_policy(self):
        harness = BenchmarkHarness(tiny_cluster(num_nodes=2), 4, engine="simulate", repetitions=3)
        point = harness.time_point("pairwise", 16, 2)
        assert point.seconds > 0.0

    def test_sweep_matches_direct_runner(self, harness):
        from repro.core import run_alltoall

        series = harness.size_sweep("pairwise", msg_sizes=(16,), num_nodes=4)
        direct = run_alltoall("pairwise", harness.process_map(4), 16, validate=False, keep_job=False)
        assert series.at(16).seconds == pytest.approx(direct.elapsed)


class TestRepetitionPhaseConsistency:
    """The phase breakdown must come from the run that produced the minimum."""

    def _harness_with_fake_runs(self, monkeypatch, outcomes, target):
        import repro.bench.harness as harness_module

        queue = list(outcomes)

        def fake_run(*args, **kwargs):
            return queue.pop(0)

        monkeypatch.setattr(harness_module, target, fake_run)
        return BenchmarkHarness(tiny_cluster(num_nodes=2), 4, engine="simulate",
                                repetitions=len(outcomes))

    class _FakeOutcome:
        def __init__(self, elapsed, phases):
            self.elapsed = elapsed
            self.phase_times = phases

    def test_time_point_phases_match_min_run(self, monkeypatch):
        outcomes = [
            self._FakeOutcome(3.0, {"inter-node alltoall": 3.0}),
            self._FakeOutcome(1.0, {"inter-node alltoall": 1.0}),
            self._FakeOutcome(2.0, {"inter-node alltoall": 2.0}),
        ]
        harness = self._harness_with_fake_runs(monkeypatch, outcomes, "run_alltoall")
        point = harness.time_point("pairwise", 16, 2)
        assert point.seconds == 1.0
        assert point.phases == {"inter-node alltoall": 1.0}

    def test_workload_point_phases_match_min_run(self, monkeypatch):
        from repro.workloads import uniform

        outcomes = [
            self._FakeOutcome(2.0, {"pack": 2.0}),
            self._FakeOutcome(5.0, {"pack": 5.0}),
        ]
        harness = self._harness_with_fake_runs(monkeypatch, outcomes, "run_workload")
        point = harness.workload_point("pairwise", uniform(8, 16), 2)
        assert point.seconds == 2.0
        assert point.phases == {"pack": 2.0}

    def test_real_repetitions_still_deterministic(self):
        harness = BenchmarkHarness(tiny_cluster(num_nodes=2), 4, engine="simulate",
                                   repetitions=3)
        point = harness.time_point("node-aware", 64, 2)
        single = BenchmarkHarness(tiny_cluster(num_nodes=2), 4,
                                  engine="simulate").time_point("node-aware", 64, 2)
        assert point.seconds == pytest.approx(single.seconds)
        assert point.phases == single.phases
