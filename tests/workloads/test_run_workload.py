"""Integration tests: workloads through the runner, harness and model layers."""

import numpy as np
import pytest

from repro.bench.harness import BenchmarkHarness
from repro.core import run_alltoall, run_workload
from repro.core.alltoall.valgorithms import get_v_algorithm, list_v_algorithms
from repro.core.instrumentation import PHASE_INTER, PHASE_INTRA, PHASE_PACK
from repro.errors import BufferSizeError, ConfigurationError
from repro.machine import ProcessMap, tiny_cluster
from repro.model.predict import (
    WORKLOAD_MODELED_ALGORITHMS,
    predict_workload_breakdown,
    predict_workload_time,
)
from repro.workloads import TrafficMatrix, skewed_moe, sparse, uniform


@pytest.fixture
def pmap():
    return ProcessMap(tiny_cluster(num_nodes=2), ppn=4)


class TestRunWorkload:
    @pytest.mark.parametrize("algorithm", list_v_algorithms())
    def test_validates_on_skewed_traffic(self, pmap, algorithm):
        matrix = skewed_moe(pmap.nprocs, 32, seed=4)
        outcome = run_workload(algorithm, pmap, matrix, keep_job=False)
        assert outcome.correct
        assert outcome.elapsed > 0.0
        assert outcome.pattern == "skewed-moe"
        assert outcome.total_bytes == matrix.total_bytes

    def test_locality_aware_grouping(self, pmap):
        matrix = sparse(pmap.nprocs, 16, out_degree=3, seed=1)
        outcome = run_workload(
            "node-aware", pmap, matrix, procs_per_group=2, inner="nonblocking", keep_job=False
        )
        assert outcome.correct
        assert "procs_per_group=2" in outcome.algorithm

    def test_node_aware_reports_phases(self, pmap):
        outcome = run_workload("node-aware", pmap, uniform(pmap.nprocs, 64), keep_job=False)
        assert {PHASE_INTER, PHASE_INTRA, PHASE_PACK} <= set(outcome.phase_times)

    def test_uniform_matrix_matches_run_alltoall(self, pmap):
        """A uniform TrafficMatrix through the v-path reproduces the uniform runner's timing."""
        flat = run_alltoall("pairwise", pmap, 64, validate=False, keep_job=False)
        v = run_workload("pairwise", pmap, uniform(pmap.nprocs, 64), keep_job=False)
        assert v.elapsed == pytest.approx(flat.elapsed, rel=1e-9)

    def test_aggregation_reduces_inter_node_messages(self, pmap):
        matrix = skewed_moe(pmap.nprocs, 256, seed=2)
        flat = run_workload("pairwise", pmap, matrix, validate=False, keep_job=False)
        aggregated = run_workload("node-aware", pmap, matrix, validate=False, keep_job=False)
        assert aggregated.inter_node_bytes == flat.inter_node_bytes
        assert aggregated.inter_node_messages < flat.inter_node_messages

    def test_raw_array_accepted(self, pmap):
        raw = np.full((pmap.nprocs, pmap.nprocs), 8, dtype=np.int64)
        assert run_workload("pairwise", pmap, raw, keep_job=False).correct

    def test_wider_dtype(self, pmap):
        matrix = uniform(pmap.nprocs, 64)
        outcome = run_workload("pairwise", pmap, matrix, dtype=np.int64, keep_job=False)
        assert outcome.correct

    def test_size_mismatch_rejected(self, pmap):
        with pytest.raises(ConfigurationError):
            run_workload("pairwise", pmap, uniform(pmap.nprocs + 1, 8))

    def test_options_with_instance_rejected(self, pmap):
        algo = get_v_algorithm("pairwise")
        with pytest.raises(ConfigurationError):
            run_workload(algo, pmap, uniform(pmap.nprocs, 8), inner="pairwise")

    def test_bad_group_size_rejected_before_running(self, pmap):
        with pytest.raises(ConfigurationError):
            run_workload("node-aware", pmap, uniform(pmap.nprocs, 8), procs_per_group=3)

    def test_summary_mentions_pattern_and_skew(self, pmap):
        outcome = run_workload("pairwise", pmap, skewed_moe(pmap.nprocs, 16), keep_job=False)
        text = outcome.summary()
        assert "skewed-moe" in text and "skew" in text


class TestWorkloadModel:
    def test_all_modeled_algorithms_positive(self, pmap):
        matrix = skewed_moe(pmap.nprocs, 64, seed=1)
        for name in WORKLOAD_MODELED_ALGORITHMS:
            assert predict_workload_time(name, pmap, matrix) > 0.0

    def test_uniform_matrix_matches_scalar_model(self, pmap):
        from repro.model.predict import predict_time

        matrix = uniform(pmap.nprocs, 256)
        for name in ("pairwise", "nonblocking", "node-aware"):
            assert predict_workload_time(name, pmap, matrix) == pytest.approx(
                predict_time(name, pmap, 256)
            )

    def test_more_traffic_never_cheaper(self, pmap):
        small = skewed_moe(pmap.nprocs, 32, seed=3)
        large = TrafficMatrix(small.bytes * 16, pattern=small.pattern)
        for name in WORKLOAD_MODELED_ALGORITHMS:
            assert predict_workload_time(name, pmap, large) >= predict_workload_time(
                name, pmap, small
            )

    def test_breakdown_phases(self, pmap):
        breakdown = predict_workload_breakdown("node-aware", pmap, uniform(pmap.nprocs, 64))
        assert {PHASE_INTER, PHASE_INTRA, PHASE_PACK} <= set(breakdown.phases)

    def test_unmodeled_algorithm_rejected(self, pmap):
        with pytest.raises(ConfigurationError):
            predict_workload_breakdown("bruck", pmap, uniform(pmap.nprocs, 64))

    def test_unknown_option_rejected(self, pmap):
        with pytest.raises(ConfigurationError):
            predict_workload_breakdown(
                "node-aware", pmap, uniform(pmap.nprocs, 64), procs_per_leader=4
            )

    def test_model_tracks_simulation_within_factor(self, pmap):
        """The analytic estimate stays within an order of magnitude of the simulator."""
        matrix = skewed_moe(pmap.nprocs, 128, seed=5)
        for name in WORKLOAD_MODELED_ALGORITHMS:
            simulated = run_workload(name, pmap, matrix, validate=False, keep_job=False).elapsed
            modelled = predict_workload_time(name, pmap, matrix)
            assert 0.1 < simulated / modelled < 10.0


class TestHarnessWorkloadPoint:
    def test_model_engine(self):
        harness = BenchmarkHarness(tiny_cluster(num_nodes=2), 4, engine="model")
        matrix = skewed_moe(8, 64, seed=1)
        point = harness.workload_point("node-aware", matrix, num_nodes=2)
        assert point.seconds > 0.0
        assert PHASE_INTER in point.phases

    def test_simulate_engine(self):
        harness = BenchmarkHarness(tiny_cluster(num_nodes=2), 4, engine="simulate",
                                   repetitions=2)
        matrix = sparse(8, 32, out_degree=2, seed=0)
        point = harness.workload_point("pairwise", matrix, num_nodes=2)
        direct = run_workload("pairwise", harness.process_map(2), matrix,
                              validate=False, keep_job=False)
        assert point.seconds == pytest.approx(direct.elapsed)

    def test_matrix_size_checked(self):
        harness = BenchmarkHarness(tiny_cluster(num_nodes=2), 4, engine="model")
        with pytest.raises(ConfigurationError):
            harness.workload_point("pairwise", uniform(9, 8), num_nodes=2)


class TestVAlgorithmValidation:
    def test_buffer_size_mismatch_detected(self, pmap):
        from repro.simmpi import run_spmd

        counts = uniform(pmap.nprocs, 4).item_counts()

        def program(ctx):
            algo = get_v_algorithm("node-aware")
            bad_send = np.zeros(1, dtype=np.uint8)
            recv = np.zeros(int(counts[:, ctx.rank].sum()), dtype=np.uint8)
            yield from algo.run(ctx, counts, bad_send, recv)

        with pytest.raises(BufferSizeError):
            run_spmd(pmap, program)

    def test_count_matrix_shape_checked(self, pmap):
        algo = get_v_algorithm("pairwise")
        with pytest.raises(BufferSizeError):
            algo.validate(pmap, np.zeros((3, 3)))
        get_v_algorithm("node-aware").validate(
            pmap, np.zeros((pmap.nprocs, pmap.nprocs), dtype=np.int64)
        )

    def test_fractional_count_matrix_rejected(self):
        two_ranks = ProcessMap(tiny_cluster(num_nodes=1), ppn=2)
        with pytest.raises(BufferSizeError, match="whole numbers"):
            get_v_algorithm("pairwise").validate(two_ranks, [[1.5, 2.0], [2.0, 1.0]])

    @pytest.mark.parametrize("algorithm", list_v_algorithms())
    def test_whole_valued_float_count_matrix_runs(self, pmap, algorithm):
        from repro.core.validation import make_workload_sendbuf, validate_workload_results
        from repro.simmpi import run_spmd

        counts = skewed_moe(pmap.nprocs, 32, seed=4).item_counts().astype(np.float64)
        algo = get_v_algorithm(algorithm)
        algo.validate(pmap, counts)

        def program(ctx):
            send = make_workload_sendbuf(ctx.rank, counts, dtype=np.uint8)
            recv = np.zeros(int(counts[:, ctx.rank].sum()), dtype=np.uint8)
            yield from algo.run(ctx, counts, send, recv)
            ctx.result = recv.copy()

        assert validate_workload_results(run_spmd(pmap, program).results, counts)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            get_v_algorithm("teleport")

    def test_describe_distinguishes_v_family(self):
        assert get_v_algorithm("pairwise").describe() == "pairwisev"
