"""Cache-key compatibility and identity of the PointSpec fold field."""

import pytest

from repro.bench.harness import BenchmarkHarness, run_spec
from repro.errors import ConfigurationError
from repro.machine import tiny_cluster
from repro.runtime.spec import PointSpec
from repro.workloads.generators import uniform


@pytest.fixture
def cluster():
    return tiny_cluster(num_nodes=4)


def test_fold_off_payload_is_bit_identical_to_pre_fold_layout(cluster):
    """fold="off" must not appear in the payload: old cache keys stay valid."""
    spec = PointSpec.for_alltoall(cluster, 4, 4, "pairwise", 256, engine="simulate")
    assert spec.fold == "off"
    assert "fold" not in spec.payload()
    assert '"fold"' not in spec.canonical()


def test_folded_spec_changes_the_cache_key(cluster):
    base = PointSpec.for_alltoall(cluster, 4, 4, "pairwise", 256, engine="simulate")
    folded = PointSpec.for_alltoall(cluster, 4, 4, "pairwise", 256,
                                    engine="simulate", fold="on")
    assert folded.payload()["fold"] == "on"
    assert base.key() != folded.key()
    assert base != folded


def test_fold_modes_validated(cluster):
    with pytest.raises(ConfigurationError):
        PointSpec.for_alltoall(cluster, 4, 4, "pairwise", 256, fold="maybe")


def test_workload_spec_carries_fold(cluster):
    matrix = uniform(16, 64)
    spec = PointSpec.for_workload(cluster, 4, 4, "pairwise", matrix,
                                  engine="simulate", fold="auto")
    assert spec.fold == "auto"
    assert spec.payload()["fold"] == "auto"
    assert "fold=auto" in spec.describe()


def test_harness_threads_fold_through_run_spec(cluster):
    """A folded simulate spec executes folded and matches the unfolded time."""
    harness = BenchmarkHarness(cluster, 4, engine="simulate")
    plain = run_spec(harness.point_spec("pairwise", 256, 4))
    folded = run_spec(harness.point_spec("pairwise", 256, 4, fold="on"))
    assert folded.seconds == plain.seconds  # exact-equivalence class


def test_harness_fold_auto_workload(cluster):
    harness = BenchmarkHarness(cluster, 4, engine="simulate")
    matrix = uniform(16, 64)
    plain = run_spec(harness.workload_spec("pairwise", matrix, 4))
    folded = run_spec(harness.workload_spec("pairwise", matrix, 4, fold="auto"))
    assert folded.seconds == plain.seconds
