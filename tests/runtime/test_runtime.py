"""Tests for the parallel sweep runtime (repro.runtime)."""

import json
import pickle

import pytest

from repro.bench.datasets import TimedPoint
from repro.bench.harness import BenchmarkHarness
from repro.errors import ConfigurationError
from repro.machine.systems import dane, tiny_cluster
from repro.runtime import (
    PointSpec,
    ResultStore,
    SweepExecutor,
    cluster_from_payload,
    cluster_payload,
    execute,
    run_point,
)
from repro.workloads import uniform


def _spec(**overrides) -> PointSpec:
    base = dict(cluster=tiny_cluster(num_nodes=2), ppn=4, num_nodes=2,
                engine="simulate", algorithm="pairwise", msg_bytes=16)
    base.update(overrides)
    return PointSpec(**base)


class TestPointSpec:
    def test_key_is_stable(self):
        assert _spec().key() == _spec().key()

    def test_equality_and_hash(self):
        assert _spec() == _spec()
        assert hash(_spec()) == hash(_spec())
        assert _spec() != _spec(msg_bytes=64)

    def test_key_changes_with_options(self):
        plain = PointSpec.for_alltoall(tiny_cluster(2), 4, 2, "node-aware", 16,
                                       engine="simulate")
        grouped = PointSpec.for_alltoall(tiny_cluster(2), 4, 2, "node-aware", 16,
                                         engine="simulate", procs_per_group=2)
        assert plain.key() != grouped.key()

    def test_key_changes_with_machine_params(self):
        cluster = tiny_cluster(2)
        slower = cluster.with_params(
            cluster.params.with_overrides(injection_bandwidth=cluster.params.injection_bandwidth / 2)
        )
        assert _spec().key() != _spec(cluster=slower).key()

    def test_key_changes_with_engine(self):
        assert _spec().key() != _spec(engine="model").key()

    def test_needs_exactly_one_payload(self):
        with pytest.raises(ConfigurationError):
            _spec(msg_bytes=None)
        with pytest.raises(ConfigurationError):
            _spec(trace='{"bytes": [[0]]}')  # both msg_bytes and trace

    def test_more_nodes_than_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            _spec(num_nodes=4)

    def test_pickle_roundtrip(self):
        spec = _spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.key() == spec.key()

    def test_non_serializable_option_rejected(self):
        spec = _spec(options=(("callback", object()),))
        with pytest.raises(ConfigurationError):
            spec.key()

    def test_cluster_payload_roundtrip(self):
        for cluster in (tiny_cluster(3), dane(8)):
            assert cluster_from_payload(cluster_payload(cluster)) == cluster

    def test_workload_spec_matrix_roundtrip(self):
        matrix = uniform(8, 16)
        spec = PointSpec.for_workload(tiny_cluster(2), 4, 2, "pairwise", matrix,
                                      engine="simulate")
        assert spec.matrix() == matrix
        assert spec.matrix().pattern == "uniform"

    def test_describe_mentions_shape(self):
        text = _spec().describe()
        assert "pairwise" in text and "16 B" in text and "tiny" in text


class TestRunPoint:
    def test_matches_harness_time_point(self):
        harness = BenchmarkHarness(tiny_cluster(2), 4, engine="simulate")
        spec = harness.point_spec("node-aware", 64, 2)
        assert run_point(spec) == harness.time_point("node-aware", 64, 2)

    def test_workload_point_matches(self):
        matrix = uniform(8, 16)
        harness = BenchmarkHarness(tiny_cluster(2), 4, engine="simulate")
        spec = harness.workload_spec("pairwise", matrix, 2)
        assert run_point(spec) == harness.workload_point("pairwise", matrix, 2)

    def test_model_engine(self):
        point = run_point(_spec(engine="model", algorithm="node-aware"))
        assert point.seconds > 0.0 and point.phases

    def test_inline_path_honors_foreign_spec(self):
        """run_specs must follow the spec, not the harness it happens to run on."""
        foreign = BenchmarkHarness(dane(8), 16, engine="model")
        spec = _spec()  # tiny cluster, simulate engine
        assert foreign.run_specs([spec])[0] == run_point(spec)


class TestResultStore:
    def test_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = _spec()
        assert store.get(spec) is None
        point = TimedPoint(seconds=1.25, phases={"inter-node alltoall": 1.0})
        store.put(spec, point)
        assert store.get(spec) == point
        assert spec in store and len(store) == 1

    def test_corrupted_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, TimedPoint(seconds=1.0))
        store.path_for(spec).write_text("{not json at all")
        assert store.get(spec) is None

    def test_corrupted_entry_unlinked_at_detection(self, tmp_path):
        # The corrupt file must leave the disk at detection time, not at the
        # recompute's put(): a sweep that crashes between the two would
        # otherwise leave the poison entry for every later store user.
        store = ResultStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, TimedPoint(seconds=1.0))
        store.path_for(spec).write_text("{not json at all")
        assert store.get(spec) is None
        assert not store.path_for(spec).exists()
        # A fresh store over the same directory sees a clean miss, an empty
        # store, and no residual membership.
        fresh = ResultStore(tmp_path / "cache")
        assert len(fresh) == 0
        assert spec not in fresh
        assert fresh.stats() == {"hits": 0, "misses": 1, "corrupt": 0}

    def test_wrong_shape_entry_reads_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = _spec()
        store.path_for(spec).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(spec).write_text(json.dumps({"result": {"seconds": "NaN?", "phases": 3}}))
        assert store.get(spec) is None

    def test_entries_are_self_describing(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = _spec()
        store.put(spec, TimedPoint(seconds=2.0))
        entry = json.loads(store.path_for(spec).read_text())
        assert entry["key"] == spec.key()
        assert entry["spec"]["algorithm"] == "pairwise"
        assert entry["spec"]["cluster"]["name"] == "tiny"


class TestSweepExecutorSerial:
    def test_preserves_order(self):
        harness = BenchmarkHarness(tiny_cluster(2), 4, engine="simulate")
        specs = [harness.point_spec("pairwise", size, 2) for size in (64, 16, 32)]
        with SweepExecutor(jobs=1) as executor:
            points = executor.run(specs)
        assert points == [run_point(spec) for spec in specs]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=0)

    def test_cache_hit_skips_execution(self, tmp_path, monkeypatch):
        import repro.runtime.executor as executor_module

        calls = {"n": 0}
        real_run_point = run_point

        def counting_run_point(spec):
            calls["n"] += 1
            return real_run_point(spec)

        monkeypatch.setattr(executor_module, "run_point", counting_run_point)
        spec = _spec()
        with SweepExecutor(jobs=1, store=ResultStore(tmp_path / "cache")) as executor:
            first = executor.run([spec])
            assert calls["n"] == 1 and executor.executed_points == 1
            second = executor.run([spec])
            assert calls["n"] == 1, "cache hit must not re-execute the point"
            assert executor.cached_points == 1
        assert first == second

    def test_corrupted_cache_entry_recomputed(self, tmp_path, monkeypatch):
        import repro.runtime.executor as executor_module

        calls = {"n": 0}
        real_run_point = run_point

        def counting_run_point(spec):
            calls["n"] += 1
            return real_run_point(spec)

        monkeypatch.setattr(executor_module, "run_point", counting_run_point)
        store = ResultStore(tmp_path / "cache")
        spec = _spec()
        with SweepExecutor(jobs=1, store=store) as executor:
            good = executor.run([spec])[0]
            store.path_for(spec).write_text("corrupted!!")
            recomputed = executor.run([spec])[0]
        assert calls["n"] == 2
        assert recomputed == good
        assert store.get(spec) == good, "the recomputed result must be written back"

    def test_duplicate_specs_in_one_batch_computed_once(self, monkeypatch):
        import repro.runtime.executor as executor_module

        calls = {"n": 0}
        real_run_point = run_point

        def counting_run_point(spec):
            calls["n"] += 1
            return real_run_point(spec)

        monkeypatch.setattr(executor_module, "run_point", counting_run_point)
        with SweepExecutor(jobs=1) as executor:
            points = executor.run([_spec(), _spec(), _spec(msg_bytes=32)])
        assert calls["n"] == 2
        assert points[0] == points[1]

    def test_execute_helper_inline(self):
        specs = [_spec(msg_bytes=16), _spec(msg_bytes=32)]
        assert execute(specs) == [run_point(s) for s in specs]


class TestSweepExecutorParallel:
    def test_parallel_sweep_bit_identical_to_serial(self):
        serial = BenchmarkHarness(tiny_cluster(2), 4, engine="simulate")
        baseline = serial.size_sweep("node-aware", msg_sizes=(16, 32, 64, 128), num_nodes=2)
        with SweepExecutor(jobs=4) as executor:
            harness = BenchmarkHarness(tiny_cluster(2), 4, engine="simulate",
                                       executor=executor)
            parallel = harness.size_sweep("node-aware", msg_sizes=(16, 32, 64, 128),
                                          num_nodes=2)
        assert parallel.points == baseline.points

    def test_parallel_fills_store_serial_reads_it(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        sizes = (16, 64)
        with SweepExecutor(jobs=2, store=store) as executor:
            harness = BenchmarkHarness(tiny_cluster(2), 4, engine="simulate",
                                       executor=executor)
            first = harness.size_sweep("pairwise", msg_sizes=sizes, num_nodes=2)
            assert executor.executed_points == len(sizes)
        with SweepExecutor(jobs=1, store=store) as executor:
            harness = BenchmarkHarness(tiny_cluster(2), 4, engine="simulate",
                                       executor=executor)
            second = harness.size_sweep("pairwise", msg_sizes=sizes, num_nodes=2)
            assert executor.executed_points == 0
            assert executor.cached_points == len(sizes)
        assert first.points == second.points
