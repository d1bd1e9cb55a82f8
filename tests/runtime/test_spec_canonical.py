"""How :meth:`PointSpec.canonical` is assembled, and what ``PointSpec`` accepts.

``canonical()`` dumps the spec's own fields and splices in the cluster's
canonical JSON, which is serialized once per ``Cluster`` object and
memoised on it.  The oracle below is the whole-payload dump the spliced
form replaced, kept verbatim: every spec must serialize to the same bytes,
so no cache key and no store entry moves.
"""

import copy
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from repro.bench.datasets import TimedPoint
from repro.bench.harness import BenchmarkHarness
from repro.core import PhasedJob
from repro.core.runner import run_alltoall
from repro.errors import ConfigurationError
from repro.faults import parse_faults
from repro.machine import ProcessMap
from repro.machine.hierarchy import LocalityLevel
from repro.machine.systems import amber, dane, tiny_cluster, tuolomne
from repro.netsim.fabric import parse_fabric
from repro.runtime import PointSpec, ResultStore
from repro.workloads import Phase, PhasedWorkload, skewed_moe, uniform

FAT_TREE = "fat-tree:hosts=2,oversub=4"
DRAGONFLY = "dragonfly:hosts=2,routers=2,taper=4"


def _oracle(spec: PointSpec) -> str:
    """The canonical form as it was computed before the splice."""
    return json.dumps(spec.payload(), sort_keys=True, separators=(",", ":"))


def _clusters():
    base = tiny_cluster(4)
    return {
        "tiny": base,
        "dane": dane(4),
        "amber": amber(4),
        "tuolomne": tuolomne(4),
        "fat-tree": tiny_cluster(4, fabric=parse_fabric(FAT_TREE)),
        "dragonfly": dane(4, fabric=parse_fabric(DRAGONFLY)),
        "with_params": base.with_params(
            base.params.scale_level(LocalityLevel.NETWORK, bandwidth_factor=0.5)
        ),
        "with_nodes": base.with_nodes(3),
        "with_fabric": base.with_fabric(parse_fabric(FAT_TREE)),
    }


def _phased(cluster) -> PointSpec:
    workload = PhasedWorkload((
        Phase("dispatch", skewed_moe(4, 128, seed=0), repeats=2),
        Phase("combine", uniform(4, 8)),
    ))
    return PointSpec.for_phased(cluster, 2, [PhasedJob.make(workload, "nonblocking", 2)])


def _specs():
    faults = parse_faults("straggler:0,2;os-noise:1e-6;seed:5")
    for name, cluster in _clusters().items():
        for engine in ("simulate", "model"):
            folds = ("off", "on", "auto") if engine == "simulate" else ("off",)
            for fold in folds:
                yield f"{name}-{engine}-fold-{fold}", PointSpec.for_alltoall(
                    cluster, 2, 2, "pairwise", 64, engine=engine, fold=fold)
            yield f"{name}-{engine}-workload", PointSpec.for_workload(
                cluster, 2, 2, "node-aware", skewed_moe(4, 64, seed=1), engine=engine,
                procs_per_group=2)
        yield f"{name}-faulted", PointSpec.for_alltoall(
            cluster, 2, 2, "pairwise", 4096, engine="simulate", faults=faults)
        yield f"{name}-phased", _phased(cluster)
        yield f"{name}-nested-option", PointSpec.for_alltoall(
            cluster, 2, 2, "locality-aware", 64,
            plan={"inner": ["pairwise", {"ppg": 2}], "weights": [0.5, 1e-9]})


SPECS = dict(_specs())


class TestSplicedCanonicalForm:
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_matches_whole_payload_dump(self, name):
        spec = SPECS[name]
        assert spec.canonical() == _oracle(spec)

    def test_algorithm_with_escapes_matches(self):
        spec = PointSpec.for_alltoall(tiny_cluster(2), 2, 2, 'odd "name"é', 64)
        assert spec.canonical() == _oracle(spec)

    def test_specs_sharing_a_cluster_share_its_serialization(self):
        cluster = dane(4)
        a = PointSpec.for_alltoall(cluster, 8, 2, "pairwise", 4)
        b = PointSpec.for_alltoall(cluster, 8, 4, "bruck", 4096)
        assert a.canonical() == _oracle(a) and b.canonical() == _oracle(b)
        shared = json.dumps(a.payload()["cluster"], sort_keys=True, separators=(",", ":"))
        assert f',"cluster":{shared},' in a.canonical()
        assert f',"cluster":{shared},' in b.canonical()


class TestClusterMemoSafety:
    @pytest.mark.parametrize("derive", [
        pytest.param(lambda c: c.with_params(c.params.with_overrides(eager_limit=64)),
                     id="with_params"),
        pytest.param(lambda c: c.with_nodes(3), id="with_nodes"),
        pytest.param(lambda c: c.with_fabric(parse_fabric(FAT_TREE)), id="with_fabric"),
        pytest.param(lambda c: dataclasses.replace(c, name="renamed"), id="replace"),
    ])
    def test_cluster_copy_gets_its_own_key(self, derive):
        cluster = tiny_cluster(4)
        original = PointSpec.for_alltoall(cluster, 2, 2, "pairwise", 64)
        original.key()  # warm the cluster's memo before deriving the copy
        copied = PointSpec.for_alltoall(derive(cluster), 2, 2, "pairwise", 64)
        assert copied.canonical() == _oracle(copied)
        assert copied.key() != original.key()

    def test_spec_replace_gets_its_own_key(self):
        spec = PointSpec.for_alltoall(tiny_cluster(2), 2, 2, "pairwise", 64)
        spec.key()
        for changed in (dataclasses.replace(spec, msg_bytes=128),
                        dataclasses.replace(spec, cluster=spec.cluster.with_nodes(1),
                                            num_nodes=1)):
            assert changed.canonical() == _oracle(changed)
            assert changed.key() != spec.key()

    def test_memo_is_not_part_of_cluster_identity(self):
        warm, cold = tiny_cluster(2), tiny_cluster(2)
        spec = PointSpec.for_alltoall(warm, 2, 2, "pairwise", 64)
        spec.key()
        assert warm == cold and repr(warm) == repr(cold)
        assert PointSpec.for_alltoall(cold, 2, 2, "pairwise", 64).key() == spec.key()

    def test_copied_and_pickled_clusters_keep_the_key(self):
        cluster = dane(4)
        spec = PointSpec.for_alltoall(cluster, 8, 2, "pairwise", 64)
        key = spec.key()
        for other in (copy.copy(cluster), copy.deepcopy(cluster),
                      pickle.loads(pickle.dumps(cluster))):
            assert PointSpec.for_alltoall(other, 8, 2, "pairwise", 64).key() == key
        assert pickle.loads(pickle.dumps(spec)).key() == key

    def test_non_json_option_still_raises_from_key(self):
        cluster = tiny_cluster(2)
        PointSpec.for_alltoall(cluster, 2, 2, "pairwise", 64).key()  # warm memo
        spec = PointSpec.for_alltoall(cluster, 2, 2, "pairwise", 64, bad=object())
        with pytest.raises(ConfigurationError, match="not serializable"):
            spec.key()


class TestMessageSizeValidation:
    @pytest.mark.parametrize("engine", ["simulate", "model"])
    def test_harness_rejects_fractional_size(self, engine):
        harness = BenchmarkHarness(tiny_cluster(2), ppn=2, engine=engine)
        with pytest.raises(ConfigurationError, match="whole number"):
            harness.time_point("pairwise", 4.7, 2)

    def test_runner_and_spec_agree_on_fractional_size(self):
        with pytest.raises(ConfigurationError):
            run_alltoall("pairwise", ProcessMap(tiny_cluster(2), ppn=2, num_nodes=2), 4.7)
        with pytest.raises(ConfigurationError, match="whole number"):
            PointSpec(cluster=tiny_cluster(2), ppn=2, num_nodes=2, engine="simulate",
                      algorithm="pairwise", msg_bytes=4.7)

    @pytest.mark.parametrize("value", [True, False, np.True_])
    def test_bool_is_not_a_size(self, value):
        with pytest.raises(ConfigurationError, match="whole number"):
            PointSpec.for_alltoall(tiny_cluster(2), 2, 2, "pairwise", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_size_is_a_configuration_error(self, value):
        with pytest.raises(ConfigurationError, match="whole number"):
            PointSpec.for_alltoall(tiny_cluster(2), 2, 2, "pairwise", value)

    @pytest.mark.parametrize("value", [0, -8, 0.0, -8.0])
    def test_non_positive_size_rejected_at_construction(self, value):
        with pytest.raises(ConfigurationError, match="positive"):
            PointSpec(cluster=tiny_cluster(2), ppn=2, num_nodes=2, engine="model",
                      algorithm="pairwise", msg_bytes=value)

    def test_non_numeric_size_rejected(self):
        with pytest.raises(ConfigurationError, match="whole number"):
            PointSpec.for_alltoall(tiny_cluster(2), 2, 2, "pairwise", "64")

    @pytest.mark.parametrize("value", [64, 64.0, np.int64(64), np.uint16(64), np.float64(64.0)],
                             ids=["int", "float", "int64", "uint16", "float64"])
    def test_whole_sizes_convert_to_int_and_keep_the_key(self, value):
        spec = PointSpec.for_alltoall(tiny_cluster(2), 2, 2, "pairwise", value,
                                      engine="simulate")
        assert type(spec.msg_bytes) is int and spec.msg_bytes == 64
        assert spec.key() == "c85dafe1b1d3a9819ba21a29d5f569453c3564d3f73a03d45cdd11ea077ea41a"


#: An entry exactly as ``ResultStore.put`` wrote it before the spliced
#: canonical form and the byte read (same key, same bytes).
OLD_ENTRY = (
    '{"key": "c85dafe1b1d3a9819ba21a29d5f569453c3564d3f73a03d45cdd11ea077ea41a", '
    '"spec": {"version": 1, "cluster": {"name": "tiny", "num_nodes": 2, "node": '
    '{"name": "tiny", "sockets": 2, "numa_per_socket": 2, "cores_per_numa": 2}, '
    '"params": {"levels": {"SELF": [1e-08, 100000000000.0], "NUMA": [1e-07, '
    '20000000000.0], "SOCKET": [2e-07, 10000000000.0], "NODE": [4e-07, 5000000000.0], '
    '"NETWORK": [2e-06, 10000000000.0]}, "injection_bandwidth": 10000000000.0, '
    '"nic_message_overhead": 2e-07, "cross_numa_bandwidth": 20000000000.0, '
    '"send_overhead": 1e-07, "recv_overhead": 1e-07, "match_overhead_per_entry": 2e-08, '
    '"eager_limit": 4096, "rendezvous_overhead": 2e-06, "copy_bandwidth": 10000000000.0, '
    '"copy_latency": 1e-07}, "network_name": "simulated test fabric", '
    '"system_mpi_name": "reference MPI"}, "ppn": 2, "num_nodes": 2, "engine": "simulate", '
    '"algorithm": "pairwise", "repetitions": 1, "options": [], "msg_bytes": 64, '
    '"trace": null}, "result": {"seconds": 1.25e-05, "phases": {"inter-node alltoall": '
    '7.5e-06, "intra": 5e-06}}}\n'
)
OLD_POINT = TimedPoint(seconds=1.25e-05, phases={"inter-node alltoall": 7.5e-06, "intra": 5e-06})


class TestOldEntries:
    def _spec(self) -> PointSpec:
        return PointSpec.for_alltoall(tiny_cluster(2), 2, 2, "pairwise", 64, engine="simulate")

    def test_old_entry_is_served(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = self._spec()
        path = store.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_bytes(OLD_ENTRY.encode("utf-8"))
        assert store.get(spec) == OLD_POINT
        assert store.stats() == {"hits": 1, "misses": 0, "corrupt": 0}

    def test_put_writes_the_old_format(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = self._spec()
        store.put(spec, OLD_POINT)
        assert store.path_for(spec).read_bytes() == OLD_ENTRY.encode("utf-8")
