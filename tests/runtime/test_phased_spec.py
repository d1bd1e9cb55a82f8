"""Cache-identity tests for phased :class:`~repro.runtime.PointSpec`s.

The central invariant: ``phases`` joins the canonical payload **only when
present**, so every cache key minted before phased specs existed is
bit-identical afterwards.  A phased spec's key, in turn, is a pure
function of its whole run plan (jobs, workload content, per-phase
assignments).
"""

import pytest

from repro.core import PhasedJob
from repro.errors import ConfigurationError
from repro.faults import parse_faults
from repro.machine import tiny_cluster
from repro.netsim.fabric import parse_fabric
from repro.runtime import PointSpec
from repro.workloads import Phase, PhasedWorkload, skewed_moe, uniform


def _workload(nprocs: int = 4, seed: int = 0) -> PhasedWorkload:
    return PhasedWorkload(
        (
            Phase("dispatch", skewed_moe(nprocs, 128, seed=seed), repeats=2),
            Phase("combine", uniform(nprocs, 8)),
        )
    )


def _phased_spec(**overrides) -> PointSpec:
    cluster = tiny_cluster(num_nodes=2)
    jobs = [PhasedJob.make(_workload(4), "nonblocking", 2)]
    return PointSpec.for_phased(cluster, 2, jobs, **overrides)


class TestPrePhasedKeysUnchanged:
    def test_uniform_spec_payload_has_no_phases_key(self):
        spec = PointSpec.for_alltoall(tiny_cluster(2), 4, 2, "pairwise", 64)
        assert "phases" not in spec.payload()

    def test_workload_spec_payload_has_no_phases_key(self):
        spec = PointSpec.for_workload(tiny_cluster(2), 4, 2, "pairwise", uniform(8, 16))
        assert "phases" not in spec.payload()

    def test_pinned_uniform_key(self):
        # A frozen literal: if this moves, every pre-phased cache entry and
        # golden timing silently invalidates.  Update only deliberately.
        spec = PointSpec.for_alltoall(
            tiny_cluster(2), 2, 2, "pairwise", 64, engine="simulate"
        )
        assert spec.key() == "c85dafe1b1d3a9819ba21a29d5f569453c3564d3f73a03d45cdd11ea077ea41a"

    @pytest.mark.parametrize("build, key", [
        pytest.param(
            lambda: PointSpec.for_workload(tiny_cluster(2), 2, 2, "pairwise",
                                           skewed_moe(4, 64, seed=3), engine="simulate"),
            "a0bc06aaf356448d4501aa9efbfec6d628ed749b9525a6d2b1083fd72a041900",
            id="workload"),
        pytest.param(
            lambda: PointSpec.for_alltoall(tiny_cluster(2), 2, 2, "pairwise", 64,
                                           engine="simulate", fold="on"),
            "4d77c03c4e2b75e07bc6bad2ea867b30aad59a24de5c85a962b0f786c8788816",
            id="fold-on"),
        pytest.param(
            lambda: PointSpec.for_alltoall(
                tiny_cluster(2), 2, 2, "pairwise", 64, engine="simulate",
                faults=parse_faults("straggler:0,2;os-noise:1e-6;seed:5")),
            "6c70f20d315865b7565d72e02e88d03f0a4e8abc24de787ce2eb9fac1b39266b",
            id="faults"),
        pytest.param(
            lambda: PointSpec.for_alltoall(
                tiny_cluster(4, fabric=parse_fabric("fat-tree:hosts=2,oversub=4")),
                2, 4, "pairwise", 64, engine="simulate"),
            "362837bcd475c1bbb1e2ab319b0b34a2a6d72e7e60f428ecdf3a9ebe67c6376d",
            id="fat-tree"),
        pytest.param(
            lambda: PointSpec.for_alltoall(
                tiny_cluster(4, fabric=parse_fabric("dragonfly:hosts=2,routers=2,taper=4")),
                2, 4, "pairwise", 64, engine="simulate"),
            "43daaa6286deb4851a522188c6816b1cc9b0cefd23475f818eec333f555f0d22",
            id="dragonfly"),
        pytest.param(
            lambda: PointSpec.for_alltoall(tiny_cluster(2), 2, 2, "node-aware", 64,
                                           procs_per_group=2),
            "c56e2f5169826683ffc9822ac7c94d8af1b4615f057c4b9a7b459d2ba4f54810",
            id="model-engine"),
        pytest.param(
            _phased_spec,
            "f9a9facfd575854a7df06b9e253ffd591e05b94d0bd8a9931853f32d3d584f2c",
            id="phased"),
    ])
    def test_pinned_optional_key_branches(self, build, key):
        # Frozen literals, one per optional payload key or value branch: a
        # change to how the canonical form is assembled must not move any.
        assert build().key() == key


class TestPhasedSpecIdentity:
    def test_phased_payload_carries_phases(self):
        spec = _phased_spec()
        payload = spec.payload()
        assert "phases" in payload
        assert payload["algorithm"] == "phased"
        assert payload["engine"] == "simulate"

    def test_key_is_pure_function_of_plan(self):
        assert _phased_spec().key() == _phased_spec().key()

    def test_key_moves_with_workload_content(self):
        cluster = tiny_cluster(num_nodes=2)
        a = PointSpec.for_phased(
            cluster, 2, [PhasedJob.make(_workload(4, seed=0), "nonblocking", 2)]
        )
        b = PointSpec.for_phased(
            cluster, 2, [PhasedJob.make(_workload(4, seed=1), "nonblocking", 2)]
        )
        assert a.key() != b.key()

    def test_key_moves_with_assignment(self):
        cluster = tiny_cluster(num_nodes=2)
        a = PointSpec.for_phased(
            cluster, 2, [PhasedJob.make(_workload(4), "nonblocking", 2)]
        )
        b = PointSpec.for_phased(
            cluster, 2, [PhasedJob.make(_workload(4), ["nonblocking", "pairwise"], 2)]
        )
        assert a.key() != b.key()

    def test_phased_jobs_round_trip(self):
        jobs = [
            PhasedJob.make(_workload(4, seed=0), "nonblocking", 1),
            PhasedJob.make(_workload(4, seed=1), ["pairwise", "node-aware"], 1),
        ]
        spec = PointSpec.for_phased(tiny_cluster(num_nodes=2), 4, jobs)
        rebuilt = spec.phased_jobs()
        assert [job.workload for job in rebuilt] == [job.workload for job in jobs]
        assert [job.algorithms for job in rebuilt] == [job.algorithms for job in jobs]
        assert [job.num_nodes for job in rebuilt] == [job.num_nodes for job in jobs]
        # And rebuilding a spec from the round-tripped jobs lands on the key.
        assert PointSpec.for_phased(tiny_cluster(num_nodes=2), 4, rebuilt).key() == spec.key()

    def test_describe_counts_jobs_and_phases(self):
        assert "1 job(s), 2 phase(s)" in _phased_spec().describe()


class TestPhasedSpecValidation:
    def test_needs_at_least_one_job(self):
        with pytest.raises(ConfigurationError):
            PointSpec.for_phased(tiny_cluster(num_nodes=2), 2, [])

    def test_rejects_model_engine(self):
        spec = _phased_spec()
        with pytest.raises(ConfigurationError):
            PointSpec(
                cluster=spec.cluster, ppn=spec.ppn, num_nodes=spec.num_nodes,
                engine="model", algorithm="phased", phases=spec.phases,
            )

    def test_rejects_fold(self):
        spec = _phased_spec()
        with pytest.raises(ConfigurationError):
            PointSpec(
                cluster=spec.cluster, ppn=spec.ppn, num_nodes=spec.num_nodes,
                engine="simulate", algorithm="phased", phases=spec.phases,
                fold="auto",
            )

    def test_rejects_phases_plus_msg_bytes(self):
        spec = _phased_spec()
        with pytest.raises(ConfigurationError):
            PointSpec(
                cluster=spec.cluster, ppn=spec.ppn, num_nodes=spec.num_nodes,
                engine="simulate", algorithm="phased", phases=spec.phases,
                msg_bytes=64,
            )

    def test_non_phased_still_needs_exactly_one_payload(self):
        with pytest.raises(ConfigurationError):
            PointSpec(
                cluster=tiny_cluster(2), ppn=2, num_nodes=2,
                engine="simulate", algorithm="pairwise",
            )
