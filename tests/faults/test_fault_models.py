"""Behavioural contract of the fault models against the simulated machine.

Three invariants matter:

* **off = bit-identical** — an absent or empty FaultSpec must leave every
  simulated timing exactly as it was (the golden timing fixture pins the
  same thing end to end);
* **determinism** — a given (FaultSpec, seed) produces exactly the same
  timings on every run;
* **direction** — degraded links and flapping links can only slow the
  traffic that crosses them; inert patterns change nothing.
"""

import pytest

from repro.core.runner import run_alltoall, run_workload
from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultSpec, parse_faults
from repro.machine.process_map import ProcessMap
from repro.machine.systems import dane, tiny_cluster
from repro.netsim.fabric import parse_fabric
from repro.simmpi.engine import SpmdEngine
from repro.workloads import skewed_moe

DRAGONFLY = "dragonfly:hosts=1,routers=2,taper=2"


def _dragonfly_pmap(nodes=4, ppn=4) -> ProcessMap:
    cluster = dane(nodes).with_fabric(parse_fabric(DRAGONFLY))
    return ProcessMap(cluster, ppn=ppn, num_nodes=nodes)


def _tiny_pmap(nodes=2, ppn=4) -> ProcessMap:
    return ProcessMap(tiny_cluster(num_nodes=nodes), ppn=ppn)


def _elapsed(pmap, faults=None, *, algorithm="pairwise", msg_bytes=64):
    return run_alltoall(algorithm, pmap, msg_bytes, keep_job=False,
                        faults=faults).elapsed


class TestOffIsBitIdentical:
    def test_empty_spec_equals_absent(self):
        pmap = _dragonfly_pmap()
        assert _elapsed(pmap, FaultSpec()) == _elapsed(pmap, None)

    def test_empty_spec_equals_absent_on_fabricless_machine(self):
        pmap = _tiny_pmap()
        assert _elapsed(pmap, FaultSpec()) == _elapsed(pmap, None)

    def test_inert_link_pattern_changes_nothing(self):
        pmap = _dragonfly_pmap()
        inert = parse_faults("degraded-link:no-such-link-*,0.1")
        assert _elapsed(pmap, inert) == _elapsed(pmap, None)

    def test_out_of_range_straggler_changes_nothing(self):
        pmap = _tiny_pmap(nodes=2)
        inert = parse_faults("straggler:99,8")
        assert _elapsed(pmap, inert) == _elapsed(pmap, None)

    def test_duty_one_flap_changes_nothing(self):
        pmap = _dragonfly_pmap()
        always_up = parse_faults("flapping-link:*,1e-6,1.0")
        assert _elapsed(pmap, always_up) == _elapsed(pmap, None)


class TestFaultDirection:
    def test_degraded_link_slows_crossing_traffic(self):
        pmap = _dragonfly_pmap()
        degraded = parse_faults("degraded-link:df-g0-1,0.125")
        assert _elapsed(pmap, degraded, msg_bytes=1024) > _elapsed(pmap, None,
                                                                   msg_bytes=1024)

    def test_degradation_stacks_multiplicatively(self):
        pmap = _dragonfly_pmap()
        once = parse_faults("degraded-link:df-g0-1,0.25")
        stacked = parse_faults("degraded-link:df-g0-1,0.5;degraded-link:df-g0-1,0.5")
        assert _elapsed(pmap, once, msg_bytes=1024) == \
            _elapsed(pmap, stacked, msg_bytes=1024)

    def test_flapping_link_never_speeds_up(self):
        pmap = _dragonfly_pmap()
        flap = parse_faults("flapping-link:df-g*,4e-6,0.5")
        assert _elapsed(pmap, flap, msg_bytes=1024) >= _elapsed(pmap, None,
                                                                msg_bytes=1024)

    def test_straggler_changes_timing(self):
        pmap = _tiny_pmap()
        slow = parse_faults("straggler:0,4")
        assert _elapsed(pmap, slow) != _elapsed(pmap, None)

    def test_os_noise_changes_timing(self):
        pmap = _tiny_pmap()
        noisy = parse_faults("os-noise:1e-6")
        assert _elapsed(pmap, noisy) != _elapsed(pmap, None)


ALL_KINDS = [
    "degraded-link:df-g0-1,0.25",
    "flapping-link:df-g*,4e-6,0.5",
    "straggler:0,2",
    "os-noise:1e-6",
    "degraded-link:df-*,0.5;straggler:1,1.5;os-noise:5e-7;seed:11",
]


class TestDeterminism:
    @pytest.mark.parametrize("algorithm", ["pairwise", "node-aware"])
    @pytest.mark.parametrize("text", ALL_KINDS)
    def test_repeat_runs_are_bit_identical(self, text, algorithm):
        pmap = _dragonfly_pmap()
        faults = parse_faults(text)
        assert _elapsed(pmap, faults, algorithm=algorithm) == \
            _elapsed(pmap, faults, algorithm=algorithm)

    def test_noise_seed_changes_timings(self):
        pmap = _tiny_pmap()
        assert _elapsed(pmap, parse_faults("os-noise:1e-6;seed:1")) != \
            _elapsed(pmap, parse_faults("os-noise:1e-6;seed:2"))

    def test_faulted_workload_still_validates(self):
        pmap = _dragonfly_pmap()
        matrix = skewed_moe(pmap.nprocs, 64, seed=0)
        outcome = run_workload("node-aware", pmap, matrix, keep_job=False,
                               faults=parse_faults("degraded-link:df-g0-1,0.25"))
        assert outcome.correct


class TestRejections:
    def test_faults_with_fold_rejected_by_runner(self):
        pmap = _tiny_pmap(nodes=2)
        with pytest.raises(ConfigurationError, match="fold"):
            run_alltoall("pairwise", pmap, 16, fold="on",
                         faults=parse_faults("os-noise:1e-6"))

    def test_faults_with_folded_pmap_rejected_by_engine(self):
        pmap = _tiny_pmap(nodes=2).folded()
        with pytest.raises(SimulationError):
            SpmdEngine(pmap, faults=parse_faults("os-noise:1e-6"))
