"""Tests for phased runs: PhasedJob, run_phased, job views and select_phased."""

import numpy as np
import pytest

from repro.core import (
    PhasedJob,
    run_phased,
    run_phased_workload,
)
from repro.core.selection import CandidateConfig, select_phased
from repro.errors import ConfigurationError
from repro.machine import ProcessMap, tiny_cluster
from repro.netsim.fabric import parse_fabric
from repro.workloads import Phase, PhasedWorkload, skewed_moe, uniform


def _workload(nprocs: int, seed: int = 0) -> PhasedWorkload:
    return PhasedWorkload(
        (
            Phase("dispatch", skewed_moe(nprocs, 128, seed=seed), repeats=2),
            Phase("combine", uniform(nprocs, 8)),
        )
    )


class TestPhasedJob:
    def test_broadcasts_single_algorithm_to_all_phases(self):
        job = PhasedJob.make(_workload(4), "nonblocking", 2)
        assert job.algorithms == (("nonblocking", ()), ("nonblocking", ()))

    def test_accepts_name_options_pairs(self):
        job = PhasedJob.make(_workload(4), ("node-aware", {"inner": "nonblocking"}), 2)
        assert job.algorithms[0] == ("node-aware", (("inner", "nonblocking"),))

    def test_accepts_candidate_configs(self):
        candidate = CandidateConfig.make("node-aware", inner="nonblocking")
        job = PhasedJob.make(_workload(4), candidate, 2)
        assert job.algorithms[1][0] == "node-aware"

    def test_per_phase_sequence_must_match_phase_count(self):
        with pytest.raises(ConfigurationError):
            PhasedJob.make(_workload(4), ["nonblocking"], 2)

    def test_rejects_uninterpretable_entries(self):
        with pytest.raises(ConfigurationError):
            PhasedJob.make(_workload(4), [42, 43], 2)

    def test_describe_assignment_names_phases(self):
        job = PhasedJob.make(_workload(4), ["pairwise", "nonblocking"], 2)
        assert job.describe_assignment() == "dispatch=pairwise; combine=nonblocking"


class TestRunPhasedSingleJob:
    def test_runs_phases_back_to_back(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=2)
        outcome = run_phased_workload("nonblocking", pmap, _workload(4))
        assert outcome.correct
        assert len(outcome.jobs) == 1
        job = outcome.jobs[0]
        assert [p.name for p in job.phases] == ["dispatch", "combine"]
        assert all(p.correct for p in job.phases)
        assert outcome.elapsed > 0.0

    def test_phase_labels_and_totals_recorded(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=2)
        outcome = run_phased_workload("nonblocking", pmap, _workload(4))
        assert "phase0:dispatch" in outcome.phase_times
        assert "phase1:combine" in outcome.phase_times
        assert "job:total" in outcome.phase_times
        total = outcome.phase_times["job:total"]
        assert total == pytest.approx(outcome.elapsed)

    def test_rejects_rank_count_mismatch(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=2)
        with pytest.raises(ConfigurationError):
            run_phased_workload("nonblocking", pmap, _workload(8))

    def test_bit_identical_across_runs(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=4), ppn=2)
        workload = _workload(8)
        reference = run_phased_workload("node-aware", pmap, workload)
        outcome = run_phased_workload("node-aware", pmap, workload)
        assert outcome.elapsed == reference.elapsed
        assert outcome.phase_times == reference.phase_times
        for got, want in zip(outcome.job.results, reference.job.results):
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


class TestRunPhasedMultiJob:
    def _pmap(self, num_nodes=4, ppn=2):
        cluster = tiny_cluster(num_nodes=num_nodes).with_fabric(
            parse_fabric("dragonfly:hosts=1,routers=2,taper=4")
        )
        return ProcessMap(cluster, ppn=ppn)

    def test_two_jobs_share_one_timeline(self):
        pmap = self._pmap()
        jobs = [
            PhasedJob.make(_workload(4, seed=0), "nonblocking", 2),
            PhasedJob.make(_workload(4, seed=1), "pairwise", 2),
        ]
        outcome = run_phased(jobs, pmap)
        assert outcome.correct
        assert len(outcome.jobs) == 2
        assert "job0/phase0:dispatch" in outcome.phase_times
        assert "job1/phase1:combine" in outcome.phase_times
        assert outcome.elapsed == pytest.approx(
            max(job.elapsed for job in outcome.jobs)
        )

    def test_interference_slows_a_tenant_down(self):
        # The same job alone on the machine vs sharing the fabric with a
        # busy neighbour: contention must never make it *faster*.
        pmap = self._pmap()
        alone = run_phased(
            [PhasedJob.make(_workload(4, seed=0), "nonblocking", 2)],
            ProcessMap(pmap.cluster, ppn=2, num_nodes=2),
        )
        shared = run_phased(
            [
                PhasedJob.make(_workload(4, seed=0), "nonblocking", 2),
                PhasedJob.make(_workload(4, seed=1), "nonblocking", 2),
            ],
            pmap,
        )
        assert shared.jobs[0].elapsed >= alone.jobs[0].elapsed

    def test_node_counts_must_sum_to_machine(self):
        pmap = self._pmap()
        with pytest.raises(ConfigurationError):
            run_phased([PhasedJob.make(_workload(4), "nonblocking", 2)], pmap)

    def test_job_rank_count_must_match_slice(self):
        pmap = self._pmap()
        with pytest.raises(ConfigurationError):
            run_phased(
                [
                    PhasedJob.make(_workload(8), "nonblocking", 2),
                    PhasedJob.make(_workload(4), "nonblocking", 2),
                ],
                pmap,
            )

    def test_multi_job_bit_identical_across_runs(self):
        pmap = self._pmap()
        jobs = [
            PhasedJob.make(_workload(4, seed=0), "nonblocking", 2),
            PhasedJob.make(_workload(4, seed=1), "node-aware", 2),
        ]
        reference = run_phased(jobs, pmap)
        outcome = run_phased(jobs, pmap)
        assert outcome.elapsed == reference.elapsed
        assert outcome.phase_times == reference.phase_times


class TestSelectPhased:
    def test_adaptive_never_beats_static_by_construction(self):
        selection = select_phased(tiny_cluster(num_nodes=2), 2, _workload(4))
        assert selection.adaptive_seconds <= selection.static_seconds
        assert len(selection.choices) == 2
        assert selection.static in selection.candidates

    def test_assignment_matches_choices(self):
        selection = select_phased(tiny_cluster(num_nodes=2), 2, _workload(4))
        assert selection.assignment == [c.candidate for c in selection.choices]
        assert selection.is_flip == any(
            c.candidate != selection.static for c in selection.choices
        )

    def test_rejects_indivisible_rank_count(self):
        with pytest.raises(ConfigurationError):
            select_phased(tiny_cluster(num_nodes=2), 3, _workload(4))

    def test_inapplicable_candidates_are_skipped(self):
        candidates = [
            CandidateConfig.make("nonblocking"),
            CandidateConfig.make("node-aware", procs_per_group=3),  # ppn=2: invalid
        ]
        selection = select_phased(
            tiny_cluster(num_nodes=2), 2, _workload(4), candidates=candidates
        )
        assert [c.describe() for c in selection.skipped] == [candidates[1].describe()]
        assert selection.candidates == [candidates[0]]

    def test_all_inapplicable_raises(self):
        candidates = [CandidateConfig.make("node-aware", procs_per_group=3)]
        with pytest.raises(ConfigurationError):
            select_phased(
                tiny_cluster(num_nodes=2), 2, _workload(4), candidates=candidates
            )
