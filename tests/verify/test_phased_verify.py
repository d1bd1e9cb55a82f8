"""Tests of the phased verify family: sampler, differential runner, corpus."""

import pytest

from repro.errors import ConfigurationError
from repro.verify.differential import DifferentialRunner, verify_seed, verify_task
from repro.verify.golden import GOLDEN_SEEDS, PHASED_GOLDEN_SEEDS, build_corpus
from repro.verify.scenario import Scenario, ScenarioGenerator
from repro.workloads import Phase, PhasedWorkload, uniform

#: A seed known to sample the phased family under the phased-aware
#: generator at max_ranks=16 (see PHASED_GOLDEN_SEEDS for the 24-rank set).
PHASED_SEED = 2025100


class TestPhasedScenarioSampling:
    def test_phased_generator_samples_phased_family(self):
        generator = ScenarioGenerator(max_ranks=16, phased=True)
        families = {generator.scenario(seed).family for seed in range(2025100, 2025130)}
        assert "phased" in families
        assert families - {"phased"}, "non-phased families must still be sampled"

    def test_default_generator_never_samples_phased(self):
        generator = ScenarioGenerator(max_ranks=16)
        for seed in range(2025100, 2025130):
            assert generator.scenario(seed).family != "phased"

    def test_default_digests_unchanged_by_the_phased_option(self):
        # The invariant everything else hangs off: for any seed whose draw
        # misses the phased family, phased=True and phased=False sample the
        # *byte-identical* scenario.  (The phased roll consumes RNG state
        # only when it hits, by design of the sampling order.)
        plain = ScenarioGenerator(max_ranks=16)
        phased = ScenarioGenerator(max_ranks=16, phased=True)
        for seed in range(2025100, 2025130):
            sampled = phased.scenario(seed)
            if sampled.family == "phased":
                continue
            assert sampled.digest() == plain.scenario(seed).digest()

    def test_golden_seeds_digests_are_stable(self):
        # GOLDEN_SEEDS go through the default generator in the corpus; the
        # phased extension must not have moved any of them.
        plain = ScenarioGenerator()
        entries = build_corpus(GOLDEN_SEEDS, phased_seeds=())["entries"]
        for entry in entries:
            assert entry["digest"] == plain.scenario(entry["seed"]).digest()

    def test_phased_scenario_payload_carries_phases(self):
        generator = ScenarioGenerator(max_ranks=16, phased=True)
        scenario = generator.scenario(PHASED_SEED)
        assert scenario.family == "phased"
        assert "phases" in scenario.payload()
        assert scenario.pattern == "phased"
        assert scenario.phases.nprocs == scenario.nprocs

    def test_non_phased_payload_has_no_phases_key(self):
        generator = ScenarioGenerator(max_ranks=16)
        assert "phases" not in generator.scenario(2025000).payload()


class TestPhasedScenarioValidation:
    def _phases(self, nprocs=4):
        return PhasedWorkload((Phase("p0", uniform(nprocs, 8)),))

    def _scenario(self, **overrides):
        from repro.machine import tiny_cluster

        base = dict(
            seed=1, system="tiny", cluster=tiny_cluster(num_nodes=2),
            num_nodes=2, ppn=2, family="phased", msg_bytes=None, matrix=None,
            group_size=1, inner="pairwise", phases=self._phases(4),
        )
        base.update(overrides)
        return Scenario(**base)

    def test_phased_scenario_constructs(self):
        assert self._scenario().family == "phased"

    def test_phased_family_requires_matching_rank_count(self):
        with pytest.raises(ConfigurationError):
            self._scenario(ppn=4)  # 2 nodes x 4 ppn != 4 phase ranks

    def test_phased_family_requires_phases(self):
        with pytest.raises(ConfigurationError):
            self._scenario(phases=None)

    def test_other_families_reject_phases(self):
        with pytest.raises(ConfigurationError):
            self._scenario(family="uniform", msg_bytes=64)


class TestPhasedDifferential:
    def test_phased_seed_verifies_green(self):
        record = verify_seed(PHASED_SEED, 16, phased=True)
        assert record.family == "phased"
        assert record.ok, [f.detail for f in record.failures]
        assert len(record.verified) > 0

    def test_bit_identical_across_runs(self):
        first = verify_seed(PHASED_SEED, 16, phased=True)
        second = verify_seed(PHASED_SEED, 16, phased=True)
        assert first.digest == second.digest
        assert first.result_hash == second.result_hash
        assert first.ok == second.ok

    def test_verify_task_trailing_phased_slot(self):
        record = verify_task((PHASED_SEED, 16, None, None, True))
        assert record.family == "phased"
        assert record.ok

    def test_task_without_phased_slot_keeps_old_sampling(self):
        record = verify_task((PHASED_SEED, 16))
        assert record.family != "phased"

    def test_runner_skips_shrinking_phased_scenarios(self):
        scenario = ScenarioGenerator(max_ranks=16, phased=True).scenario(PHASED_SEED)
        runner = DifferentialRunner(shrink=True)
        record = runner.verify(scenario)
        assert record.ok


class TestPhasedGoldenCorpus:
    def test_phased_golden_seeds_sample_phased(self):
        generator = ScenarioGenerator(phased=True)
        for seed in PHASED_GOLDEN_SEEDS:
            assert generator.scenario(seed).family == "phased", seed

    def test_corpus_entries_tag_their_sampler(self):
        corpus = build_corpus((), phased_seeds=PHASED_GOLDEN_SEEDS[:1])
        (entry,) = corpus["entries"]
        assert entry["sampler"] == "phased"
        assert entry["family"] == "phased"

    def test_default_entries_carry_no_sampler_key(self):
        corpus = build_corpus(GOLDEN_SEEDS[:1], phased_seeds=())
        (entry,) = corpus["entries"]
        assert "sampler" not in entry
