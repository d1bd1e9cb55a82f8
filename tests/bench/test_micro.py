"""Tests of the hot-path microbenchmark subsystem (repro.bench.micro)."""

import json

import pytest

from repro.bench import micro
from repro.errors import ConfigurationError


#: Two canonical keys: only points still in the suite survive a partial merge.
_A, _B = (job.key for job in micro.CANONICAL_JOBS[:2])


def _result(key, wall, events=1000):
    return micro.MicroResult(key=key, description=key, wall_seconds=wall,
                             sim_elapsed=1e-4, events=events, repeats=1)


class TestRunJob:
    def test_times_a_small_uniform_job(self):
        job = micro.MicroJob(key="t/pairwise", kind="uniform", algorithm="pairwise",
                             nodes=2, ppn=2, msg_bytes=64)
        result = micro.run_job(job, repeats=1)
        assert result.wall_seconds > 0.0
        assert result.events > 0
        assert result.sim_elapsed > 0.0
        assert result.events_per_sec > 0.0

    def test_times_a_small_workload_job(self):
        job = micro.MicroJob(key="t/workload", kind="workload", algorithm="pairwise",
                             nodes=2, ppn=2, msg_bytes=32, pattern="skewed-moe")
        result = micro.run_job(job, repeats=1)
        assert result.events > 0

    def test_rejects_zero_repeats(self):
        job = micro.CANONICAL_JOBS[0]
        with pytest.raises(ConfigurationError):
            micro.run_job(job, repeats=0)

    def test_quick_subset_is_nonempty_and_proper(self):
        quick = micro.quick_jobs()
        assert quick
        assert len(quick) < len(micro.CANONICAL_JOBS)
        assert all(job.quick for job in quick)

    def test_canonical_keys_are_unique(self):
        keys = [job.key for job in micro.CANONICAL_JOBS]
        assert len(keys) == len(set(keys))

    def test_headline_point_present(self):
        assert any(job.key == "pairwise/64n8p/256B" for job in micro.CANONICAL_JOBS)


class TestReport:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        report = micro.load_report(path)  # missing file -> skeleton
        micro.merge_results(report, [_result("a", 1.0)], 0.5, label="first")
        micro.write_report(report, path)
        loaded = micro.load_report(path)
        assert loaded["current"]["points"]["a"]["wall_seconds"] == 1.0
        assert loaded["current"]["calibration_seconds"] == 0.5

    def test_quick_merge_keeps_unmeasured_points(self, tmp_path):
        report = {"schema": 1}
        micro.merge_results(report, [_result(_A, 1.0), _result(_B, 2.0)], 0.5,
                            label="full")
        micro.merge_results(report, [_result(_A, 0.9)], 0.5, label="quick")
        points = report["current"]["points"]
        assert points[_A]["wall_seconds"] == 0.9
        assert points[_B]["wall_seconds"] == 2.0, "quick runs must not erase points"

    def test_merge_drops_retired_points(self):
        report = {"schema": 1}
        micro.merge_results(report, [_result(_A, 1.0), _result("retired/job", 2.0)],
                            0.5, label="old suite")
        micro.merge_results(report, [_result(_A, 0.9)], 0.5, label="quick")
        assert set(report["current"]["points"]) == {_A}, (
            "a key no longer in CANONICAL_JOBS must not be carried over"
        )

    def test_kept_points_retain_their_own_calibration(self):
        # Full run on a fast machine (0.5s probe), then a quick run on a 2x
        # slower machine (1.0s probe) re-measuring only point A: point B
        # must keep the calibration it was measured under, so a later check
        # on the fast machine does not scale it by the slow probe.
        report = {"schema": 1}
        micro.merge_results(report, [_result(_A, 1.0), _result(_B, 2.0)], 0.5,
                            label="full fast machine")
        micro.merge_results(report, [_result(_A, 2.0)], 1.0, label="quick slow machine")
        points = report["current"]["points"]
        assert points[_B]["calibration_seconds"] == 0.5
        problems = micro.compare_results(
            report, [_result(_A, 2.0), _result(_B, 2.0)], 1.0, tolerance=0.25
        )
        assert problems == [], "b's 2x wall on the 2x-slower machine is not a regression"

    def test_speedup_derived_from_baseline_and_current(self):
        report = {"schema": 1}
        micro.merge_results(report, [_result("a", 3.0)], 0.5, label="pre",
                            section="baseline")
        micro.merge_results(report, [_result("a", 1.0)], 0.5, label="post")
        assert report["speedup"]["a"] == pytest.approx(3.0)

    def test_malformed_report_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ConfigurationError):
            micro.load_report(path)
        path.write_text(json.dumps({"schema": 99}))
        with pytest.raises(ConfigurationError):
            micro.load_report(path)


class TestCompare:
    def _report(self, wall=1.0, calibration=0.5):
        report = {"schema": 1}
        micro.merge_results(report, [_result("a", wall)], calibration, label="rec")
        return report

    def test_no_regression_within_tolerance(self):
        report = self._report(wall=1.0)
        problems = micro.compare_results(report, [_result("a", 1.2)], 0.5,
                                         tolerance=0.25)
        assert problems == []

    def test_regression_detected(self):
        report = self._report(wall=1.0)
        problems = micro.compare_results(report, [_result("a", 1.3)], 0.5,
                                         tolerance=0.25)
        assert len(problems) == 1 and "a" in problems[0]

    def test_slower_machine_is_scaled_out(self):
        # The checking machine's calibration probe is 2x slower, so a 2x
        # wall-clock is expected and must not be flagged.
        report = self._report(wall=1.0, calibration=0.5)
        problems = micro.compare_results(report, [_result("a", 2.0)], 1.0,
                                         tolerance=0.25)
        assert problems == []

    def test_empty_report_is_a_problem(self):
        problems = micro.compare_results({"schema": 1}, [_result("a", 1.0)], 0.5)
        assert problems

    def test_disjoint_points_are_a_problem(self):
        report = self._report()
        problems = micro.compare_results(report, [_result("zzz", 1.0)], 0.5)
        assert problems, "no overlap means the check silently checks nothing"

    def test_formats_results_with_baseline_ratio(self):
        report = {"schema": 1}
        micro.merge_results(report, [_result("a", 2.0)], 0.5, label="pre",
                            section="baseline")
        text = micro.format_results([_result("a", 1.0)], report)
        assert "2.00x" in text
