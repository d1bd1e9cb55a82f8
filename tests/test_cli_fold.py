"""CLI surface of the folding refactor: --fold, --nodes paper, validation."""

import json

import pytest

from repro.cli import main


class TestPositiveCountValidation:
    """--nodes/--ppn must be rejected with a clean SystemExit, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "--nodes", "0"],
        ["run", "--nodes", "-3"],
        ["run", "--ppn", "0"],
        ["run", "--nodes", "two"],
        ["figures", "--id", "fig10", "--nodes", "-1"],
        ["figures", "--id", "fig10", "--ppn", "0"],
        ["select", "--nodes", "0"],
        ["select", "--ppn", "-2"],
        ["workload", "--nodes", "0"],
        ["workload", "--ppn", "-1"],
        ["trace", "--nodes", "-4"],
        ["trace", "--ppn", "0"],
    ])
    def test_rejected_cleanly(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage error
        assert "positive integer" in capsys.readouterr().err


class TestRunFold:
    def test_run_folded_reports_representatives(self, capsys):
        assert main(["run", "--system", "tiny", "--algorithm", "pairwise",
                     "--nodes", "4", "--ppn", "4", "--msg-bytes", "64",
                     "--fold", "on"]) == 0
        out = capsys.readouterr().out
        assert "[folded: 4 representatives x 4]" in out

    def test_run_folded_matches_unfolded_elapsed(self, capsys):
        main(["run", "--system", "tiny", "--algorithm", "pairwise",
              "--nodes", "4", "--ppn", "4", "--msg-bytes", "64"])
        plain = capsys.readouterr().out.splitlines()[0]
        main(["run", "--system", "tiny", "--algorithm", "pairwise",
              "--nodes", "4", "--ppn", "4", "--msg-bytes", "64", "--fold", "on"])
        folded = capsys.readouterr().out.splitlines()[0]
        plain_elapsed = plain.split("->")[1].split("s")[0].strip()
        folded_elapsed = folded.split("->")[1].split("s")[0].strip()
        assert plain_elapsed == folded_elapsed

    def test_nodes_paper_requires_table1_system(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--system", "tiny", "--nodes", "paper"])
        assert "Table-1" in str(exc.value)

    def test_nodes_paper_on_dragonfly_exits_instead_of_running_full_width(self):
        """Paper scale demands folding; a dragonfly cannot be folded, so the
        run exits cleanly rather than attempting 172,032 full-width ranks."""
        with pytest.raises(SystemExit, match="dragonfly"):
            main(["run", "--system", "dane", "--nodes", "paper", "--ppn", "112",
                  "--fabric", "dragonfly:1,2,4", "--msg-bytes", "4"])

    def test_fold_on_dragonfly_exits_cleanly(self):
        with pytest.raises(SystemExit, match="dragonfly"):
            main(["run", "--system", "tiny", "--algorithm", "pairwise",
                  "--nodes", "4", "--ppn", "4", "--msg-bytes", "64",
                  "--fabric", "dragonfly:1,2,2", "--fold", "on"])


class TestWorkloadFold:
    def test_workload_folds_symmetric_pattern(self, capsys):
        assert main(["workload", "--system", "tiny", "--pattern", "uniform",
                     "--algorithm", "pairwise", "--nodes", "4", "--ppn", "4",
                     "--msg-bytes", "64", "--fold", "auto", "--no-model"]) == 0
        out = capsys.readouterr().out
        assert "Folded: 4 representatives x 4" in out
        assert "validated against the reference transposition" in out

    def test_workload_fold_on_asymmetric_pattern_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["workload", "--system", "tiny", "--pattern", "skewed-moe",
                  "--algorithm", "pairwise", "--nodes", "4", "--ppn", "4",
                  "--msg-bytes", "64", "--fold", "on", "--no-model"])

    def test_workload_fold_auto_asymmetric_falls_back(self, capsys):
        assert main(["workload", "--system", "tiny", "--pattern", "skewed-moe",
                     "--algorithm", "pairwise", "--nodes", "4", "--ppn", "4",
                     "--msg-bytes", "64", "--fold", "auto", "--no-model"]) == 0
        assert "Folded:" not in capsys.readouterr().out

    def test_workload_fold_auto_on_dragonfly_runs_full_width(self, capsys):
        assert main(["workload", "--system", "tiny", "--pattern", "uniform",
                     "--algorithm", "pairwise", "--nodes", "4", "--ppn", "4",
                     "--msg-bytes", "64", "--fabric", "dragonfly:1,2,2",
                     "--fold", "auto", "--no-model"]) == 0
        out = capsys.readouterr().out
        assert "Folded:" not in out
        assert "validated against the reference transposition" in out


class TestCachedWorkloadFold:
    """``workload --cache-dir`` honours ``--fold`` like the direct path."""

    def test_cached_uniform_folds_and_stores_the_mode(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["workload", "--system", "tiny", "--pattern", "uniform",
                     "--algorithm", "pairwise", "--nodes", "4", "--ppn", "4",
                     "--msg-bytes", "64", "--fold", "on", "--no-model",
                     "--cache-dir", str(cache)]) == 0
        entries = list(cache.glob("??/*.json"))
        assert len(entries) == 1
        assert json.loads(entries[0].read_text())["spec"]["fold"] == "on"

    def test_cached_fold_on_asymmetric_pattern_exits_like_direct_path(self, tmp_path):
        argv = ["workload", "--system", "tiny", "--pattern", "skewed-moe",
                "--algorithm", "pairwise", "--nodes", "4", "--ppn", "4",
                "--msg-bytes", "64", "--fold", "on", "--no-model"]
        with pytest.raises(SystemExit) as direct:
            main(argv)
        cache = tmp_path / "cache"
        with pytest.raises(SystemExit) as cached:
            main([*argv, "--cache-dir", str(cache)])
        assert "fold requested but the traffic is not foldable" in str(direct.value.code)
        assert cached.value.code == direct.value.code
        assert not list(cache.glob("??/*.json"))


class TestVerifyFoldGate:
    def test_fold_gate_green(self, capsys):
        assert main(["verify", "--count", "1", "--fold-gate"]) == 0
        out = capsys.readouterr().out
        assert "fold gate: PASS" in out
