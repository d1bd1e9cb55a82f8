"""Tests for the ``repro-bench verify`` subcommand."""

import json

import pytest

from repro.cli import main
from repro.verify import VerificationRecord
from repro.verify.golden import GOLDEN_SEEDS, write_corpus


class TestArguments:
    def test_invalid_count_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--count", "0"])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--jobs", "-2"])

    def test_invalid_max_ranks_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--max-ranks", "0"])

    def test_count_rejected_at_parse_time(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--count", "-3"])
        assert excinfo.value.code == 2


class TestSweep:
    def test_small_green_sweep_exits_zero(self, capsys):
        assert main(["verify", "--seed", "2025", "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 scenario(s)" in out and "0 scenario(s) failing" in out
        assert "seed 2025" in out and "seed 2027" in out

    def test_max_ranks_is_honoured(self, capsys):
        assert main(["verify", "--seed", "1", "--count", "2", "--max-ranks", "4"]) == 0

    def test_sweep_is_deterministic(self, capsys):
        assert main(["verify", "--seed", "2025", "--count", "2"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "2025", "--count", "2"]) == 0
        assert capsys.readouterr().out == first

    def test_failure_exits_nonzero_with_reproducer(self, capsys, monkeypatch):
        import repro.verify

        def failing_task(task):
            seed = task[0]
            record = VerificationRecord(
                seed=seed, digest="f" * 64, family="uniform",
                description="injected", result_hash="0" * 64,
            )
            from repro.verify import FailureReport

            record.failures.append(FailureReport(
                kind="mismatch", seed=seed, digest="f" * 64,
                algorithm="pairwise", detail="injected failure",
            ))
            return record

        monkeypatch.setattr(repro.verify, "verify_task", failing_task)
        assert main(["verify", "--seed", "5", "--count", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAILURE [mismatch]" in out
        assert "repro-bench verify --seed 5 --count 1" in out


class TestGoldenFlag:
    def test_consistent_corpus_passes(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus.json", GOLDEN_SEEDS[:2])
        code = main(["verify", "--seed", "2025", "--count", "1",
                     "--golden", str(corpus)])
        assert code == 0
        assert "golden corpus: consistent" in capsys.readouterr().out

    def test_drifted_corpus_fails(self, tmp_path, capsys):
        corpus = write_corpus(tmp_path / "corpus.json", GOLDEN_SEEDS[:2])
        data = json.loads(corpus.read_text())
        data["entries"][0]["digest"] = "0" * 64
        corpus.write_text(json.dumps(data))
        code = main(["verify", "--seed", "2025", "--count", "1",
                     "--golden", str(corpus)])
        assert code == 1
        assert "digest changed" in capsys.readouterr().err


class TestPhasedFlag:
    def test_phased_sweep_exits_zero(self, capsys):
        # Seed 2025100 samples the phased family under --phased.
        assert main(["verify", "--seed", "2025100", "--count", "2",
                     "--phased", "--max-ranks", "12"]) == 0
        out = capsys.readouterr().out
        assert "phased" in out

    def test_phased_flag_off_keeps_old_sampling(self, capsys):
        assert main(["verify", "--seed", "2025100", "--count", "1",
                     "--max-ranks", "12"]) == 0
        assert "phased" not in capsys.readouterr().out
