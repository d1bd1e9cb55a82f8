"""Tests for the repro-bench command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--id", "fig99"])


class TestCommands:
    def test_systems(self, capsys):
        assert main(["systems"]) == 0
        out = capsys.readouterr().out
        assert "dane" in out and "tuolomne" in out

    def test_single_figure_table(self, capsys):
        assert main(["figures", "--id", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "System MPI" in out and "Multileader + Locality" in out

    def test_single_figure_csv(self, capsys):
        assert main(["figures", "--id", "fig15", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("nodes,")

    def test_run_reports_outcome(self, capsys):
        code = main([
            "run", "--system", "dane", "--nodes", "2", "--ppn", "4",
            "--algorithm", "node-aware", "--msg-bytes", "64",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "node-aware" in out and "inter-node messages" in out

    def test_run_with_group_size(self, capsys):
        code = main([
            "run", "--system", "dane", "--nodes", "2", "--ppn", "4",
            "--algorithm", "multileader-node-aware", "--group-size", "2", "--msg-bytes", "32",
        ])
        assert code == 0
        assert "procs_per_leader=2" in capsys.readouterr().out

    def test_run_group_size_invalid_for_flat_algorithm(self):
        with pytest.raises(SystemExit):
            main([
                "run", "--system", "dane", "--nodes", "2", "--ppn", "4",
                "--algorithm", "pairwise", "--group-size", "2",
            ])

    def test_select_prints_table(self, capsys):
        assert main(["select", "--system", "dane", "--nodes", "8", "--ppn", "16",
                     "--sizes", "4", "4096"]) == 0
        out = capsys.readouterr().out
        assert "4 B" in out or "      4 B" in out
        assert "->" in out


class TestSelectCommand:
    def test_covers_all_requested_sizes(self, capsys):
        assert main(["select", "--system", "dane", "--nodes", "4", "--ppn", "8",
                     "--sizes", "4", "64", "1024"]) == 0
        out = capsys.readouterr().out
        for size in ("4 B", "64 B", "1024 B"):
            assert size in out

    def test_default_ppn_uses_all_cores(self, capsys):
        assert main(["select", "--system", "tuolomne", "--nodes", "2", "--sizes", "64"]) == 0
        assert "x 96 ppn" in capsys.readouterr().out

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            main(["select", "--system", "frontier"])

    def test_header_names_system_and_shape(self, capsys):
        assert main(["select", "--system", "amber", "--nodes", "2", "--ppn", "4",
                     "--sizes", "16"]) == 0
        out = capsys.readouterr().out
        assert "amber" in out and "(2 nodes x 4 ppn)" in out


class TestFiguresSystemFlags:
    def test_simulate_honours_system_choice(self, capsys):
        assert main(["figures", "--id", "fig10", "--engine", "simulate",
                     "--system", "tuolomne", "--nodes", "2", "--ppn", "4"]) == 0
        out = capsys.readouterr().out
        assert "tuolomne" in out
        assert "2 nodes x 4 ppn" in out

    def test_simulate_defaults_to_dane(self, capsys):
        assert main(["figures", "--id", "fig16", "--engine", "simulate",
                     "--nodes", "2", "--ppn", "4"]) == 0
        out = capsys.readouterr().out
        assert "dane" in out and "4 ppn" in out

    def test_model_engine_system_override(self, capsys):
        assert main(["figures", "--id", "fig10", "--system", "amber", "--nodes", "4"]) == 0
        assert "amber" in capsys.readouterr().out

    def test_model_engine_defaults_preserved(self, capsys):
        """Without --system, figure 17 still runs on its own system (Amber)."""
        assert main(["figures", "--id", "fig17"]) == 0
        assert "amber" in capsys.readouterr().out


class TestWorkloadCommand:
    def test_skewed_moe_end_to_end(self, capsys):
        code = main(["workload", "--pattern", "skewed-moe", "--algorithm", "node-aware",
                     "--system", "dane", "--nodes", "2", "--ppn", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "skewed-moe" in out
        assert "validated against the reference transposition" in out
        assert "Model prediction" in out

    def test_sparse_pattern_options(self, capsys):
        code = main(["workload", "--pattern", "sparse", "--algorithm", "pairwise",
                     "--system", "dane", "--nodes", "2", "--ppn", "4",
                     "--out-degree", "2", "--seed", "3"])
        assert code == 0
        assert "sparse" in capsys.readouterr().out

    def test_group_size_for_node_aware(self, capsys):
        code = main(["workload", "--pattern", "uniform", "--algorithm", "node-aware",
                     "--system", "dane", "--nodes", "2", "--ppn", "4",
                     "--group-size", "2", "--inner", "nonblocking"])
        assert code == 0
        assert "procs_per_group=2" in capsys.readouterr().out

    def test_group_size_invalid_for_flat_algorithm(self):
        with pytest.raises(SystemExit):
            main(["workload", "--pattern", "uniform", "--algorithm", "pairwise",
                  "--system", "dane", "--nodes", "2", "--ppn", "4", "--group-size", "2"])

    def test_trace_replay(self, tmp_path, capsys):
        import json

        path = tmp_path / "trace.json"
        matrix = [[0 if s == d else 16 for d in range(8)] for s in range(8)]
        path.write_text(json.dumps({"nprocs": 8, "bytes": matrix}))
        code = main(["workload", "--pattern", "trace", "--trace", str(path),
                     "--system", "dane", "--nodes", "2", "--ppn", "4"])
        assert code == 0
        assert "trace" in capsys.readouterr().out

    def test_trace_requires_file(self):
        with pytest.raises(SystemExit):
            main(["workload", "--pattern", "trace", "--system", "dane",
                  "--nodes", "2", "--ppn", "4"])

    def test_trace_size_mismatch_rejected(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"bytes": [[0, 8], [8, 0]]}))
        with pytest.raises(SystemExit):
            main(["workload", "--pattern", "trace", "--trace", str(path),
                  "--system", "dane", "--nodes", "2", "--ppn", "4"])

    def test_no_model_flag(self, capsys):
        code = main(["workload", "--pattern", "uniform", "--algorithm", "nonblocking",
                     "--system", "dane", "--nodes", "2", "--ppn", "4", "--no-model"])
        assert code == 0
        assert "Model prediction" not in capsys.readouterr().out

    def test_unknown_pattern_rejected(self):
        with pytest.raises(SystemExit):
            main(["workload", "--pattern", "fractal", "--system", "dane"])


class TestFiguresNodeClamping:
    def test_node_scaling_figure_on_small_cluster(self, capsys):
        """fig11 sweeps the paper's node counts; a 2-node override clamps the sweep."""
        assert main(["figures", "--id", "fig11", "--system", "dane", "--nodes", "2",
                     "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("nodes,")
        assert "\n2," in out and "\n4," not in out

    def test_nodes_without_system_rejected_for_model_engine(self):
        with pytest.raises(SystemExit):
            main(["figures", "--id", "fig10", "--nodes", "2"])


class TestRuntimeFlags:
    def test_figures_cache_second_run_simulates_nothing(self, tmp_path, capsys):
        argv = ["figures", "--id", "fig16", "--engine", "simulate", "--nodes", "2",
                "--ppn", "4", "--csv", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "0 served from cache" in first.err
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "jobs=1: 0 point(s) simulated" in second.err
        assert second.out == first.out  # cached data is byte-identical

    def test_figures_no_cache_ignores_cache_dir(self, tmp_path, capsys):
        argv = ["figures", "--id", "fig16", "--engine", "simulate", "--nodes", "2",
                "--ppn", "4", "--csv", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--no-cache"]) == 0
        err = capsys.readouterr().err
        assert err == ""  # --no-cache with jobs=1 takes the plain inline path

    def test_figures_parallel_matches_serial(self, capsys):
        base = ["figures", "--id", "fig16", "--system", "tiny", "--nodes", "2",
                "--ppn", "4", "--csv"]
        assert main(base) == 0
        serial = capsys.readouterr().out
        assert main(base + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_select_simulate_engine(self, tmp_path, capsys):
        argv = ["select", "--system", "tiny", "--nodes", "2", "--ppn", "4",
                "--sizes", "16", "64", "--engine", "simulate",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "[measured, simulate engine]" in out
        assert "16 B ->" in out.replace("     ", " ") or "->" in out
        assert main(argv) == 0
        assert "jobs=1: 0 point(s) simulated" in capsys.readouterr().err

    def test_workload_cached_timing(self, tmp_path, capsys):
        argv = ["workload", "--pattern", "uniform", "--algorithm", "pairwise",
                "--system", "dane", "--nodes", "2", "--ppn", "4",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "timing via runtime executor" in first.out
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "jobs=1: 0 point(s) simulated" in second.err
        assert second.out == first.out

    def test_workload_jobs_without_cache_still_validates(self, capsys):
        code = main(["workload", "--pattern", "uniform", "--algorithm", "pairwise",
                     "--system", "dane", "--nodes", "2", "--ppn", "4", "--jobs", "4"])
        assert code == 0
        out = capsys.readouterr().out
        # A lone point gains nothing from a pool; the validated direct path
        # (and its exit-code contract) is kept unless a store is requested.
        assert "validated against the reference transposition" in out
        assert "timing via runtime executor" not in out

    def test_negative_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["figures", "--id", "fig16", "--engine", "simulate", "--nodes", "2",
                  "--ppn", "4", "--jobs", "-2"])


class TestArgumentValidation:
    """Count-like flags must be rejected at parse time with a clean exit."""

    @pytest.mark.parametrize("argv", [
        ["run", "--msg-bytes", "0"],
        ["figures", "--jobs", "-1"],
        ["figures", "--jobs", "x"],
        ["select", "--sizes", "4", "0"],
        ["workload", "--msg-bytes", "-8"],
        ["perf", "--repeats", "0"],
    ])
    def test_non_positive_counts_rejected_at_parse_time(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2  # argparse usage error, not a traceback

    def test_jobs_zero_means_all_cores_and_is_accepted(self, capsys):
        assert main(["figures", "--id", "fig16", "--engine", "simulate",
                     "--nodes", "2", "--ppn", "4", "--jobs", "0"]) == 0


class TestOutputDeterminism:
    def test_run_output_identical_across_runs(self, capsys):
        argv = ["run", "--system", "dane", "--nodes", "4", "--ppn", "2",
                "--algorithm", "pairwise", "--msg-bytes", "256"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_figures_output_identical_across_runs(self, capsys):
        argv = ["figures", "--id", "fig10", "--engine", "simulate",
                "--nodes", "2", "--ppn", "4", "--csv"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestTraceCommand:
    def test_uniform_trace_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        code = main(["trace", "--algorithm", "node-aware", "--system", "dane",
                     "--nodes", "8", "--ppn", "2", "--msg-bytes", "128",
                     "--fabric", "dragonfly:hosts=2,routers=2,taper=4",
                     "--out", str(out_path), "--metrics-out", str(metrics_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sink event(s) recorded" in out
        assert "Metrics:" in out

        import json

        from repro.obs.schema import validate_chrome_trace

        summary = validate_chrome_trace(out_path)
        assert summary.tracks("ranks") >= 1
        assert summary.tracks("fabric links") >= 1
        metrics = json.loads(metrics_path.read_text(encoding="utf-8"))
        assert metrics["matching"]["matches"] > 0
        assert metrics["fabric"]["bytes"] > 0

    def test_positional_fabric_spec_accepted(self, tmp_path):
        code = main(["trace", "--algorithm", "pairwise", "--nodes", "4", "--ppn", "2",
                     "--fabric", "dragonfly:1,2,4",
                     "--out", str(tmp_path / "t.json")])
        assert code == 0

    def test_workload_pattern_trace(self, tmp_path, capsys):
        code = main(["trace", "--pattern", "skewed-moe", "--algorithm", "node-aware",
                     "--nodes", "4", "--ppn", "4", "--msg-bytes", "64",
                     "--out", str(tmp_path / "t.json")])
        assert code == 0
        assert "pattern=skewed-moe" not in capsys.readouterr().err

    def test_pattern_requires_v_algorithm(self, tmp_path):
        with pytest.raises(SystemExit, match="v-algorithm"):
            main(["trace", "--pattern", "skewed-moe", "--algorithm", "bruck",
                  "--out", str(tmp_path / "t.json")])

    def test_bad_fabric_spec_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "--fabric", "fat-tree:oversub", "--out", str(tmp_path / "t.json")])


class TestProgressFlag:
    def test_progress_streams_resolution_lines(self, capsys):
        code = main(["select", "--system", "dane", "--nodes", "2", "--ppn", "4",
                     "--engine", "simulate", "--sizes", "4", "16", "--progress"])
        assert code == 0
        err = capsys.readouterr().err
        assert "[runtime] 1/" in err
        assert "point(s) resolved" in err

    def test_without_progress_no_resolution_lines(self, capsys):
        code = main(["select", "--system", "dane", "--nodes", "2", "--ppn", "4",
                     "--engine", "simulate", "--sizes", "4", "16"])
        assert code == 0
        assert "resolved" not in capsys.readouterr().err
