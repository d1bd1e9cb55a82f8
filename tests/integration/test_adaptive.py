"""End-to-end tests of trace ingestion + adaptive per-phase selection.

Pins the headline claim of the phased subsystem: on a tapered dragonfly
shared with a background tenant, per-phase (adaptive) selection beats the
single static pick — the winner *flips* between the skewed dispatch phase
and the dense low-byte combine phase.  The pinned fixture is the shipped
sample MoE routing trace, so the whole chain (parse -> normalise ->
select -> simulate) is exercised against frozen expectations.
"""

import pytest

from repro.bench.figures import (
    ADAPTIVE_FABRIC,
    adaptive_demo_workload,
    figure_adaptive,
)
from repro.core.selection import select_phased
from repro.ingest import ingest_trace
from repro.machine.systems import dane
from repro.netsim.fabric import parse_fabric
from repro.runtime import ResultStore, SweepExecutor

import pathlib

SAMPLE_TRACE = str(
    pathlib.Path(__file__).resolve().parents[2]
    / "examples" / "traces" / "moe_routing_sample.jsonl"
)
#: Content digest of the ingested sample trace: moves only if the trace
#: file or the ingestion chain changes semantics.
SAMPLE_DIGEST = "4c816d482261662bb15c7b6c91655ba8387ce60c76fb8408a276525ea3011b7c"


def _cluster():
    return dane(8).with_fabric(parse_fabric(ADAPTIVE_FABRIC))


class TestSampleTraceFixture:
    def test_ingested_digest_is_pinned(self):
        workload = ingest_trace(SAMPLE_TRACE)
        assert workload.digest() == SAMPLE_DIGEST
        assert workload.nprocs == 16
        assert workload.names == (
            "layer0/dispatch",
            "layer0/combine",
            "layer1/dispatch",
            "layer1/combine",
        )

    def test_winner_flips_on_the_sample_trace(self):
        workload = ingest_trace(SAMPLE_TRACE)
        selection = select_phased(_cluster(), 4, workload)
        assert selection.is_flip, (
            "adaptive selection must deviate from the static pick on the "
            "pinned sample trace"
        )
        assert selection.adaptive_seconds < selection.static_seconds
        # The flip's shape is pinned too: the skewed dispatch phases keep
        # the static (flat) winner, the dense tiny combine phases switch
        # to the hierarchical candidate.
        per_phase = [choice.candidate.algorithm for choice in selection.choices]
        assert per_phase[0] == "nonblocking"
        assert per_phase[2] == "node-aware"
        assert per_phase[0] != per_phase[2]


class TestAdaptiveFigure:
    def test_adaptive_beats_static_under_interference(self):
        figure = figure_adaptive()
        by_label = {series.label: series for series in figure.series}
        assert set(by_label) == {"Static", "Adaptive"}
        static_total = by_label["Static"].points[-1].seconds
        adaptive_total = by_label["Adaptive"].points[-1].seconds
        assert adaptive_total < static_total, (
            f"adaptive ({adaptive_total:.3e} s) must beat static "
            f"({static_total:.3e} s) on the interference scenario"
        )

    def test_figure_is_deterministic(self):
        def rows(figure):
            return [
                (series.label, point.x, point.seconds)
                for series in figure.series
                for point in series.points
            ]

        workload = adaptive_demo_workload(16)
        reference = figure_adaptive(workload=workload)
        assert rows(figure_adaptive(workload=workload)) == rows(reference)

    def test_cached_rerun_simulates_nothing(self, tmp_path):
        workload = adaptive_demo_workload(16)
        store = ResultStore(tmp_path / "cache")
        with SweepExecutor(1, store=store) as executor:
            first = figure_adaptive(workload=workload, executor=executor)
            simulated_first = executor.executed_points
            cached_first = executor.cached_points
        assert simulated_first > 0
        with SweepExecutor(1, store=store) as executor:
            second = figure_adaptive(workload=workload, executor=executor)
            simulated_second = executor.executed_points
            cached_second = executor.cached_points
        assert simulated_second == 0, (
            "a cached rerun of the adaptive figure must simulate nothing"
        )
        assert cached_second == simulated_first + cached_first

        def rows(figure):
            return [
                (series.label, point.x, point.seconds)
                for series in figure.series
                for point in series.points
            ]

        assert rows(first) == rows(second)


class TestAdaptiveCli:
    def test_cli_ingest_reports_digest(self, capsys):
        from repro.cli import main

        assert main(["ingest", SAMPLE_TRACE]) == 0
        out = capsys.readouterr().out
        assert SAMPLE_DIGEST in out
        assert "moe-routing" in out

    def test_cli_ingest_store_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "traces")
        assert main(["ingest", SAMPLE_TRACE, "--store", store, "--name", "moe"]) == 0
        capsys.readouterr()
        assert main(["ingest", "--list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "moe" in out and SAMPLE_DIGEST[:12] in out

    def test_cli_select_phases_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        # Ingest the sample trace to its canonical JSON, then feed that to
        # the adaptive selector: the full CLI chain of docs/TRACES.md.
        out = str(tmp_path / "moe.json")
        assert main(["ingest", SAMPLE_TRACE, "--out", out]) == 0
        capsys.readouterr()
        code = main([
            "select", "--system", "dane", "--nodes", "4", "--ppn", "4",
            "--engine", "simulate", "--fabric", ADAPTIVE_FABRIC,
            "--phases", out,
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Adaptive per-phase selection" in printed
        assert "static pick" in printed

    def test_cli_select_phases_rejects_raw_trace(self):
        from repro.cli import main

        # --phases takes an *ingested* workload, not a raw trace log.
        with pytest.raises(SystemExit):
            main([
                "select", "--system", "dane", "--nodes", "4", "--ppn", "4",
                "--phases", SAMPLE_TRACE,
            ])
