"""Self-tests of the host-time benchmark (not part of the tier-1 suite).

Run from the repository root with ``python -m pytest benchmarks/perf -q``.
The end-to-end checks run every workload at ``--smoke`` size, which keeps
the four benchmark invocations below a minute in total.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import suite
from layers import LAYERS, attribute, layer_of, repro_modules

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDED = {"moe-dragonfly", "verify-sweep"}

_elapsed: list[float] = []


def _smoke(tmp_path_factory, *args) -> tuple[dict, dict]:
    out = tmp_path_factory.mktemp("perf") / "result.json"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--out", str(out), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    _elapsed.append(time.perf_counter() - start)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    runs = {run["workload"]: run for run in json.loads(out.read_text())["runs"]}
    return final, runs


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    return _smoke(tmp_path_factory, "--seed", "0")


@pytest.fixture(scope="module")
def repeat_run(tmp_path_factory):
    return _smoke(tmp_path_factory, "--seed", "0")


@pytest.fixture(scope="module")
def other_seed_run(tmp_path_factory):
    return _smoke(tmp_path_factory, "--seed", "1")


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    return _smoke(tmp_path_factory, "--seed", "0", "--trace")


def test_benchmark_json_follows_the_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert WORKLOADS == list(suite.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics + SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"]) and m["better"] in ("lower", "higher") for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_repro_module_maps_to_exactly_one_layer():
    assert len(LAYERS) == 21 and len(set(LAYERS)) == 21
    modules = repro_modules(ROOT / "src")
    assert modules
    mapped = {module: layer_of(module) for module in modules}
    assert all(layer in LAYERS for layer in mapped.values()), mapped
    assert set(mapped.values()) == set(LAYERS)


def test_builtin_time_is_charged_to_the_calling_layer():
    src = ROOT / "src"
    validate = (str(src / "repro/core/validation.py"), 1, "validate")
    engine = (str(src / "repro/simmpi/engine.py"), 1, "run")
    builtin = ("~", 0, "<built-in method numpy.array_equal>")
    harness = (str(HERE / "run.py"), 1, "_run_round")
    stats = {
        harness: (1, 1, 0.1, 1.0, {}),
        validate: (1, 1, 0.2, 0.8, {harness: (1, 1, 0.2, 0.8)}),
        engine: (1, 1, 0.1, 0.1, {harness: (1, 1, 0.1, 0.1)}),
        builtin: (2, 2, 0.6, 0.6, {validate: (1, 1, 0.45, 0.45), engine: (1, 1, 0.15, 0.15)}),
    }
    result = attribute(stats, src)
    assert result["self_s"]["core.validation"] == pytest.approx(0.65)
    assert result["self_s"]["simmpi.engine"] == pytest.approx(0.25)
    assert result["unattributed_s"] == pytest.approx(0.1)
    assert result["calls"] == {"core.validation": 1, "simmpi.engine": 1}


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict(base, [v * 1.02 for v in base], 0.1, False) == "within bound"
    assert compare.verdict(base, [v * 1.20 for v in base], 0.1, False) == "regressed"
    assert compare.verdict(base, [v * 0.80 for v in base], 0.1, False) == "improved"
    assert compare.verdict(base, [v * 1.20 for v in base], 0.1, True) == "improved"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert compare.verdict(base, noisy, 0.1, False) == "unresolved"


def test_smoke_run_prints_exactly_the_declared_metrics(default_run):
    final, runs = default_run
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    assert list(runs) == WORKLOADS
    for run in runs.values():
        got = {name: entry["unit"] for name, entry in run["metrics"].items()}
        assert got == declared
        assert all(entry["value"] > 0 for entry in run["metrics"].values()), run["metrics"]
        assert run["digest"] == run["digest_recorded"]


def test_smoke_digests_repeat(default_run, repeat_run):
    first = {name: run["digest"] for name, run in default_run[1].items()}
    second = {name: run["digest"] for name, run in repeat_run[1].items()}
    assert first == second


def test_only_seeded_workloads_change_digest_with_the_seed(default_run, other_seed_run):
    changed = {name for name, run in other_seed_run[1].items()
               if run["digest"] != default_run[1][name]["digest"]}
    assert changed == SEEDED


def test_traced_run_emits_every_per_layer_metric(traced_run):
    final, runs = traced_run
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert final["failed"] == 0
    for run in runs.values():
        assert {name: entry["unit"] for name, entry in run["metrics"].items()} == declared
        assert run["metrics"]["trace.unattributed_share"]["value"] < 0.05
    assert sum(_elapsed) < 60.0, _elapsed


def test_fails_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fold-scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
