"""Hot-path microbenchmarks of the discrete-event simulator.

Every figure producer, ablation sweep and ``repro-bench verify`` run funnels
through the same hot path: the event loop in :mod:`repro.netsim` and the
matching/timing layer in :mod:`repro.simmpi`.  This module times that hot
path directly on a canonical set of simulated jobs — the paper's exchange
algorithms at 4 to 64 nodes, uniform and skewed traffic — and records the
results in a committed JSON file (``BENCH_simmpi.json``) so the repository
carries a real performance trajectory instead of an anecdote.

The report file has up to three sections:

``baseline``
    The pre-optimization measurement recorded once at the seed of the
    hot-path overhaul PR.  Never overwritten by a normal run.
``current``
    The most recent committed measurement (what CI compares against).
``speedup``
    Per-point ``baseline_wall / current_wall`` ratios, derived whenever both
    sections share a point.

Wall-clock times are machine-dependent, so cross-machine comparisons (the
CI smoke job runs on whatever runner it gets) are scaled by a *calibration
probe*: a fixed pure-Python workload with the same flavour of work as the
simulator (heap churn, integer arithmetic, small NumPy copies) timed on the
recording machine and again on the checking machine.  A point only counts
as regressed when it is slower than the committed time by more than the
tolerance *after* that scaling.
"""

from __future__ import annotations

import heapq
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.core.runner import run_alltoall, run_workload
from repro.errors import ConfigurationError
from repro.machine.process_map import ProcessMap
from repro.machine.systems import get_system
from repro.workloads import make_pattern

__all__ = [
    "MicroJob",
    "MicroResult",
    "CANONICAL_JOBS",
    "quick_jobs",
    "run_job",
    "run_suite",
    "calibrate",
    "load_report",
    "write_report",
    "merge_results",
    "compare_results",
    "format_results",
    "DEFAULT_REPORT_PATH",
    "DEFAULT_TOLERANCE",
]

#: Report file committed at the repository root.
DEFAULT_REPORT_PATH = Path(__file__).resolve().parents[3] / "BENCH_simmpi.json"

#: Maximum tolerated slowdown versus the committed measurement (25 %).
DEFAULT_TOLERANCE = 0.25

_SCHEMA = 1


@dataclass(frozen=True)
class MicroJob:
    """One canonical simulated job the perf suite times."""

    key: str
    kind: str  # "uniform" | "workload"
    algorithm: str
    nodes: int
    ppn: int
    msg_bytes: int
    system: str = "dane"
    pattern: str | None = None  # workload jobs only
    pattern_seed: int = 0
    #: Member of the ``--quick`` subset (CI smoke / fast local check).
    quick: bool = False
    #: Run symmetry-folded ("on"); the default times the full-width engine.
    fold: str = "off"

    @property
    def nprocs(self) -> int:
        return self.nodes * self.ppn

    def describe(self) -> str:
        traffic = self.pattern if self.pattern is not None else f"{self.msg_bytes}B uniform"
        folded = ", folded" if self.fold != "off" else ""
        return (
            f"{self.algorithm} @ {self.nodes} nodes x {self.ppn} ppn "
            f"({traffic}{folded})"
        )


def _uniform(key, algorithm, nodes, ppn, msg_bytes=256, quick=False, fold="off"):
    return MicroJob(key=key, kind="uniform", algorithm=algorithm, nodes=nodes,
                    ppn=ppn, msg_bytes=msg_bytes, quick=quick, fold=fold)


def _workload(key, algorithm, nodes, ppn, pattern, msg_bytes=64, quick=False):
    return MicroJob(key=key, kind="workload", algorithm=algorithm, nodes=nodes,
                    ppn=ppn, msg_bytes=msg_bytes, pattern=pattern, quick=quick)


#: The canonical suite.  Keys are stable identifiers: changing a job's shape
#: means renaming its key, so stored measurements never silently change
#: meaning.  The 64-node pairwise point is the headline O(P^2)-message job.
CANONICAL_JOBS: tuple[MicroJob, ...] = (
    _uniform("pairwise/4n8p/256B", "pairwise", 4, 8, quick=True),
    _uniform("pairwise/16n8p/256B", "pairwise", 16, 8, quick=True),
    _uniform("pairwise/64n8p/256B", "pairwise", 64, 8),
    _uniform("bruck/4n8p/256B", "bruck", 4, 8, quick=True),
    _uniform("bruck/16n8p/256B", "bruck", 16, 8),
    _uniform("bruck/64n8p/256B", "bruck", 64, 8),
    _uniform("hierarchical/4n8p/256B", "hierarchical", 4, 8, quick=True),
    _uniform("hierarchical/16n8p/256B", "hierarchical", 16, 8),
    _uniform("hierarchical/64n8p/256B", "hierarchical", 64, 8),
    _uniform("nonblocking/16n8p/256B", "nonblocking", 16, 8, quick=True),
    _uniform("nonblocking/32n8p/256B", "nonblocking", 32, 8),
    _workload("workload-pairwise/8n8p/skewed-moe", "pairwise", 8, 8, "skewed-moe",
              quick=True),
    _workload("workload-node-aware/8n8p/skewed-moe", "node-aware", 8, 8, "skewed-moe"),
    # Symmetry-folded points.  The 64n8p pair shares its shape with the
    # unfolded pairwise/64n8p headline job, so their ratio is the measured
    # fold speedup at a shape the full engine can still run; the two
    # paper-scale points have no unfolded counterpart by construction.
    _uniform("fold-pairwise/64n8p/256B", "pairwise", 64, 8, quick=True, fold="on"),
    _uniform("fold-pairwise/65536n1p/64B", "pairwise", 65536, 1, msg_bytes=64,
             quick=True, fold="on"),
    _uniform("fold-node-aware/1536n112p/4B", "node-aware", 1536, 112, msg_bytes=4,
             fold="on"),
)


def quick_jobs() -> tuple[MicroJob, ...]:
    """The fast subset used by ``repro-bench perf --quick`` and CI."""
    return tuple(job for job in CANONICAL_JOBS if job.quick)


@dataclass
class MicroResult:
    """Timing of one :class:`MicroJob` (best over ``repeats`` runs)."""

    key: str
    description: str
    wall_seconds: float
    sim_elapsed: float
    events: int
    repeats: int

    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return float("inf")
        return self.events / self.wall_seconds

    def as_dict(self) -> dict:
        return {
            "description": self.description,
            "wall_seconds": self.wall_seconds,
            "sim_elapsed": self.sim_elapsed,
            "events": self.events,
            "events_per_sec": self.events_per_sec,
            "repeats": self.repeats,
        }


def _job_matrix(job: MicroJob):
    return make_pattern(job.pattern, job.nprocs, job.msg_bytes, seed=job.pattern_seed)


def run_job(job: MicroJob, repeats: int = 3) -> MicroResult:
    """Time one job: best wall-clock over ``repeats`` fresh simulations."""
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    cluster = get_system(job.system, job.nodes)
    pmap = ProcessMap(cluster, ppn=job.ppn, num_nodes=job.nodes)
    matrix = _job_matrix(job) if job.kind == "workload" else None

    best_wall = float("inf")
    sim_elapsed = 0.0
    events = 0
    for _ in range(repeats):
        start = time.perf_counter()
        if matrix is not None:
            outcome = run_workload(job.algorithm, pmap, matrix, validate=False,
                                   fold=job.fold)
        else:
            outcome = run_alltoall(job.algorithm, pmap, job.msg_bytes, validate=False,
                                   fold=job.fold)
        wall = time.perf_counter() - start
        if wall < best_wall:
            best_wall = wall
            sim_elapsed = outcome.elapsed
            events = outcome.job.events_processed
    return MicroResult(
        key=job.key,
        description=job.describe(),
        wall_seconds=best_wall,
        sim_elapsed=sim_elapsed,
        events=events,
        repeats=repeats,
    )


def run_suite(
    *,
    quick: bool = False,
    repeats: int = 3,
    progress: Callable[[str], None] | None = None,
) -> list[MicroResult]:
    """Run the canonical suite (or its quick subset) and return the results."""
    jobs = quick_jobs() if quick else CANONICAL_JOBS
    results = []
    for job in jobs:
        if progress is not None:
            progress(f"timing {job.key} ({job.describe()})")
        results.append(run_job(job, repeats=repeats))
    return results


# ---------------------------------------------------------------------------
# Machine-speed calibration
# ---------------------------------------------------------------------------


def _calibration_probe() -> None:
    """Fixed workload with the simulator's flavour of work (no simulator code)."""
    heap: list[tuple[int, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    acc = 0
    for i in range(120_000):
        push(heap, ((i * 2654435761) % 1000003, i))
        acc += i ^ (acc >> 3)
    while heap:
        acc += pop(heap)[0]
    src = np.arange(256, dtype=np.uint8)
    dst = np.zeros(256, dtype=np.uint8)
    for _ in range(2_000):
        dst[:] = src


def calibrate(repeats: int = 3) -> float:
    """Seconds the calibration probe takes on this machine (best of ``repeats``)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_probe()
        best = min(best, time.perf_counter() - start)
    return best


# ---------------------------------------------------------------------------
# Report file
# ---------------------------------------------------------------------------


def load_report(path: Path | str = DEFAULT_REPORT_PATH) -> dict:
    """Read the report file; an empty skeleton if it does not exist yet."""
    path = Path(path)
    if not path.exists():
        return {"schema": _SCHEMA, "suite": "repro.bench.micro"}
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read perf report at {path}: {exc}") from exc
    if report.get("schema") != _SCHEMA:
        raise ConfigurationError(
            f"perf report at {path} has schema {report.get('schema')!r}, expected {_SCHEMA}"
        )
    return report


def _section(results: Sequence[MicroResult], calibration: float, label: str) -> dict:
    return {
        "label": label,
        "python": platform.python_version(),
        "calibration_seconds": calibration,
        "points": {r.key: r.as_dict() for r in results},
    }


def merge_results(
    report: dict,
    results: Sequence[MicroResult],
    calibration: float,
    *,
    label: str,
    section: str = "current",
) -> dict:
    """Merge ``results`` into ``report[section]`` and refresh the speedup table.

    Canonical points not measured by this run (e.g. a ``--quick`` run) keep
    their stored values, so a quick CI check never erases the full committed
    measurement.  Stored points whose key left :data:`CANONICAL_JOBS` are
    dropped, so a retired job does not outlive its removal.
    """
    if section not in ("baseline", "current"):
        raise ConfigurationError(f"unknown report section {section!r}")
    old_section = report.get(section, {})
    existing = old_section.get("points", {})
    merged = _section(results, calibration, label)
    canonical = {job.key for job in CANONICAL_JOBS}
    for key, point in existing.items():
        if key in canonical and key not in merged["points"]:
            # A point kept from an earlier (possibly different-machine) run
            # must carry the calibration it was measured under — otherwise a
            # later --check would scale its wall time by this run's probe.
            kept = dict(point)
            kept.setdefault("calibration_seconds",
                            old_section.get("calibration_seconds"))
            merged["points"][key] = kept
    report[section] = merged

    baseline = report.get("baseline", {}).get("points", {})
    current = report.get("current", {}).get("points", {})
    speedup = {}
    for key, base_point in baseline.items():
        cur_point = current.get(key)
        if cur_point and cur_point["wall_seconds"] > 0.0:
            speedup[key] = base_point["wall_seconds"] / cur_point["wall_seconds"]
    if speedup:
        report["speedup"] = speedup
    return report


def write_report(report: dict, path: Path | str = DEFAULT_REPORT_PATH) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Regression check
# ---------------------------------------------------------------------------


@dataclass
class _CheckOutcome:
    problems: list[str] = field(default_factory=list)
    compared: int = 0


def compare_results(
    report: dict,
    results: Sequence[MicroResult],
    calibration: float,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[str]:
    """Compare fresh ``results`` against ``report["current"]``.

    Returns human-readable problem strings (empty list = no regression).
    Committed wall-clock times are scaled by the ratio of this machine's
    calibration probe to the recording machine's before applying
    ``tolerance``, so a slower CI runner is not reported as a regression.
    """
    if tolerance < 0.0:
        raise ConfigurationError(f"tolerance must be non-negative, got {tolerance}")
    section = report.get("current")
    if not section or not section.get("points"):
        return ["report has no 'current' section to compare against; "
                "record one with `repro-bench perf` first"]
    section_cal = float(section.get("calibration_seconds") or 0.0)
    outcome = _CheckOutcome()
    for result in results:
        committed = section["points"].get(result.key)
        if committed is None:
            continue  # new point: nothing to regress against
        outcome.compared += 1
        # Points merged from an earlier run carry their own calibration.
        recorded_cal = float(committed.get("calibration_seconds") or section_cal)
        scale = calibration / recorded_cal if recorded_cal > 0.0 else 1.0
        allowed = committed["wall_seconds"] * scale * (1.0 + tolerance)
        if result.wall_seconds > allowed:
            outcome.problems.append(
                f"{result.key}: {result.wall_seconds:.3f}s wall exceeds the "
                f"committed {committed['wall_seconds']:.3f}s "
                f"(machine-scaled limit {allowed:.3f}s, tolerance {tolerance:.0%})"
            )
    if outcome.compared == 0:
        outcome.problems.append(
            "no measured point overlaps the committed report; the suite and "
            "the report have diverged — re-record with `repro-bench perf`"
        )
    return outcome.problems


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def format_results(results: Sequence[MicroResult], report: dict | None = None) -> str:
    """Aligned table of one run, with speedup vs baseline when available."""
    baseline = (report or {}).get("baseline", {}).get("points", {})
    lines = [
        f"{'point':<40s} {'wall s':>9s} {'events':>9s} {'events/s':>12s} {'vs baseline':>12s}"
    ]
    for result in results:
        base = baseline.get(result.key)
        if base and result.wall_seconds > 0.0:
            ratio = f"{base['wall_seconds'] / result.wall_seconds:10.2f}x"
        else:
            ratio = f"{'-':>11s}"
        lines.append(
            f"{result.key:<40s} {result.wall_seconds:9.3f} {result.events:9d} "
            f"{result.events_per_sec:12.0f} {ratio:>12s}"
        )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:  # pragma: no cover - thin CLI shim
    """Allow ``python -m repro.bench.micro`` as an alias of ``repro-bench perf``."""
    from repro.cli import main as cli_main

    return cli_main(["perf", *(argv if argv is not None else sys.argv[1:])])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
