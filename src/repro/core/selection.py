"""Dynamic algorithm selection (the paper's Section 5 future-work item).

The paper closes by proposing to "explore how the optimal algorithm can be
dynamically selected for a given computer, system MPI, process count, and
data size".  This module implements that selection in two flavours:

* :class:`AlgorithmSelector` — model-driven: evaluates the analytic cost
  model (:mod:`repro.model`) for a set of candidate configurations and picks
  the cheapest one for each (machine, nodes, ppn, message size) point;
* :class:`SelectionTable` — measurement-driven: built from a sweep of
  simulated (or, in principle, measured) timings, it answers look-ups with
  nearest-size matching, the way an MPI library's tuning file would.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.machine.cluster import Cluster
from repro.runtime import PointSpec, SweepExecutor, execute

__all__ = [
    "CandidateConfig",
    "AlgorithmSelector",
    "SelectionTable",
    "build_selection_table",
    "PhaseChoice",
    "PhasedSelection",
    "default_v_candidates",
    "select_phased",
]


@dataclass(frozen=True)
class CandidateConfig:
    """One algorithm configuration considered by the selector."""

    algorithm: str
    options: tuple[tuple[str, object], ...] = ()

    @classmethod
    def make(cls, algorithm: str, **options) -> "CandidateConfig":
        return cls(algorithm=algorithm, options=tuple(sorted(options.items())))

    def as_kwargs(self) -> dict:
        return dict(self.options)

    def describe(self) -> str:
        opts = ", ".join(f"{k}={v}" for k, v in self.options)
        return f"{self.algorithm}({opts})" if opts else self.algorithm


def default_candidates(ppn: int) -> list[CandidateConfig]:
    """The candidate set used by the paper's evaluation (group sizes 4/8/16 plus limits)."""
    candidates = [
        CandidateConfig.make("system-mpi"),
        CandidateConfig.make("hierarchical"),
        CandidateConfig.make("node-aware"),
    ]
    for group in (4, 8, 16):
        if ppn % group == 0 and group <= ppn:
            candidates.append(CandidateConfig.make("multileader", procs_per_leader=group))
            candidates.append(CandidateConfig.make("locality-aware", procs_per_group=group))
            candidates.append(CandidateConfig.make("multileader-node-aware", procs_per_leader=group))
    return candidates


class AlgorithmSelector:
    """Pick the cheapest algorithm configuration using the analytic cost model.

    With an attached :class:`~repro.runtime.SweepExecutor`, the candidate
    evaluations of :meth:`select` (and every size of :meth:`selection_map`)
    fan out over the executor's worker pool and result store instead of
    being priced one at a time.
    """

    def __init__(self, cluster: Cluster, ppn: int, candidates: Sequence[CandidateConfig] | None = None,
                 *, executor: SweepExecutor | None = None) -> None:
        self.cluster = cluster
        self.ppn = ppn
        self.candidates = list(candidates) if candidates is not None else default_candidates(ppn)
        if not self.candidates:
            raise ConfigurationError("the selector needs at least one candidate configuration")
        self.executor = executor

    def _spec(self, candidate: CandidateConfig, num_nodes: int, msg_bytes: int) -> PointSpec:
        if num_nodes < 1:
            raise ConfigurationError(f"num_nodes must be >= 1, got {num_nodes}")
        return PointSpec.for_alltoall(
            self.cluster.with_nodes(num_nodes), self.ppn, num_nodes,
            candidate.algorithm, msg_bytes, engine="model", **candidate.as_kwargs(),
        )

    def predict(self, candidate: CandidateConfig, num_nodes: int, msg_bytes: int) -> float:
        """Predicted execution time of one candidate (seconds).

        Shares the spec pricing path of :meth:`select`, so the two can never
        diverge.
        """
        from repro.runtime import run_point  # local import to avoid a cycle

        return run_point(self._spec(candidate, num_nodes, msg_bytes)).seconds

    def select(self, num_nodes: int, msg_bytes: int) -> tuple[CandidateConfig, float]:
        """Return the cheapest candidate and its predicted time (first wins ties)."""
        specs = [self._spec(candidate, num_nodes, msg_bytes) for candidate in self.candidates]
        best: tuple[CandidateConfig, float] | None = None
        for candidate, point in zip(self.candidates, execute(specs, self.executor)):
            if best is None or point.seconds < best[1]:
                best = (candidate, point.seconds)
        assert best is not None
        return best

    def selection_map(self, num_nodes: int, msg_sizes: Iterable[int]) -> dict[int, str]:
        """Best candidate description per message size (a tuning-table view)."""
        return {size: self.select(num_nodes, size)[0].describe() for size in msg_sizes}


@dataclass
class SelectionTable:
    """Measurement-driven selection table.

    Entries map ``(num_nodes, msg_bytes)`` to ``(description, seconds)``;
    look-ups for unmeasured sizes use the nearest measured size at the same
    node count (logarithmic distance, matching how MPI tuning files bucket
    message sizes).
    """

    entries: dict[tuple[int, int], tuple[str, float]] = field(default_factory=dict)

    def record(self, num_nodes: int, msg_bytes: int, description: str, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError("recorded times must be non-negative")
        key = (num_nodes, msg_bytes)
        current = self.entries.get(key)
        if current is None or seconds < current[1]:
            self.entries[key] = (description, seconds)

    def sizes_for(self, num_nodes: int) -> list[int]:
        return sorted(size for nodes, size in self.entries if nodes == num_nodes)

    def best(self, num_nodes: int, msg_bytes: int) -> str:
        """Best known algorithm description for the given point."""
        if (num_nodes, msg_bytes) in self.entries:
            return self.entries[(num_nodes, msg_bytes)][0]
        sizes = self.sizes_for(num_nodes)
        if not sizes:
            raise ConfigurationError(f"no measurements recorded for {num_nodes} nodes")
        idx = bisect_left(sizes, msg_bytes)
        neighbours = [s for s in (sizes[max(idx - 1, 0)], sizes[min(idx, len(sizes) - 1)])]
        nearest = min(neighbours, key=lambda s: abs(_log2(s) - _log2(msg_bytes)))
        return self.entries[(num_nodes, nearest)][0]

    def as_rows(self) -> list[tuple[int, int, str, float]]:
        """Table rows (num_nodes, msg_bytes, description, seconds), sorted."""
        return [
            (nodes, size, desc, seconds)
            for (nodes, size), (desc, seconds) in sorted(self.entries.items())
        ]


def build_selection_table(
    cluster: Cluster,
    ppn: int,
    *,
    node_counts: Sequence[int],
    msg_sizes: Sequence[int],
    candidates: Sequence[CandidateConfig] | None = None,
    engine: str = "simulate",
    repetitions: int = 1,
    executor: SweepExecutor | None = None,
    faults=None,
) -> SelectionTable:
    """Build a measurement-driven :class:`SelectionTable` from a benchmark sweep.

    Every (candidate, node count, message size) point is described by a
    :class:`~repro.runtime.PointSpec` and the whole sweep is dispatched in
    one :func:`~repro.runtime.execute` batch, so an attached executor
    parallelizes it across a process pool and serves repeated builds from
    its result store.  The table records the fastest candidate per
    (node count, size), exactly as an MPI tuning file would.

    ``faults`` (a :class:`repro.faults.FaultSpec`) injects deterministic
    faults into every simulated point, building the tuning table of the
    degraded machine instead of the healthy one.
    """
    from repro.bench.harness import BenchmarkHarness  # local import to avoid a cycle

    chosen = list(candidates) if candidates is not None else default_candidates(ppn)
    if not chosen:
        raise ConfigurationError("the selection sweep needs at least one candidate")
    harness = BenchmarkHarness(cluster, ppn, engine=engine, repetitions=repetitions,
                               executor=executor, faults=faults)
    points: list[tuple[int, int, CandidateConfig]] = [
        (nodes, size, candidate)
        for nodes in node_counts
        for size in msg_sizes
        for candidate in chosen
    ]
    specs = [
        harness.point_spec(candidate.algorithm, size, nodes, **candidate.as_kwargs())
        for nodes, size, candidate in points
    ]
    table = SelectionTable()
    for (nodes, size, candidate), timed in zip(points, harness.run_specs(specs)):
        table.record(nodes, size, candidate.describe(), timed.seconds)
    return table


def _log2(value: int) -> float:
    from math import log2

    return log2(value) if value > 0 else 0.0


# ---------------------------------------------------------------------------
# Adaptive per-phase selection for phased workloads
# ---------------------------------------------------------------------------


def default_v_candidates(ppn: int) -> list[CandidateConfig]:
    """The v-capable candidate set for per-phase (alltoallv) selection."""
    candidates = [
        CandidateConfig.make("pairwise"),
        CandidateConfig.make("nonblocking"),
        CandidateConfig.make("node-aware"),
    ]
    if ppn > 1:
        candidates.append(CandidateConfig.make("node-aware", inner="nonblocking"))
    return candidates


@dataclass(frozen=True)
class PhaseChoice:
    """Adaptive selection's pick for one phase."""

    #: Phase name from the workload.
    phase: str
    #: The winning candidate for this phase.
    candidate: CandidateConfig
    #: Its per-phase cost (seconds, repeats included).
    seconds: float


@dataclass
class PhasedSelection:
    """Static-vs-adaptive selection verdict for one phased workload.

    ``table[phase_index][candidate]`` holds every evaluated per-phase cost
    (seconds, repeats included); ``static`` is the single candidate with
    the cheapest *total* across phases (what a tuning file would pin for
    the whole iteration), ``choices`` re-picks the winner per phase.  By
    construction ``adaptive_seconds <= static_seconds``; the gap is the
    price of phase-blind selection, and it widens under fabric
    interference (see :func:`repro.bench.figures.figure_adaptive`).
    """

    #: Phase names, in workload order.
    phases: list[str]
    #: Candidates that were evaluated on every phase.
    candidates: list[CandidateConfig]
    #: Candidates dropped because some phase rejected their configuration.
    skipped: list[CandidateConfig]
    #: Per-phase evaluated costs: one ``{candidate: seconds}`` dict per phase.
    table: list[dict[CandidateConfig, float]]
    #: Cheapest single candidate by total across phases.
    static: CandidateConfig
    #: Its predicted total (seconds).
    static_seconds: float
    #: Per-phase winners.
    choices: list[PhaseChoice]
    #: Total of the per-phase winners (seconds).
    adaptive_seconds: float

    @property
    def assignment(self) -> list[CandidateConfig]:
        """The adaptive per-phase assignment (one candidate per phase)."""
        return [choice.candidate for choice in self.choices]

    @property
    def is_flip(self) -> bool:
        """Whether adaptive actually deviates from the static pick somewhere."""
        return any(choice.candidate != self.static for choice in self.choices)

    def describe(self) -> str:
        lines = [
            f"static pick: {self.static.describe()} -> {self.static_seconds:.3e} s",
            f"adaptive:    {self.adaptive_seconds:.3e} s",
        ]
        for choice in self.choices:
            lines.append(
                f"  {choice.phase}: {choice.candidate.describe()} "
                f"({choice.seconds:.3e} s)"
            )
        return "\n".join(lines)


def select_phased(
    cluster: Cluster,
    ppn: int,
    workload,
    *,
    candidates: Sequence[CandidateConfig] | None = None,
    engine: str = "simulate",
    repetitions: int = 1,
    executor: SweepExecutor | None = None,
    faults=None,
) -> PhasedSelection:
    """Evaluate every candidate on every phase and pick static vs adaptive.

    Each (phase, candidate) pair becomes one ordinary workload
    :class:`~repro.runtime.PointSpec` over the phase's traffic matrix —
    cacheable and executor-parallel exactly like any other benchmark
    point.  Candidates whose configuration is rejected by *any* phase
    (e.g. a group size the placement cannot host) are dropped from the
    comparison and reported in ``skipped``.

    The phase costs are priced in isolation — which is precisely what a
    tuning table can do.  Under fabric interference the realized totals
    shift, and the adaptive assignment's lead over the static pick is what
    the ``adaptive`` figure measures end-to-end.
    """
    from repro.bench.harness import BenchmarkHarness  # local import to avoid a cycle
    from repro.core.alltoall.valgorithms import get_v_algorithm
    from repro.errors import ReproError
    from repro.machine.process_map import ProcessMap

    chosen = list(candidates) if candidates is not None else default_v_candidates(ppn)
    if not chosen:
        raise ConfigurationError("phased selection needs at least one candidate")
    if workload.nprocs % ppn != 0:
        raise ConfigurationError(
            f"workload has {workload.nprocs} ranks, not a multiple of ppn={ppn}"
        )
    num_nodes = workload.nprocs // ppn
    pmap = ProcessMap(cluster, ppn=ppn, num_nodes=num_nodes)

    # Pre-filter: a candidate must be applicable to every phase, or static
    # selection could not run it for the whole iteration.
    applicable: list[CandidateConfig] = []
    skipped: list[CandidateConfig] = []
    for candidate in chosen:
        try:
            algo = get_v_algorithm(candidate.algorithm, **candidate.as_kwargs())
            for phase in workload.phases:
                algo.validate(pmap, phase.matrix.item_counts())
        except ReproError:
            skipped.append(candidate)
            continue
        applicable.append(candidate)
    if not applicable:
        raise ConfigurationError(
            "no candidate is applicable to every phase of the workload; "
            f"skipped: {[c.describe() for c in skipped]}"
        )

    harness = BenchmarkHarness(cluster, ppn, engine=engine, repetitions=repetitions,
                               executor=executor, faults=faults)
    pairs = [
        (phase_index, candidate)
        for phase_index in range(workload.num_phases)
        for candidate in applicable
    ]
    specs = [
        harness.workload_spec(
            candidate.algorithm, workload.phases[phase_index].matrix, num_nodes,
            **candidate.as_kwargs(),
        )
        for phase_index, candidate in pairs
    ]
    table: list[dict[CandidateConfig, float]] = [{} for _ in workload.phases]
    for (phase_index, candidate), timed in zip(pairs, harness.run_specs(specs)):
        table[phase_index][candidate] = timed.seconds * workload.phases[phase_index].repeats

    choices: list[PhaseChoice] = []
    for phase, costs in zip(workload.phases, table):
        best = min(applicable, key=lambda c: costs[c])  # first wins ties
        choices.append(PhaseChoice(phase=phase.name, candidate=best,
                                   seconds=costs[best]))
    totals = {
        candidate: sum(costs[candidate] for costs in table)
        for candidate in applicable
    }
    static = min(applicable, key=lambda c: totals[c])
    return PhasedSelection(
        phases=[phase.name for phase in workload.phases],
        candidates=applicable,
        skipped=skipped,
        table=table,
        static=static,
        static_seconds=totals[static],
        choices=choices,
        adaptive_seconds=sum(choice.seconds for choice in choices),
    )
