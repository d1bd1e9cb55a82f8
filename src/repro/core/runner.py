"""High-level runner: execute one all-to-all on a simulated machine.

This is the main user-facing entry point of the library: given an algorithm
(name or instance), a process map and a per-destination message size, it
builds deterministic send buffers, runs the SPMD job on the discrete-event
engine, validates the result against the defining transposition and returns
the timing plus the per-phase breakdown.

Two entry points cover the two traffic families:

* :func:`run_alltoall` — the paper's uniform exchange, parameterised by a
  scalar per-destination ``msg_bytes``;
* :func:`run_workload` — a non-uniform exchange described by a
  :class:`~repro.workloads.TrafficMatrix`, run with the variable-count
  (``alltoallv``) algorithms of :mod:`repro.core.alltoall.valgorithms` and
  validated against the non-uniform transposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.alltoall.base import AlltoallAlgorithm
from repro.core.alltoall.registry import get_algorithm
from repro.core.alltoall.valgorithms import AlltoallvAlgorithm, get_v_algorithm
from repro.core.validation import (
    make_workload_sendbuf,
    validate_alltoall_results,
    validate_folded_alltoall_results,
    validate_folded_workload_results,
    validate_workload_results,
)
from repro.errors import ConfigurationError
from repro.machine.folding import FOLD_MODES, uniform_certificate
from repro.machine.hierarchy import LocalityLevel
from repro.machine.process_map import ProcessMap
from repro.netsim.fabric import DragonflyFabric
from repro.simmpi.engine import JobResult, run_spmd
from repro.utils.buffers import make_alltoall_sendbuf
from repro.workloads.matrix import TrafficMatrix

__all__ = [
    "AlltoallOutcome",
    "WorkloadOutcome",
    "PhasedJob",
    "PhaseResult",
    "JobOutcome",
    "PhasedOutcome",
    "run_alltoall",
    "run_workload",
    "run_phased",
    "run_phased_workload",
    "alltoall_program",
    "workload_program",
    "phased_program",
    "FOLD_MODES",
]


def _resolve_fold(pmap: ProcessMap, fold: str, faults=None,
                  matrix: TrafficMatrix | None = None) -> ProcessMap:
    """Process map to simulate with under ``fold`` mode: the one fold guard.

    Uniform traffic (``matrix`` is ``None``) is invariant under every rank
    rotation, so ``auto`` and ``on`` both fold it; a workload folds only
    when the symmetry analyzer certifies its matrix, and ``on`` refuses one
    it cannot.  A dragonfly is outside the folding equivalence envelope
    (see :mod:`repro.verify.folding`): a folded run there can be wrong by
    multiples, so ``auto`` falls back to the full simulation and ``on``
    refuses.  Faults break the node-rotation symmetry the fold relies on,
    so any fold mode but ``off`` refuses them.  Already-folded maps are
    returned as they are.
    """
    if faults and fold != "off":
        raise ConfigurationError(
            "fault injection is incompatible with symmetry folding "
            f"(fold={fold!r}): faults break the node-rotation symmetry the "
            "fold relies on; run with fold='off'"
        )
    if fold not in FOLD_MODES:
        raise ConfigurationError(
            f"fold must be one of {', '.join(FOLD_MODES)}; got {fold!r}"
        )
    if fold == "off" or pmap.is_folded:
        return pmap
    if isinstance(pmap.cluster.fabric, DragonflyFabric):
        if fold == "on":
            raise ConfigurationError(
                "fold requested on a dragonfly fabric, which is outside the folding "
                "equivalence envelope (convoying is not reproduced); run with "
                "fold='off' or 'auto'"
            )
        return pmap
    if matrix is None:
        return pmap.folded(uniform_certificate(pmap.nprocs, pmap.ppn))
    from repro.workloads.symmetry import analyze_symmetry

    report = analyze_symmetry(matrix, pmap.ppn)
    if report.foldable:
        return pmap.folded(report.fold_certificate())
    if fold == "on":
        raise ConfigurationError(
            f"fold requested but the traffic is not foldable: {report.certificate}"
        )
    return pmap


@dataclass
class AlltoallOutcome:
    """Result of one simulated all-to-all exchange."""

    #: Human-readable description of the algorithm and its options.
    algorithm: str
    #: Per-destination message size in bytes.
    msg_bytes: int
    #: Number of nodes used.
    num_nodes: int
    #: Processes per node.
    ppn: int
    #: Simulated execution time of the collective (max over ranks), seconds.
    elapsed: float
    #: Whether the receive buffers matched the reference transposition.
    correct: bool
    #: Max-over-ranks duration of each instrumented phase.
    phase_times: dict[str, float] = field(default_factory=dict)
    #: Message and byte counts per locality level.
    traffic_by_level: dict[LocalityLevel, tuple[int, int]] = field(default_factory=dict)
    #: Full engine result (per-rank data, NIC statistics).
    job: JobResult | None = None
    #: Symmetry-folding metadata (``None`` for unfolded runs); mirrors
    #: :attr:`repro.simmpi.engine.JobResult.fold` so it survives
    #: ``keep_job=False``.
    fold: dict | None = None

    @property
    def nprocs(self) -> int:
        return self.num_nodes * self.ppn

    @property
    def inter_node_bytes(self) -> int:
        """Total bytes that crossed the network."""
        counts = self.traffic_by_level.get(LocalityLevel.NETWORK, (0, 0))
        return counts[1]

    @property
    def inter_node_messages(self) -> int:
        """Total messages that crossed the network."""
        counts = self.traffic_by_level.get(LocalityLevel.NETWORK, (0, 0))
        return counts[0]

    def summary(self) -> str:
        phases = ", ".join(f"{k}={v:.3e}s" for k, v in sorted(self.phase_times.items()))
        folded = ""
        if self.fold is not None:
            folded = (
                f" [folded: {self.fold['simulated_ranks']} representatives "
                f"x {self.fold['multiplicity']}]"
            )
        return (
            f"{self.algorithm}: {self.msg_bytes} B x {self.nprocs} ranks "
            f"({self.num_nodes} nodes x {self.ppn} ppn) -> {self.elapsed:.3e} s"
            + folded
            + (f" [{phases}]" if phases else "")
            + ("" if self.correct else "  ** INCORRECT RESULT **")
        )


def alltoall_program(ctx, algorithm: AlltoallAlgorithm, block_items: int, dtype):
    """Rank program that builds buffers, runs ``algorithm`` and stores the result.

    The receive buffer is exposed as the rank result up front (the exchange
    fills it in place) and the algorithm's generator is returned directly:
    a ``yield from`` wrapper here would put one more frame under every
    simulated operation.
    """
    nprocs = ctx.nprocs
    sendbuf = make_alltoall_sendbuf(ctx.rank, nprocs, block_items, dtype=dtype)
    recvbuf = np.zeros(nprocs * block_items, dtype=dtype)
    ctx.result = recvbuf
    return algorithm.run(ctx, sendbuf, recvbuf)


def run_alltoall(
    algorithm: str | AlltoallAlgorithm,
    pmap: ProcessMap,
    msg_bytes: int,
    *,
    dtype=np.uint8,
    validate: bool = True,
    sink=None,
    keep_job: bool = True,
    fold: str = "off",
    faults=None,
    **algorithm_options: Any,
) -> AlltoallOutcome:
    """Simulate one all-to-all exchange and return its :class:`AlltoallOutcome`.

    Parameters
    ----------
    algorithm:
        Registry name (``"node-aware"``, ``"multileader-node-aware"``, ...)
        or an :class:`AlltoallAlgorithm` instance.
    pmap:
        Process placement (machine, node count, processes per node).
    msg_bytes:
        Bytes each rank sends to each other rank (the paper's x-axis).
    dtype:
        Element type of the exchanged buffers; ``msg_bytes`` must be a
        multiple of its item size.
    validate:
        Check the receive buffers against the reference transposition.
    sink:
        Optional :class:`repro.obs.sink.EventSink` observing the job's
        simulated lifecycle (phase/wait/match/NIC/link events); ``None``
        keeps tracing off at zero cost.
    fold:
        Symmetry folding mode — ``"off"`` (default) simulates every rank;
        ``"auto"`` and ``"on"`` simulate one node's representatives standing
        in for the whole machine (always sound for the uniform exchange; see
        :mod:`repro.machine.folding`).  On a dragonfly fabric, outside the
        certified envelope, ``"auto"`` simulates every rank and ``"on"``
        raises.  With folding off the simulated arithmetic is bit-identical
        to what it was before folding existed.
    faults:
        Optional :class:`repro.faults.FaultSpec` injecting deterministic
        machine degradations (degraded/flapping links, stragglers, OS
        noise).  Empty/``None`` is bit-identical to a fault-free build;
        incompatible with folding (faults break node-rotation symmetry).
    algorithm_options:
        Forwarded to the algorithm constructor when ``algorithm`` is a name.
    """
    if msg_bytes <= 0:
        raise ConfigurationError(f"msg_bytes must be positive, got {msg_bytes}")
    itemsize = np.dtype(dtype).itemsize
    if msg_bytes % itemsize != 0:
        raise ConfigurationError(
            f"msg_bytes={msg_bytes} is not a multiple of the {itemsize}-byte dtype {np.dtype(dtype)}"
        )
    block_items = msg_bytes // itemsize

    algo = get_algorithm(algorithm, **algorithm_options) if isinstance(algorithm, str) else algorithm
    if algorithm_options and not isinstance(algorithm, str):
        raise ConfigurationError("algorithm options can only be given together with an algorithm name")
    pmap = _resolve_fold(pmap, fold, faults)
    algo.validate(pmap)

    job = run_spmd(pmap, alltoall_program, algo, block_items, np.dtype(dtype),
                   sink=sink, faults=faults)

    correct = True
    if validate:
        if pmap.is_folded:
            correct = validate_folded_alltoall_results(
                job.results, pmap.nprocs, pmap.ppn, block_items
            )
        else:
            correct = validate_alltoall_results(job.results, pmap.nprocs, block_items)

    phase_times = {name: job.phase_time(name) for name in job.phases()}
    outcome = AlltoallOutcome(
        algorithm=algo.describe(),
        msg_bytes=msg_bytes,
        num_nodes=pmap.num_nodes,
        ppn=pmap.ppn,
        elapsed=job.elapsed,
        correct=correct,
        phase_times=phase_times,
        traffic_by_level=dict(job.traffic_by_level),
        job=job if keep_job else None,
        fold=job.fold,
    )
    return outcome


# ---------------------------------------------------------------------------
# Non-uniform workloads (alltoallv)
# ---------------------------------------------------------------------------


@dataclass
class WorkloadOutcome:
    """Result of one simulated non-uniform (alltoallv) exchange."""

    #: Human-readable description of the algorithm and its options.
    algorithm: str
    #: Traffic pattern name of the matrix that was exchanged.
    pattern: str
    #: Total bytes moved by the exchange.
    total_bytes: int
    #: Load imbalance of the matrix (max per-rank send bytes over the mean).
    skew: float
    #: Number of nodes used.
    num_nodes: int
    #: Processes per node.
    ppn: int
    #: Simulated execution time of the collective (max over ranks), seconds.
    elapsed: float
    #: Whether the receive buffers matched the reference transposition.
    correct: bool
    #: Max-over-ranks duration of each instrumented phase.
    phase_times: dict[str, float] = field(default_factory=dict)
    #: Message and byte counts per locality level.
    traffic_by_level: dict[LocalityLevel, tuple[int, int]] = field(default_factory=dict)
    #: Full engine result (per-rank data, NIC statistics).
    job: JobResult | None = None
    #: Symmetry-folding metadata (``None`` for unfolded runs).
    fold: dict | None = None

    @property
    def nprocs(self) -> int:
        return self.num_nodes * self.ppn

    @property
    def inter_node_bytes(self) -> int:
        """Total bytes that crossed the network."""
        counts = self.traffic_by_level.get(LocalityLevel.NETWORK, (0, 0))
        return counts[1]

    @property
    def inter_node_messages(self) -> int:
        """Total messages that crossed the network."""
        counts = self.traffic_by_level.get(LocalityLevel.NETWORK, (0, 0))
        return counts[0]

    def summary(self) -> str:
        phases = ", ".join(f"{k}={v:.3e}s" for k, v in sorted(self.phase_times.items()))
        return (
            f"{self.algorithm} [{self.pattern}]: {self.total_bytes} B total "
            f"(skew {self.skew:.2f}x) over {self.nprocs} ranks "
            f"({self.num_nodes} nodes x {self.ppn} ppn) -> {self.elapsed:.3e} s"
            + (f" [{phases}]" if phases else "")
            + ("" if self.correct else "  ** INCORRECT RESULT **")
        )


# ---------------------------------------------------------------------------
# Phased workloads (multi-exchange timelines, optional multi-job interference)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhasedJob:
    """One job of a phased run: a workload, its per-phase algorithms, its nodes.

    ``algorithms`` holds one ``(name, options)`` pair per phase of the
    workload — the *assignment*.  A static assignment repeats the same
    pair for every phase; an adaptive one re-picks per phase (see
    :func:`repro.core.selection.select_phased`).
    """

    workload: Any
    algorithms: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...]
    num_nodes: int

    @classmethod
    def make(cls, workload, algorithms, num_nodes: int) -> "PhasedJob":
        """Build a job, normalising ``algorithms`` into the canonical tuple form.

        ``algorithms`` may be a single algorithm (name, ``(name, options)``
        pair, or anything with ``.algorithm``/``.as_kwargs()`` such as a
        :class:`~repro.core.selection.CandidateConfig`) applied to every
        phase, or a sequence with one such entry per phase.
        """
        num_phases = workload.num_phases
        if isinstance(algorithms, (str, tuple)) or hasattr(algorithms, "algorithm"):
            entries = [algorithms] * num_phases
        else:
            entries = list(algorithms)
        if len(entries) != num_phases:
            raise ConfigurationError(
                f"phased job needs one algorithm per phase: got {len(entries)} "
                f"for {num_phases} phase(s)"
            )
        normalised = []
        for entry in entries:
            if hasattr(entry, "algorithm") and hasattr(entry, "as_kwargs"):
                name, options = entry.algorithm, entry.as_kwargs()
            elif isinstance(entry, str):
                name, options = entry, {}
            elif isinstance(entry, tuple) and len(entry) == 2:
                name, options = entry[0], dict(entry[1])
            else:
                raise ConfigurationError(
                    f"cannot interpret {entry!r} as a phase algorithm; expected "
                    "a name, a (name, options) pair or a candidate config"
                )
            normalised.append((name, tuple(sorted(options.items()))))
        return cls(workload=workload, algorithms=tuple(normalised),
                   num_nodes=num_nodes)

    def describe_assignment(self) -> str:
        parts = []
        for (name, options), phase in zip(self.algorithms, self.workload.phases):
            opts = ", ".join(f"{k}={v}" for k, v in options)
            parts.append(f"{phase.name}={name}({opts})" if opts else f"{phase.name}={name}")
        return "; ".join(parts)


@dataclass
class PhaseResult:
    """Realized timing of one phase of one job."""

    #: Phase name from the workload.
    name: str
    #: Algorithm description the phase ran with.
    algorithm: str
    #: Back-to-back repeats of the exchange.
    repeats: int
    #: Max-over-ranks simulated time spent in the phase (all repeats).
    elapsed: float
    #: Whether the phase's receive buffers matched the reference.
    correct: bool


@dataclass
class JobOutcome:
    """Realized outcome of one job of a phased run."""

    index: int
    num_nodes: int
    ppn: int
    phases: list[PhaseResult]
    #: Simulated completion time of the job (max over its ranks).
    elapsed: float

    @property
    def correct(self) -> bool:
        return all(phase.correct for phase in self.phases)

    def summary(self) -> str:
        steps = ", ".join(
            f"{p.name}[{p.algorithm}]={p.elapsed:.3e}s" for p in self.phases
        )
        return (
            f"job{self.index} ({self.num_nodes} nodes x {self.ppn} ppn): "
            f"{self.elapsed:.3e} s [{steps}]"
            + ("" if self.correct else "  ** INCORRECT RESULT **")
        )


@dataclass
class PhasedOutcome:
    """Result of one phased (possibly multi-job) simulation."""

    jobs: list[JobOutcome]
    num_nodes: int
    ppn: int
    #: Simulated completion time of the whole run (max over all jobs).
    elapsed: float
    #: Max-over-ranks duration of every recorded span (phase boundaries,
    #: per-job totals, and the algorithms' internal phases).
    phase_times: dict[str, float] = field(default_factory=dict)
    #: Message and byte counts per locality level (whole run).
    traffic_by_level: dict[LocalityLevel, tuple[int, int]] = field(default_factory=dict)
    #: Full engine result; ``None`` with ``keep_job=False``.
    job: JobResult | None = None

    @property
    def correct(self) -> bool:
        return all(job.correct for job in self.jobs)

    def summary(self) -> str:
        lines = [
            f"phased run: {len(self.jobs)} job(s) on {self.num_nodes} nodes "
            f"x {self.ppn} ppn -> {self.elapsed:.3e} s"
        ]
        lines.extend(job.summary() for job in self.jobs)
        return "\n".join(lines)


def _phase_label(num_jobs: int, job_index: int, phase_index: int, name: str) -> str:
    """Span label of one phase: stable, parseable, unique per (job, phase)."""
    label = f"phase{phase_index}:{name}"
    return label if num_jobs == 1 else f"job{job_index}/{label}"


def _job_total_label(num_jobs: int, job_index: int) -> str:
    return "job:total" if num_jobs == 1 else f"job{job_index}:total"


@dataclass(frozen=True)
class _JobPlan:
    """Resolved per-job execution plan shared by every rank program."""

    index: int
    rank_base: int
    pmap: ProcessMap
    #: One ``(label, algorithm instance, counts, repeats)`` tuple per phase.
    phases: tuple
    total_label: str


def phased_program(ctx, plans: tuple, dtype):
    """Rank program of a phased run: my job's phases, back-to-back.

    The rank locates its job by engine-rank range, builds a job-local view
    (:func:`repro.simmpi.jobview.job_view`) and runs every phase of its
    job's plan through it.  A job-internal barrier separates consecutive
    exchanges so no message of one phase can match a receive of the next;
    jobs never synchronise with each other — their only coupling is link
    contention on the shared fabric.

    Each phase's span is recorded as ``phase<i>:<name>`` (prefixed with
    ``job<j>/`` for multi-job runs) via
    :meth:`~repro.simmpi.engine.RankContext.record_span`, so phase
    boundaries land on the exported Chrome-trace rank tracks; the job's
    completion time accumulates under its ``job:total`` label.
    """
    from repro.simmpi.jobview import job_view  # deferred: avoids an import cycle

    plan = None
    for candidate in plans:
        if candidate.rank_base <= ctx.rank < candidate.rank_base + candidate.pmap.nprocs:
            plan = candidate
            break
    assert plan is not None, f"rank {ctx.rank} belongs to no job"
    view = job_view(ctx, plan.index, plan.rank_base, plan.pmap)
    results = []
    for label, algo, counts, repeats in plan.phases:
        recvbuf = None
        for _ in range(repeats):
            sendbuf = make_workload_sendbuf(view.rank, counts, dtype=dtype)
            recvbuf = np.zeros(int(counts[:, view.rank].sum()), dtype=dtype)
            start = ctx.now
            yield from algo.run(view, counts, sendbuf, recvbuf)
            ctx.record_span(label, start, ctx.now)
            # The barrier keeps consecutive exchanges from overlapping on a
            # shared communicator context; it is job-internal, so other
            # jobs keep running (and contending) freely.
            yield from view.world.barrier()
        results.append(recvbuf)
    ctx.add_timing(plan.total_label, ctx.now)
    ctx.result = results


def run_phased(
    jobs,
    pmap: ProcessMap,
    *,
    dtype=np.uint8,
    validate: bool = True,
    sink=None,
    keep_job: bool = True,
    faults=None,
) -> PhasedOutcome:
    """Simulate one or more phased jobs on a single engine timeline.

    Parameters
    ----------
    jobs:
        Sequence of :class:`PhasedJob` descriptors.  Jobs are placed on
        contiguous node ranges in order; their node counts must sum to
        ``pmap.num_nodes`` and every job's workload must describe exactly
        ``job.num_nodes * pmap.ppn`` ranks.
    pmap:
        Process map of the *whole machine* (all jobs).  Its cluster — and
        in particular its fabric — is what the jobs share: on a tapered
        dragonfly, one job's traffic delays another's, which is the
        interference adaptive selection exploits.  Folded maps are
        rejected (phases and multi-job placements break the rotation
        symmetry folding relies on).
    validate / sink / keep_job / faults:
        As in :func:`run_workload`; validation checks every phase of every
        job against the non-uniform reference transposition.
    """
    jobs = list(jobs)
    if not jobs:
        raise ConfigurationError("a phased run needs at least one job")
    if pmap.is_folded:
        raise ConfigurationError(
            "phased runs are incompatible with symmetry folding: phase "
            "sequences and multi-job placements break the node-rotation "
            "symmetry the fold relies on"
        )
    total_nodes = sum(job.num_nodes for job in jobs)
    if total_nodes != pmap.num_nodes:
        raise ConfigurationError(
            f"job node counts sum to {total_nodes} but the process map has "
            f"{pmap.num_nodes} nodes"
        )
    np_dtype = np.dtype(dtype)

    plans: list[_JobPlan] = []
    node_base = 0
    for index, job in enumerate(jobs):
        if job.num_nodes <= 0:
            raise ConfigurationError(
                f"job {index} must occupy at least one node, got {job.num_nodes}"
            )
        job_pmap = ProcessMap(pmap.cluster, ppn=pmap.ppn, num_nodes=job.num_nodes)
        if job.workload.nprocs != job_pmap.nprocs:
            raise ConfigurationError(
                f"job {index} workload describes {job.workload.nprocs} ranks "
                f"but its placement has {job_pmap.nprocs} "
                f"({job.num_nodes} nodes x {pmap.ppn} ppn)"
            )
        phases = []
        for phase_index, (phase, (name, options)) in enumerate(
            zip(job.workload.phases, job.algorithms)
        ):
            algo = get_v_algorithm(name, **dict(options))
            counts = phase.matrix.item_counts(np_dtype)
            algo.validate(job_pmap, counts)
            label = _phase_label(len(jobs), index, phase_index, phase.name)
            phases.append((label, algo, counts, phase.repeats))
        plans.append(
            _JobPlan(
                index=index,
                rank_base=node_base * pmap.ppn,
                pmap=job_pmap,
                phases=tuple(phases),
                total_label=_job_total_label(len(jobs), index),
            )
        )
        node_base += job.num_nodes

    engine_result = run_spmd(
        pmap, phased_program, tuple(plans), np_dtype,
        sink=sink, faults=faults,
    )

    phase_times = {name: engine_result.phase_time(name) for name in engine_result.phases()}
    job_outcomes: list[JobOutcome] = []
    for plan, job in zip(plans, jobs):
        phase_results: list[PhaseResult] = []
        for (label, algo, counts, repeats), phase in zip(plan.phases, job.workload.phases):
            correct = True
            if validate:
                base = plan.rank_base
                phase_index = len(phase_results)
                bufs = [
                    engine_result.results[base + rank][phase_index]
                    for rank in range(plan.pmap.nprocs)
                ]
                correct = validate_workload_results(bufs, counts)
            phase_results.append(
                PhaseResult(
                    name=phase.name,
                    algorithm=algo.describe(),
                    repeats=repeats,
                    elapsed=phase_times.get(label, 0.0),
                    correct=correct,
                )
            )
        job_outcomes.append(
            JobOutcome(
                index=plan.index,
                num_nodes=job.num_nodes,
                ppn=pmap.ppn,
                phases=phase_results,
                elapsed=phase_times.get(plan.total_label, 0.0),
            )
        )

    return PhasedOutcome(
        jobs=job_outcomes,
        num_nodes=pmap.num_nodes,
        ppn=pmap.ppn,
        elapsed=engine_result.elapsed,
        phase_times=phase_times,
        traffic_by_level=dict(engine_result.traffic_by_level),
        job=engine_result if keep_job else None,
    )


def run_phased_workload(
    algorithms,
    pmap: ProcessMap,
    workload,
    **kwargs,
) -> PhasedOutcome:
    """Simulate one phased workload occupying the whole machine.

    ``algorithms`` is a single algorithm applied to every phase or a
    per-phase sequence (see :meth:`PhasedJob.make`); everything else is as
    in :func:`run_phased`.
    """
    job = PhasedJob.make(workload, algorithms, pmap.num_nodes)
    return run_phased([job], pmap, **kwargs)


def workload_program(ctx, algorithm: AlltoallvAlgorithm, counts: np.ndarray, dtype):
    """Rank program that builds packed v-buffers, runs ``algorithm`` and stores the result.

    Like :func:`alltoall_program`, the receive buffer is published as the
    rank result up front and the algorithm's generator is returned without
    a delegating frame.
    """
    sendbuf = make_workload_sendbuf(ctx.rank, counts, dtype=dtype)
    recvbuf = np.zeros(int(counts[:, ctx.rank].sum()), dtype=dtype)
    ctx.result = recvbuf
    return algorithm.run(ctx, counts, sendbuf, recvbuf)


def run_workload(
    algorithm: str | AlltoallvAlgorithm,
    pmap: ProcessMap,
    matrix: TrafficMatrix | np.ndarray,
    *,
    dtype=np.uint8,
    validate: bool = True,
    sink=None,
    keep_job: bool = True,
    fold: str = "off",
    faults=None,
    **algorithm_options: Any,
) -> WorkloadOutcome:
    """Simulate one non-uniform exchange and return its :class:`WorkloadOutcome`.

    Parameters
    ----------
    algorithm:
        V-algorithm registry name (``"pairwise"``, ``"nonblocking"``,
        ``"node-aware"``) or an :class:`AlltoallvAlgorithm` instance.
    pmap:
        Process placement; ``matrix.nprocs`` must equal ``pmap.nprocs``.
    matrix:
        The :class:`~repro.workloads.TrafficMatrix` to exchange (a raw
        square byte array is accepted and wrapped).
    dtype:
        Element type of the exchanged buffers; every matrix entry must be a
        multiple of its item size (always true for the default ``uint8``).
    validate:
        Check the receive buffers against the non-uniform reference
        transposition.
    sink:
        Optional :class:`repro.obs.sink.EventSink` (see :func:`run_alltoall`).
    fold:
        Symmetry folding mode.  ``"auto"`` folds when the symmetry analyzer
        (:func:`repro.workloads.symmetry.analyze_symmetry`) certifies the
        matrix as node-rotation invariant and falls back to the full
        simulation otherwise; ``"on"`` raises if the traffic is not
        foldable; ``"off"`` (default) always simulates every rank.  A
        dragonfly fabric is treated as in :func:`run_alltoall`.
    faults:
        Optional :class:`repro.faults.FaultSpec` (see :func:`run_alltoall`);
        incompatible with folding.
    algorithm_options:
        Forwarded to the algorithm constructor when ``algorithm`` is a name
        (e.g. ``procs_per_group=4``, ``inner="nonblocking"``).
    """
    if isinstance(matrix, np.ndarray):
        matrix = TrafficMatrix(matrix)
    if matrix.nprocs != pmap.nprocs:
        raise ConfigurationError(
            f"traffic matrix describes {matrix.nprocs} ranks but the process map "
            f"has {pmap.nprocs}"
        )
    counts = matrix.item_counts(np.dtype(dtype))

    if isinstance(algorithm, str):
        algo = get_v_algorithm(algorithm, **algorithm_options)
    else:
        algo = algorithm
        if algorithm_options:
            raise ConfigurationError(
                "algorithm options can only be given together with an algorithm name"
            )
    pmap = _resolve_fold(pmap, fold, faults, matrix)
    algo.validate(pmap, counts)

    job = run_spmd(pmap, workload_program, algo, counts, np.dtype(dtype),
                   sink=sink, faults=faults)

    correct = True
    if validate:
        if pmap.is_folded:
            correct = validate_folded_workload_results(job.results, counts, pmap.ppn)
        else:
            correct = validate_workload_results(job.results, counts)

    phase_times = {name: job.phase_time(name) for name in job.phases()}
    return WorkloadOutcome(
        algorithm=algo.describe(),
        pattern=matrix.pattern,
        total_bytes=matrix.total_bytes,
        skew=matrix.skew,
        num_nodes=pmap.num_nodes,
        ppn=pmap.ppn,
        elapsed=job.elapsed,
        correct=correct,
        phase_times=phase_times,
        traffic_by_level=dict(job.traffic_by_level),
        job=job if keep_job else None,
        fold=job.fold,
    )
