"""Differential execution: every applicable algorithm must deliver the same bytes.

The :class:`DifferentialRunner` takes one :class:`~repro.verify.Scenario`
and executes **every** registered algorithm that is applicable to it through
the :mod:`repro.simmpi` discrete-event engine:

* uniform scenarios run the full :data:`~repro.core.alltoall.registry.ALGORITHMS`
  family, with the sampled group size / inner exchange applied to the
  hierarchical members, and compare each receive buffer byte-for-byte
  against the ``system-mpi`` baseline's buffers *and* the closed-form
  reference of :mod:`repro.core.validation`;
* workload scenarios run every v-algorithm configuration against the
  independent ``alltoallv`` oracle (:func:`expected_workload_result`), the
  same transposition every v-capable algorithm is validated against —
  pairwise equivalence of all algorithms follows from equality with the
  shared reference.

On top of byte equivalence the runner performs timing sanity checks: every
simulated elapsed time must be finite and non-negative, and for every
algorithm the analytic model covers, the predicted time must be finite,
non-negative and monotone non-decreasing when the traffic doubles.

Failures come back as :class:`~repro.verify.report.FailureReport` objects,
shrunk (reduced ranks / bytes) to a minimal reproducer that still fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from hashlib import sha256

import numpy as np

from repro.core.alltoall.registry import get_algorithm
from repro.core.alltoall.valgorithms import get_v_algorithm
from repro.core.runner import run_alltoall, run_phased_workload, run_workload
from repro.core.validation import expected_alltoall_result, expected_workload_result
from repro.errors import ReproError
from repro.model.predict import (
    MODELED_ALGORITHMS,
    WORKLOAD_MODELED_ALGORITHMS,
    predict_time,
    predict_workload_time,
)
from repro.verify.report import FailureReport, shrink_scenario
from repro.verify.scenario import Scenario, ScenarioGenerator

__all__ = [
    "AlgorithmConfig",
    "VerificationRecord",
    "DifferentialRunner",
    "verify_seed",
    "verify_task",
]

#: Relative slack for the model monotonicity check: doubling the traffic may
#: never make the predicted time smaller by more than floating-point noise.
_MONOTONE_RTOL = 1e-9

_DTYPE = np.uint8


@dataclass(frozen=True)
class AlgorithmConfig:
    """One (algorithm name, options) configuration the runner executes."""

    name: str
    options: tuple[tuple[str, object], ...] = ()

    @classmethod
    def make(cls, name: str, **options) -> "AlgorithmConfig":
        return cls(name=name, options=tuple(sorted(options.items())))

    def as_dict(self) -> dict:
        return dict(self.options)

    def describe(self) -> str:
        opts = ", ".join(f"{k}={v}" for k, v in self.options)
        return f"{self.name}({opts})" if opts else self.name


@dataclass
class VerificationRecord:
    """Outcome of verifying one scenario (picklable: plain values only)."""

    seed: int
    digest: str
    family: str
    description: str
    #: Hex digest of the reference receive buffers (golden-corpus value).
    result_hash: str
    #: Configurations that ran and matched, as describe() strings.
    verified: list[str] = field(default_factory=list)
    #: Configurations skipped as inapplicable (validate() rejected them).
    skipped: list[str] = field(default_factory=list)
    failures: list[FailureReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        status = "ok" if self.ok else f"FAIL ({len(self.failures)})"
        return (
            f"[{self.digest[:12]}] seed {self.seed}: {self.family:<8s} "
            f"{len(self.verified)} algorithm(s) verified, {len(self.skipped)} "
            f"skipped -> {status}"
        )


def _same_system_mpi_regime(msg_bytes: int, options: dict) -> bool:
    """Whether ``msg_bytes`` and ``2 * msg_bytes`` select the same flat exchange."""
    from repro.core.alltoall.system_mpi import SystemMPIAlltoall

    baseline = SystemMPIAlltoall(**options)
    return baseline.chosen_exchange(msg_bytes) == baseline.chosen_exchange(2 * msg_bytes)


def uniform_configurations(scenario: Scenario) -> list[AlgorithmConfig]:
    """Every registry algorithm, parameterised by the scenario's samples.

    The ``system-mpi`` baseline is always first: it is the reference the
    other buffers are compared against.
    """
    g, inner = scenario.group_size, scenario.inner
    return [
        AlgorithmConfig.make("system-mpi"),
        AlgorithmConfig.make("pairwise"),
        AlgorithmConfig.make("nonblocking"),
        AlgorithmConfig.make("bruck"),
        AlgorithmConfig.make("batched"),
        AlgorithmConfig.make("hierarchical"),
        AlgorithmConfig.make("multileader", procs_per_leader=g, inner=inner),
        AlgorithmConfig.make("node-aware", inner=inner),
        AlgorithmConfig.make("locality-aware", procs_per_group=g, inner=inner),
        AlgorithmConfig.make("multileader-node-aware", procs_per_leader=g, inner=inner),
    ]


def workload_configurations(scenario: Scenario) -> list[AlgorithmConfig]:
    """Every v-capable algorithm configuration for a workload scenario."""
    g, inner = scenario.group_size, scenario.inner
    configs = [
        AlgorithmConfig.make("pairwise"),
        AlgorithmConfig.make("nonblocking"),
        AlgorithmConfig.make("node-aware"),
    ]
    # The parameterised variant duplicates the default node-aware config
    # (procs_per_group=None means whole-node, inner defaults to pairwise)
    # whenever the samples land on exactly that; don't simulate it twice.
    if g != scenario.ppn or inner != "pairwise":
        configs.append(AlgorithmConfig.make("node-aware", procs_per_group=g, inner=inner))
    return configs


def reference_buffers(scenario: Scenario) -> list[np.ndarray]:
    """Closed-form expected receive buffers (the defining transposition).

    Phased scenarios return one buffer per rank: the concatenation of the
    per-phase expected results in phase order, matching how
    :meth:`DifferentialRunner._execute_and_compare` flattens the phased
    engine results before comparing.
    """
    nprocs = scenario.nprocs
    if scenario.family == "uniform":
        return [
            expected_alltoall_result(rank, nprocs, scenario.msg_bytes, dtype=_DTYPE)
            for rank in range(nprocs)
        ]
    if scenario.family == "phased":
        per_phase = [
            phase.matrix.item_counts(_DTYPE) for phase in scenario.phases.phases
        ]
        return [
            np.concatenate([
                expected_workload_result(rank, counts, dtype=_DTYPE)
                for counts in per_phase
            ])
            for rank in range(nprocs)
        ]
    counts = scenario.matrix.item_counts(_DTYPE)
    return [expected_workload_result(rank, counts, dtype=_DTYPE) for rank in range(nprocs)]


def result_hash(scenario: Scenario) -> str:
    """Hex digest of the scenario's reference buffers.

    This is what every conforming algorithm must deliver, so freezing it in
    the golden corpus pins the *bytes* of the exchange: a future PR that
    changes what any algorithm delivers (rather than how fast) breaks the
    corpus check even if all algorithms change in unison.
    """
    hasher = sha256()
    hasher.update(f"{scenario.family}:{scenario.nprocs}".encode())
    for buf in reference_buffers(scenario):
        hasher.update(str(buf.size).encode())
        hasher.update(buf.tobytes())
    return hasher.hexdigest()


class DifferentialRunner:
    """Runs scenarios through every applicable algorithm and cross-checks them.

    Parameters
    ----------
    shrink:
        Attempt to reduce failing scenarios (fewer ranks, fewer bytes) to a
        minimal reproducer before reporting.  Disabled inside the shrinking
        search itself.
    faults:
        Optional :class:`repro.faults.FaultSpec` injected into every
        simulated run.  Faults perturb timings only, never delivered
        bytes, so verdicts and golden digests must be unchanged under any
        fault load — running the corpus faulted checks exactly that.
    """

    def __init__(self, *, shrink: bool = True, faults=None) -> None:
        self.shrink = shrink
        self.faults = faults if faults else None

    # -- public API ----------------------------------------------------------
    def verify(self, scenario: Scenario) -> VerificationRecord:
        """Execute and cross-check every applicable algorithm on ``scenario``."""
        record = VerificationRecord(
            seed=scenario.seed,
            digest=scenario.digest(),
            family=scenario.family,
            description=scenario.describe(),
            result_hash=result_hash(scenario),
        )
        # Phased scenarios run the same v-capable set as workloads — every
        # configuration must deliver the reference bytes in every phase.
        configs = (
            uniform_configurations(scenario)
            if scenario.family == "uniform"
            else workload_configurations(scenario)
        )
        reference = reference_buffers(scenario)
        for config in configs:
            failure, outcome = self._execute_and_compare(scenario, config, reference)
            if failure is None:
                record.verified.append(config.describe())
                if scenario.family == "uniform" and config.name == "system-mpi":
                    # The baseline just verified against the closed form;
                    # from here on every algorithm is compared against the
                    # bytes the system MPI actually delivered, making the
                    # check differential in the literal sense (and immune to
                    # a hypothetical oracle bug shared with no algorithm).
                    reference = [
                        np.asarray(buf).reshape(-1) for buf in outcome.job.results
                    ]
            elif failure.kind == "inapplicable":
                record.skipped.append(config.describe())
            else:
                # The shrinker reduces ranks/bytes through the matrix field,
                # which phased scenarios don't carry — report them unshrunk.
                if self.shrink and scenario.family != "phased":
                    failure = self._shrink(scenario, config, failure)
                record.failures.append(failure)
        return record

    # -- single-configuration check ------------------------------------------
    def check_configuration(
        self,
        scenario: Scenario,
        config: AlgorithmConfig,
        reference: list[np.ndarray] | None = None,
    ) -> FailureReport | None:
        """Check one configuration; ``None`` means it verified cleanly.

        A returned report with ``kind="inapplicable"`` is not a failure: the
        algorithm's own ``validate()`` rejected the placement (e.g. a group
        size that does not divide the ppn), which is its documented contract.
        """
        failure, _outcome = self._execute_and_compare(scenario, config, reference)
        return failure

    def _execute_and_compare(
        self,
        scenario: Scenario,
        config: AlgorithmConfig,
        reference: list[np.ndarray] | None = None,
    ):
        """Run one configuration and compare it; returns (failure, outcome)."""
        pmap = scenario.process_map()
        options = config.as_dict()
        try:
            if scenario.family == "uniform":
                algo = get_algorithm(config.name, **options)
                algo.validate(pmap)
            elif scenario.family == "phased":
                algo = get_v_algorithm(config.name, **options)
                for phase in scenario.phases.phases:
                    algo.validate(pmap, phase.matrix.item_counts(_DTYPE))
            else:
                algo = get_v_algorithm(config.name, **options)
                algo.validate(pmap, scenario.matrix.item_counts(_DTYPE))
        except ReproError as exc:
            return self._failure(scenario, config, "inapplicable", str(exc)), None

        if reference is None:
            reference = reference_buffers(scenario)
        try:
            if scenario.family == "uniform":
                outcome = run_alltoall(
                    algo, pmap, scenario.msg_bytes, dtype=_DTYPE, validate=True,
                    faults=self.faults,
                )
            elif scenario.family == "phased":
                outcome = run_phased_workload(
                    (config.name, options), pmap, scenario.phases,
                    dtype=_DTYPE, validate=True, faults=self.faults,
                )
            else:
                outcome = run_workload(
                    algo, pmap, scenario.matrix, dtype=_DTYPE, validate=True,
                    faults=self.faults,
                )
        except Exception as exc:  # a crash on a valid scenario is a finding
            return self._failure(
                scenario, config, "error", f"{type(exc).__name__}: {exc}"
            ), None

        if not outcome.correct:
            return self._failure(
                scenario, config, "mismatch",
                "core.validation rejected the receive buffers "
                "(reference transposition violated)",
            ), outcome
        for rank, (got, want) in enumerate(zip(outcome.job.results, reference)):
            if scenario.family == "phased":
                got = np.concatenate(
                    [np.asarray(part).reshape(-1) for part in got]
                )
            if not np.array_equal(np.asarray(got).reshape(-1), want):
                return self._failure(
                    scenario, config, "mismatch",
                    f"rank {rank} delivered different bytes than the reference",
                ), outcome
        return self._check_timing(scenario, config, pmap, outcome.elapsed), outcome

    # -- timing sanity --------------------------------------------------------
    def _check_timing(self, scenario, config, pmap, elapsed) -> FailureReport | None:
        if not math.isfinite(elapsed) or elapsed < 0.0:
            return self._failure(
                scenario, config, "timing",
                f"simulated time is not a finite non-negative value: {elapsed!r}",
            )
        if scenario.family == "phased":
            # The analytic model prices single exchanges; a phased run is a
            # sequence of them, so only the finiteness check above applies.
            return None
        options = config.as_dict()
        try:
            if scenario.family == "uniform":
                if config.name not in MODELED_ALGORITHMS:
                    return None
                if config.name == "system-mpi" and not _same_system_mpi_regime(
                    scenario.msg_bytes, options
                ):
                    # Size-switched selection is legitimately non-monotone at
                    # its thresholds: both the model and the simulator show
                    # e.g. 512 B (nonblocking) beating 256 B (Bruck) on small
                    # rank counts.  Monotonicity only holds per fixed
                    # exchange, so skip comparisons that straddle a switch.
                    return None
                small = predict_time(config.name, pmap, scenario.msg_bytes, **dict(options))
                large = predict_time(config.name, pmap, 2 * scenario.msg_bytes, **dict(options))
            else:
                if config.name not in WORKLOAD_MODELED_ALGORITHMS:
                    return None
                small = predict_workload_time(config.name, pmap, scenario.matrix, **dict(options))
                large = predict_workload_time(
                    config.name, pmap, scenario.matrix.scaled(2), **dict(options)
                )
        except ReproError:
            # The model legitimately covers fewer option combinations than
            # the simulator (e.g. unmodelled inner exchanges); that is not a
            # conformance failure.
            return None
        for value in (small, large):
            if not math.isfinite(value) or value < 0.0:
                return self._failure(
                    scenario, config, "timing",
                    f"model prediction is not a finite non-negative value: {value!r}",
                )
        if large < small * (1.0 - _MONOTONE_RTOL):
            return self._failure(
                scenario, config, "timing",
                f"model is not monotone in message size: doubling the traffic "
                f"dropped the prediction from {small:.6e} s to {large:.6e} s",
            )
        return None

    # -- failure assembly ------------------------------------------------------
    def _failure(self, scenario, config, kind, detail) -> FailureReport:
        return FailureReport(
            kind=kind,
            seed=scenario.seed,
            digest=scenario.digest(),
            algorithm=config.describe(),
            detail=detail,
            scenario_payload=scenario.payload(),
        )

    def _shrink(self, scenario, config, failure: FailureReport) -> FailureReport:
        def still_fails(candidate: Scenario, candidate_config: AlgorithmConfig) -> bool:
            found = self.check_configuration(candidate, candidate_config)
            return found is not None and found.kind == failure.kind

        minimal, minimal_config, crash = shrink_scenario(scenario, config, still_fails)
        if minimal is not scenario:
            failure.minimal_payload = minimal.payload()
            failure.minimal_algorithm = minimal_config.describe()
        if crash is not None:
            failure.shrink_crash = crash
        return failure


def verify_seed(seed: int, max_ranks: int = 24, *, fabric=None, faults=None,
                phased: bool = False) -> VerificationRecord:
    """Verify the scenario of one seed (the programmatic one-liner).

    ``fabric`` (a :mod:`repro.netsim.fabric` spec) opts the sampled cluster
    into a contended inter-node topology and widens the traffic sampler
    with the link-stressing incast / neighbour-shift shapes.
    ``faults`` (a :class:`repro.faults.FaultSpec`) injects deterministic
    machine degradations into every simulated run: faults perturb timings
    only, never the delivered bytes, so the differential byte checks and
    the golden-corpus digests (hashes of the reference buffers) are
    unchanged under any fault load — which is itself the conformance
    property being verified.
    ``phased`` opts the sampler into multi-phase scenarios
    (:class:`repro.workloads.PhasedWorkload` run end-to-end on one engine
    timeline); the default sampler is untouched so existing seeds keep
    their scenarios and digests.
    """
    scenario = ScenarioGenerator(
        max_ranks=max_ranks, fabric=fabric, phased=phased
    ).scenario(seed)
    return DifferentialRunner(faults=faults).verify(scenario)


def verify_task(task: tuple) -> VerificationRecord:
    """Module-level pool worker: ``task`` is a picklable
    ``(seed, max_ranks, fabric_spec, faults, phased)`` tuple — a
    :mod:`repro.netsim.fabric` spec, a :class:`repro.faults.FaultSpec` and
    the phased sampler flag; trailing slots may be omitted.

    Lives at module scope so :meth:`repro.runtime.SweepExecutor.map` can fan
    scenario seeds out over a ``spawn`` process pool.
    """
    seed, max_ranks = task[0], task[1]
    fabric = task[2] if len(task) > 2 else None
    faults = task[3] if len(task) > 3 else None
    phased = task[4] if len(task) > 4 else False
    return verify_seed(seed, max_ranks, fabric=fabric, faults=faults, phased=phased)
