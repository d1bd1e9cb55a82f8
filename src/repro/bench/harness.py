"""Timing harness shared by every figure definition.

A :class:`BenchmarkHarness` is bound to one machine (cluster preset + ppn)
and one *engine*:

* ``engine="simulate"`` runs the exchange on the discrete-event simulator —
  exact per-message accounting, practical at reduced scale (a few hundred
  ranks);
* ``engine="model"`` evaluates the analytic cost model — instant, used to
  regenerate the figures at the paper's full scale (32 nodes x 112 ranks).

The paper reports the minimum of three repetitions for every point; the
harness keeps that policy (``repetitions`` parameter) even though the
simulator is deterministic, so measured-system backends can reuse the same
interface.

Every point is described by a picklable
:class:`~repro.runtime.spec.PointSpec` and executed either inline (the
default) or through a :class:`~repro.runtime.SweepExecutor`, which fans the
independent points of a sweep out over a process pool and can serve
already-simulated points from an on-disk result store.  Sweeps batch all
their specs into a single executor call, so ``size_sweep`` over six message
sizes becomes six parallel simulator runs.
"""

from __future__ import annotations

from repro.core.runner import run_alltoall, run_workload
from repro.errors import ConfigurationError
from repro.machine.cluster import Cluster
from repro.machine.process_map import ProcessMap
from repro.model.predict import predict_breakdown, predict_workload_breakdown
from repro.bench.datasets import DataSeries, TimedPoint
from repro.runtime.executor import execute
from repro.runtime.spec import PointSpec
from repro.utils.statistics import min_of_runs

__all__ = ["BenchmarkHarness", "PAPER_MESSAGE_SIZES", "PAPER_NODE_COUNTS", "TimedPoint", "run_spec"]

#: Per-destination message sizes the paper sweeps (4 B to 4096 B).
PAPER_MESSAGE_SIZES: tuple[int, ...] = (4, 16, 64, 256, 1024, 4096)

#: Node counts the paper scales over (2 to 32 nodes).
PAPER_NODE_COUNTS: tuple[int, ...] = (2, 4, 8, 16, 32)

_ENGINES = ("simulate", "model")


def run_spec(spec: PointSpec) -> TimedPoint:
    """Execute one spec in-process; the inline path and the executor's worker both land here.

    The spec is self-contained: cluster, ppn, engine and repetitions all
    come from it, so the inline path and the worker-pool path produce
    identical results for any spec.
    """
    pmap = ProcessMap(spec.cluster, ppn=spec.ppn, num_nodes=spec.num_nodes)
    options = dict(spec.options)
    if spec.phases is not None:
        from repro.core.runner import run_phased  # deferred: phased only

        jobs = spec.phased_jobs()
        return _timed_min(
            lambda: run_phased(
                jobs, pmap, validate=False, keep_job=False, faults=spec.faults,
            ),
            spec.repetitions,
        )
    if spec.trace is not None:
        matrix = spec.matrix()
        if matrix.nprocs != pmap.nprocs:
            raise ConfigurationError(
                f"traffic matrix describes {matrix.nprocs} ranks but the spec "
                f"point uses {pmap.nprocs} ({spec.num_nodes} nodes x {spec.ppn} ppn)"
            )
        if spec.engine == "model":
            breakdown = predict_workload_breakdown(spec.algorithm, pmap, matrix, **options)
            return TimedPoint(seconds=breakdown.total, phases=dict(breakdown.phases))
        return _timed_min(
            lambda: run_workload(
                spec.algorithm, pmap, matrix, validate=False, keep_job=False,
                fold=spec.fold, faults=spec.faults,
                **options
            ),
            spec.repetitions,
        )
    if spec.engine == "model":
        breakdown = predict_breakdown(spec.algorithm, pmap, spec.msg_bytes, **options)
        return TimedPoint(seconds=breakdown.total, phases=dict(breakdown.phases))
    return _timed_min(
        lambda: run_alltoall(
            spec.algorithm, pmap, spec.msg_bytes, validate=False, keep_job=False,
            fold=spec.fold, faults=spec.faults,
            **options
        ),
        spec.repetitions,
    )


def _timed_min(run_once, repetitions: int) -> TimedPoint:
    """Minimum-of-repetitions timing; the phase breakdown comes from the fastest run."""
    samples: list[float] = []
    best = None
    for _ in range(repetitions):
        outcome = run_once()
        samples.append(outcome.elapsed)
        if best is None or outcome.elapsed < best.elapsed:
            best = outcome
    return TimedPoint(seconds=min_of_runs(samples), phases=dict(best.phase_times))


class BenchmarkHarness:
    """Times all-to-all configurations on one machine through one engine."""

    def __init__(
        self,
        cluster: Cluster,
        ppn: int,
        *,
        engine: str = "model",
        repetitions: int = 1,
        executor=None,
        faults=None,
    ) -> None:
        if engine not in _ENGINES:
            raise ConfigurationError(f"unknown engine {engine!r}; choose from {_ENGINES}")
        if repetitions <= 0:
            raise ConfigurationError("repetitions must be positive")
        if faults is not None and not faults:
            faults = None
        if faults is not None and engine != "simulate":
            raise ConfigurationError(
                "fault injection requires the simulate engine "
                f"(got engine={engine!r})"
            )
        self.cluster = cluster
        self.ppn = ppn
        self.engine = engine
        self.repetitions = repetitions
        #: Optional :class:`~repro.runtime.SweepExecutor`; ``None`` executes inline.
        self.executor = executor
        #: Optional :class:`repro.faults.FaultSpec` stamped on every spec
        #: this harness builds (part of cache identity when non-empty).
        self.faults = faults

    # -- configuration ------------------------------------------------------
    def describe(self) -> str:
        return (
            f"{self.cluster.name}: up to {self.cluster.num_nodes} nodes x {self.ppn} ppn, "
            f"engine={self.engine}"
        )

    def process_map(self, num_nodes: int) -> ProcessMap:
        if num_nodes > self.cluster.num_nodes:
            raise ConfigurationError(
                f"requested {num_nodes} nodes but the cluster has {self.cluster.num_nodes}"
            )
        return ProcessMap(self.cluster, ppn=self.ppn, num_nodes=num_nodes)

    # -- point specs ---------------------------------------------------------
    def point_spec(self, algorithm: str, msg_bytes: int, num_nodes: int, *,
                   fold: str = "off", **options) -> PointSpec:
        """The :class:`PointSpec` of one uniform (algorithm, size, nodes) point.

        ``PointSpec`` itself rejects node counts the cluster cannot host.
        """
        return PointSpec.for_alltoall(
            self.cluster, self.ppn, num_nodes, algorithm, msg_bytes,
            engine=self.engine, repetitions=self.repetitions, fold=fold,
            faults=self.faults, **options,
        )

    def workload_spec(self, algorithm: str, matrix, num_nodes: int, *,
                      fold: str = "off", **options) -> PointSpec:
        """The :class:`PointSpec` of one non-uniform workload point."""
        if matrix.nprocs != num_nodes * self.ppn:
            raise ConfigurationError(
                f"traffic matrix describes {matrix.nprocs} ranks but the harness "
                f"point uses {num_nodes * self.ppn} ({num_nodes} nodes x {self.ppn} ppn)"
            )
        return PointSpec.for_workload(
            self.cluster, self.ppn, num_nodes, algorithm, matrix,
            engine=self.engine, repetitions=self.repetitions, fold=fold,
            faults=self.faults, **options,
        )

    # -- timing --------------------------------------------------------------
    def time_point(self, algorithm: str, msg_bytes: int, num_nodes: int, **options) -> TimedPoint:
        """Time one (algorithm, message size, node count) configuration."""
        return self.run_specs([self.point_spec(algorithm, msg_bytes, num_nodes, **options)])[0]

    def workload_point(self, algorithm: str, matrix, num_nodes: int, **options) -> TimedPoint:
        """Time one non-uniform workload (algorithm, :class:`~repro.workloads.TrafficMatrix`, node count).

        The matrix must describe exactly ``num_nodes * ppn`` ranks.  With the
        model engine the point is priced by
        :func:`repro.model.predict.predict_workload_breakdown`; with the
        simulate engine the exchange runs on the discrete-event simulator,
        following the same minimum-of-repetitions policy as
        :meth:`time_point`.
        """
        return self.run_specs([self.workload_spec(algorithm, matrix, num_nodes, **options)])[0]

    def phased_spec(self, jobs, **spec_kwargs) -> PointSpec:
        """The :class:`PointSpec` of one phased (possibly multi-job) run.

        ``jobs`` is a sequence of :class:`repro.core.runner.PhasedJob`
        descriptors; their node counts must sum to a count the cluster can
        host (checked by the spec itself).
        """
        return PointSpec.for_phased(
            self.cluster, self.ppn, jobs, repetitions=self.repetitions,
            faults=self.faults, **spec_kwargs,
        )

    def run_specs(self, specs: list[PointSpec]) -> list[TimedPoint]:
        return execute(specs, self.executor)

    # -- sweeps ----------------------------------------------------------------
    def size_sweep(
        self,
        algorithm: str,
        *,
        msg_sizes=PAPER_MESSAGE_SIZES,
        num_nodes: int | None = None,
        label: str | None = None,
        **options,
    ) -> DataSeries:
        """Sweep the per-destination message size at a fixed node count."""
        nodes = self.cluster.num_nodes if num_nodes is None else num_nodes
        specs = [self.point_spec(algorithm, msg_bytes, nodes, **options) for msg_bytes in msg_sizes]
        series = DataSeries(label=label or algorithm)
        for msg_bytes, point in zip(msg_sizes, self.run_specs(specs)):
            series.add(msg_bytes, point.seconds, phases=point.phases)
        return series

    def node_sweep(
        self,
        algorithm: str,
        *,
        msg_bytes: int,
        node_counts=PAPER_NODE_COUNTS,
        label: str | None = None,
        **options,
    ) -> DataSeries:
        """Sweep the node count at a fixed message size."""
        specs = [self.point_spec(algorithm, msg_bytes, nodes, **options) for nodes in node_counts]
        series = DataSeries(label=label or algorithm)
        for nodes, point in zip(node_counts, self.run_specs(specs)):
            series.add(nodes, point.seconds, phases=point.phases)
        return series

    def phase_series(
        self,
        algorithm: str,
        phase: str,
        *,
        msg_sizes=PAPER_MESSAGE_SIZES,
        num_nodes: int | None = None,
        label: str | None = None,
        **options,
    ) -> DataSeries:
        """Sweep the message size and report the duration of a single internal phase."""
        nodes = self.cluster.num_nodes if num_nodes is None else num_nodes
        specs = [self.point_spec(algorithm, msg_bytes, nodes, **options) for msg_bytes in msg_sizes]
        series = DataSeries(label=label or f"{algorithm}:{phase}")
        for msg_bytes, point in zip(msg_sizes, self.run_specs(specs)):
            series.add(msg_bytes, point.phases.get(phase, 0.0), phases=point.phases)
        return series
