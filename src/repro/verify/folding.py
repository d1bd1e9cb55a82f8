"""Differential fold gate: prove folded runs reproduce full simulations.

Symmetry folding (:mod:`repro.machine.folding`) simulates one node's ranks
standing in for the whole machine.  That is only worth anything if the folded
timeline is *the same timeline* — so this module runs every check twice, once
folded and once at full width, and compares:

* **Exact-equivalence class** — on a contention-free fabric (full bisection,
  the preset default) the folded run is **bit-identical**: same ``elapsed``,
  same per-representative finish times, same per-level traffic totals once
  scaled by the multiplicity, and independently-validated receive contents on
  both sides.  The gate asserts float equality, not closeness.
* **Aggregate-equivalence class** — on a contended fabric
  (:class:`~repro.netsim.fabric.FatTreeFabric` with oversubscription > 1)
  the folded run prices shared links through
  :class:`~repro.netsim.fabric.FoldedFabricView`, which restores the absent
  nodes' traffic with per-link multipliers.  Per-link ``busy_time``/``bytes``
  accounting is exact; elapsed reproduces per-link saturation but not
  per-message interleaving, so the gate checks relative elapsed agreement
  within :data:`FABRIC_REL_TOL` instead of bit equality (measured deviation
  is ≤ 0.26 across 4–32 nodes for pairwise/node-aware/bruck).

Known limitation: :class:`~repro.netsim.fabric.DragonflyFabric` routes every
cross-group message over three FIFO links, and full runs there are dominated
by emergent convoy (head-of-line) compounding — elapsed several times above
any per-link load bound.  A folded timeline reproduces the load bounds but
not the convoying, so dragonfly is excluded from the tolerance gate and
documented as outside the folding equivalence envelope.

A second, cheaper check (:func:`model_crosscheck`) runs *folded* simulations
at machine scales no full simulation can reach and compares them against the
closed-form LogGP model (:func:`repro.model.predict.predict_time`) — a
mutual sanity bound between the two independent cost paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.alltoall.registry import list_algorithms
from repro.core.runner import run_alltoall, run_workload
from repro.machine.process_map import ProcessMap
from repro.machine.systems import tiny_cluster
from repro.model.predict import predict_time
from repro.netsim.fabric import FatTreeFabric
from repro.workloads.generators import block_diagonal, neighbor_shift, uniform

__all__ = [
    "FABRIC_REL_TOL",
    "FoldGateRecord",
    "FoldGateReport",
    "ModelCrossPoint",
    "compare_alltoall_fold",
    "compare_workload_fold",
    "model_crosscheck",
    "run_fold_gate",
]

#: Relative elapsed tolerance for the aggregate-equivalence (contended
#: fabric) class.  Exact-class comparisons ignore this and demand equality.
FABRIC_REL_TOL = 0.35

#: Message sizes exercised per algorithm: one eager, one rendezvous (the
#: testing parameters put the eager/rendezvous switch at 16 KiB).
_GATE_SIZES = (64, 32768)


@dataclass
class FoldGateRecord:
    """One folded-vs-full comparison."""

    #: What was compared (algorithm, shape, size, workload kind).
    label: str
    #: ``"exact"`` (bit-identical demanded) or ``"aggregate"`` (tolerance).
    equivalence: str
    full_elapsed: float
    folded_elapsed: float
    #: Whether elapsed/finish-times matched under the class's criterion.
    timings_ok: bool
    #: Whether per-level (messages, bytes) totals matched exactly.
    traffic_ok: bool
    #: Whether both runs validated their receive buffers.
    contents_ok: bool
    #: Fold multiplicity of the folded run.
    multiplicity: int

    @property
    def ok(self) -> bool:
        return self.timings_ok and self.traffic_ok and self.contents_ok

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"[{status}] {self.label} ({self.equivalence}): "
            f"full={self.full_elapsed:.6e}s folded={self.folded_elapsed:.6e}s "
            f"x{self.multiplicity}"
        )


@dataclass
class FoldGateReport:
    """All records from one gate run."""

    records: list[FoldGateRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    @property
    def failures(self) -> list[FoldGateRecord]:
        return [r for r in self.records if not r.ok]

    def describe(self) -> str:
        lines = [r.describe() for r in self.records]
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"fold gate: {verdict} ({len(self.records) - len(self.failures)}"
            f"/{len(self.records)} comparisons)"
        )
        return "\n".join(lines)


def _compare(full, folded, label: str, equivalence: str) -> FoldGateRecord:
    if equivalence == "exact":
        timings_ok = full.elapsed == folded.elapsed
        if timings_ok and full.job is not None and folded.job is not None:
            ppn = folded.ppn
            timings_ok = full.job.finish_times[:ppn] == folded.job.finish_times
    else:
        scale = max(abs(full.elapsed), abs(folded.elapsed), 1e-30)
        timings_ok = abs(full.elapsed - folded.elapsed) <= FABRIC_REL_TOL * scale
    traffic_ok = full.traffic_by_level == folded.traffic_by_level
    contents_ok = full.correct and folded.correct
    multiplicity = folded.fold["multiplicity"] if folded.fold else 1
    return FoldGateRecord(
        label=label,
        equivalence=equivalence,
        full_elapsed=full.elapsed,
        folded_elapsed=folded.elapsed,
        timings_ok=timings_ok,
        traffic_ok=traffic_ok,
        contents_ok=contents_ok,
        multiplicity=multiplicity,
    )


def compare_alltoall_fold(
    algorithm: str,
    pmap: ProcessMap,
    msg_bytes: int,
    *,
    equivalence: str = "exact",
) -> FoldGateRecord:
    """Run one uniform exchange folded and unfolded, compare the timelines."""
    full = run_alltoall(algorithm, pmap, msg_bytes, fold="off")
    folded = run_alltoall(algorithm, pmap, msg_bytes, fold="on")
    label = f"{algorithm} {pmap.num_nodes}n x {pmap.ppn}p msg={msg_bytes}"
    return _compare(full, folded, label, equivalence)


def compare_workload_fold(
    algorithm: str,
    pmap: ProcessMap,
    matrix,
    label: str,
    *,
    equivalence: str = "exact",
) -> FoldGateRecord:
    """Run one non-uniform exchange folded and unfolded, compare timelines."""
    full = run_workload(algorithm, pmap, matrix, fold="off")
    folded = run_workload(algorithm, pmap, matrix, fold="on")
    return _compare(full, folded, label, equivalence)


def run_fold_gate(
    *,
    num_nodes: int = 8,
    ppn: int = 4,
    algorithms: Sequence[str] | None = None,
    include_fabric: bool = True,
) -> FoldGateReport:
    """Differential gate over the algorithm registry, eager + rendezvous sizes.

    ``num_nodes`` is capped at 64 — beyond that the unfolded side of the
    comparison stops being tractable, which is the point of folding.
    """
    if num_nodes > 64:
        raise ValueError(f"fold gate compares against full runs; num_nodes={num_nodes} > 64")
    names = list(algorithms) if algorithms is not None else list_algorithms()
    pmap = ProcessMap(tiny_cluster(num_nodes=num_nodes), ppn=ppn)
    report = FoldGateReport()

    for name in names:
        for msg_bytes in _GATE_SIZES:
            report.records.append(
                compare_alltoall_fold(name, pmap, msg_bytes)
            )

    nprocs = num_nodes * ppn
    workloads = [
        ("uniform", uniform(nprocs, 256)),
        ("block-diagonal", block_diagonal(nprocs, 256, group_size=ppn)),
        ("neighbor-shift", neighbor_shift(nprocs, 256, shift=1, degree=2)),
    ]
    for kind, matrix in workloads:
        report.records.append(
            compare_workload_fold(
                "pairwise", pmap, matrix, f"pairwise workload:{kind} {num_nodes}n x {ppn}p",
            )
        )

    if include_fabric:
        fabric = FatTreeFabric(hosts_per_switch=max(2, num_nodes // 4), oversubscription=2.0)
        fpmap = ProcessMap(tiny_cluster(num_nodes=num_nodes, fabric=fabric), ppn=ppn)
        for name in ("pairwise", "node-aware"):
            report.records.append(
                compare_alltoall_fold(name, fpmap, 32768, equivalence="aggregate")
            )
    return report


@dataclass
class ModelCrossPoint:
    """One folded-simulation vs analytic-model comparison point."""

    algorithm: str
    num_nodes: int
    ppn: int
    msg_bytes: int
    simulated: float
    predicted: float

    @property
    def ratio(self) -> float:
        return self.simulated / self.predicted if self.predicted > 0 else float("inf")

    @property
    def ok(self) -> bool:
        finite = self.simulated > 0 and self.predicted > 0
        return finite and 1e-2 <= self.ratio <= 1e2

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        return (
            f"[{status}] {self.algorithm} {self.num_nodes}n x {self.ppn}p "
            f"msg={self.msg_bytes}: sim={self.simulated:.3e}s "
            f"model={self.predicted:.3e}s ratio={self.ratio:.2f}"
        )


def model_crosscheck(
    *,
    node_counts: Sequence[int] = (256, 1024, 4096),
    ppn: int = 4,
    msg_bytes: int = 256,
    algorithms: Sequence[str] = ("pairwise", "node-aware"),
) -> list[ModelCrossPoint]:
    """Folded simulations at scales full runs can't reach, vs the LogGP model.

    The two cost paths share machine parameters but nothing else, so mutual
    agreement within two orders of magnitude is a real (if loose) invariant:
    it catches a folded timeline that silently dropped the absent nodes'
    serialization, and a model term that diverges at scale.
    """
    points: list[ModelCrossPoint] = []
    for num_nodes in node_counts:
        pmap = ProcessMap(tiny_cluster(num_nodes=num_nodes), ppn=ppn)
        for name in algorithms:
            outcome = run_alltoall(name, pmap, msg_bytes, fold="on", keep_job=False)
            predicted = predict_time(name, pmap, msg_bytes)
            points.append(
                ModelCrossPoint(
                    algorithm=name,
                    num_nodes=num_nodes,
                    ppn=ppn,
                    msg_bytes=msg_bytes,
                    simulated=outcome.elapsed,
                    predicted=predicted,
                )
            )
    return points
