"""One function per table / figure of the paper's evaluation (Section 4).

Every function regenerates the corresponding experiment and returns a
:class:`~repro.bench.datasets.FigureResult` whose series mirror the lines of
the paper's plot.  All figures default to the analytic-model engine at the
paper's full scale (32 nodes x 112 ranks of Dane, or Amber / Tuolomne for
Figures 17 / 18); passing ``engine="simulate"`` together with a smaller
``ppn`` / ``num_nodes`` reruns the same experiment through the
discrete-event simulator.

The default multi-leader / locality-aware group size is 4 processes per
leader/group (i.e. 28 groups per 112-core node), matching the configuration
Figure 10 of the paper uses for its combined comparison.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.datasets import DataSeries, FigureResult
from repro.bench.harness import PAPER_MESSAGE_SIZES, PAPER_NODE_COUNTS, BenchmarkHarness
from repro.core.instrumentation import (
    PHASE_GATHER,
    PHASE_INTER,
    PHASE_INTRA,
    PHASE_SCATTER,
)
from repro.machine.cluster import Cluster
from repro.machine.systems import amber, dane, tuolomne
from repro.runtime import SweepExecutor
from repro.utils.statistics import speedup

__all__ = [
    "FIGURES",
    "table1",
    "figure07",
    "figure08",
    "figure09",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "figure18",
    "figure_contention",
    "figure_link_utilisation",
    "figure_robustness",
    "figure_adaptive",
    "CONTENTION_FABRICS",
    "ROBUSTNESS_FAULTS",
    "ADAPTIVE_FABRIC",
    "adaptive_demo_workload",
    "headline_speedup",
]

#: Group sizes (processes per leader/group) the paper sweeps.
GROUP_SIZES = (4, 8, 16)
#: Default group size for the combined comparisons (28 groups per Dane node).
DEFAULT_GROUP = 4


def _harness(
    cluster: Cluster | None,
    *,
    default_cluster: Callable[[], Cluster] = dane,
    ppn: int | None,
    engine: str,
    executor: SweepExecutor | None = None, faults=None,
) -> BenchmarkHarness:
    machine = cluster if cluster is not None else default_cluster()
    processes = ppn if ppn is not None else machine.cores_per_node
    return BenchmarkHarness(machine, processes, engine=engine, executor=executor, faults=faults)


def _valid_groups(ppn: int) -> list[int]:
    return [g for g in GROUP_SIZES if ppn % g == 0 and g <= ppn]


def _clamp_node_counts(harness: BenchmarkHarness, node_counts) -> list[int]:
    """Restrict a node sweep to what the harness's cluster can host.

    Lets the node-scaling figures run on small clusters (``--system X
    --nodes 2`` or the reduced-scale simulate engine) instead of failing on
    the paper's 32-node sweep.
    """
    valid = [n for n in node_counts if n <= harness.cluster.num_nodes]
    return valid or [harness.cluster.num_nodes]


def _default_group(ppn: int) -> int:
    groups = _valid_groups(ppn)
    return groups[0] if groups else ppn


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------

def table1() -> list[dict[str, str]]:
    """Table 1: the three evaluation systems and their software stacks."""
    rows = []
    for cluster in (dane(), amber(), tuolomne()):
        rows.append(
            {
                "name": cluster.name,
                "cpu": cluster.node.name,
                "cores_per_node": str(cluster.cores_per_node),
                "network": cluster.network_name,
                "fabric": cluster.fabric.describe(),
                "mpi": cluster.system_mpi_name,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Figures 7-10: size sweeps on Dane, 32 nodes
# ---------------------------------------------------------------------------

def figure07(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             msg_sizes=PAPER_MESSAGE_SIZES, num_nodes: int | None = None) -> FigureResult:
    """Figure 7: hierarchical vs multi-leader (4/8/16 processes per leader), 32 nodes of Dane."""
    harness = _harness(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults)
    nodes = num_nodes or harness.cluster.num_nodes
    fig = FigureResult("fig07", "Hierarchical vs Multileader", "message size (bytes)",
                       configuration=harness.describe())
    fig.add_series(harness.size_sweep("system-mpi", msg_sizes=msg_sizes, num_nodes=nodes,
                                      label="System MPI"))
    fig.add_series(harness.size_sweep("hierarchical", msg_sizes=msg_sizes, num_nodes=nodes,
                                      label="Hierarchical"))
    for group in _valid_groups(harness.ppn):
        fig.add_series(
            harness.size_sweep("multileader", msg_sizes=msg_sizes, num_nodes=nodes,
                               label=f"{group} Processes Per Leader", procs_per_leader=group)
        )
    return fig


def figure08(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             msg_sizes=PAPER_MESSAGE_SIZES, num_nodes: int | None = None) -> FigureResult:
    """Figure 8: node-aware vs locality-aware aggregation (4/8/16 processes per group)."""
    harness = _harness(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults)
    nodes = num_nodes or harness.cluster.num_nodes
    fig = FigureResult("fig08", "Node-Aware vs Locality-Aware", "message size (bytes)",
                       configuration=harness.describe())
    fig.add_series(harness.size_sweep("system-mpi", msg_sizes=msg_sizes, num_nodes=nodes,
                                      label="System MPI"))
    for group in _valid_groups(harness.ppn):
        fig.add_series(
            harness.size_sweep("locality-aware", msg_sizes=msg_sizes, num_nodes=nodes,
                               label=f"{group} Processes Per Group", procs_per_group=group)
        )
    fig.add_series(harness.size_sweep("node-aware", msg_sizes=msg_sizes, num_nodes=nodes,
                                      label="Node-Aware"))
    return fig


def figure09(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             msg_sizes=PAPER_MESSAGE_SIZES, num_nodes: int | None = None) -> FigureResult:
    """Figure 9: multi-leader + node-aware for 4/8/16 processes per leader, with its two limits."""
    harness = _harness(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults)
    nodes = num_nodes or harness.cluster.num_nodes
    fig = FigureResult("fig09", "Multileader + Locality", "message size (bytes)",
                       configuration=harness.describe())
    fig.add_series(harness.size_sweep("system-mpi", msg_sizes=msg_sizes, num_nodes=nodes,
                                      label="System MPI"))
    fig.add_series(harness.size_sweep("hierarchical", msg_sizes=msg_sizes, num_nodes=nodes,
                                      label="Hierarchical"))
    for group in _valid_groups(harness.ppn):
        fig.add_series(
            harness.size_sweep("multileader-node-aware", msg_sizes=msg_sizes, num_nodes=nodes,
                               label=f"{group} Processes Per Leader", procs_per_leader=group)
        )
    fig.add_series(harness.size_sweep("node-aware", msg_sizes=msg_sizes, num_nodes=nodes,
                                      label="Node-Aware"))
    return fig


def _all_algorithm_series(harness: BenchmarkHarness, fig: FigureResult, *, msg_sizes, num_nodes=None,
                          node_counts=None, msg_bytes=None) -> None:
    """The six series of Figures 10-12: every algorithm at the default group size."""
    group = _default_group(harness.ppn)
    configs = [
        ("System MPI", "system-mpi", {}),
        ("Hierarchical", "hierarchical", {}),
        ("Node-Aware", "node-aware", {}),
        ("Multileader", "multileader", {"procs_per_leader": group}),
        ("Locality-Aware", "locality-aware", {"procs_per_group": group}),
        ("Multileader + Locality", "multileader-node-aware", {"procs_per_leader": group}),
    ]
    for label, name, options in configs:
        if node_counts is not None:
            fig.add_series(
                harness.node_sweep(name, msg_bytes=msg_bytes, node_counts=node_counts,
                                   label=label, **options)
            )
        else:
            fig.add_series(
                harness.size_sweep(name, msg_sizes=msg_sizes, num_nodes=num_nodes,
                                   label=label, **options)
            )


def figure10(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             msg_sizes=PAPER_MESSAGE_SIZES, num_nodes: int | None = None) -> FigureResult:
    """Figure 10: all algorithms across message sizes on 32 nodes of Dane."""
    harness = _harness(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults)
    nodes = num_nodes or harness.cluster.num_nodes
    fig = FigureResult("fig10", "Various Sizes, 32 Nodes", "message size (bytes)",
                       configuration=harness.describe())
    _all_algorithm_series(harness, fig, msg_sizes=msg_sizes, num_nodes=nodes)
    return fig


# ---------------------------------------------------------------------------
# Figures 11-12: node scaling
# ---------------------------------------------------------------------------

def figure11(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             node_counts=PAPER_NODE_COUNTS) -> FigureResult:
    """Figure 11: node scaling at 4 bytes per process pair."""
    harness = _harness(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults)
    fig = FigureResult("fig11", "Message Size: 4 bytes, Node Scaling", "nodes",
                       configuration=harness.describe())
    _all_algorithm_series(harness, fig, msg_sizes=None,
                          node_counts=_clamp_node_counts(harness, node_counts), msg_bytes=4)
    return fig


def figure12(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             node_counts=PAPER_NODE_COUNTS) -> FigureResult:
    """Figure 12: node scaling at 4096 bytes per process pair."""
    harness = _harness(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults)
    fig = FigureResult("fig12", "Message Size: 4096 bytes, Node Scaling", "nodes",
                       configuration=harness.describe())
    _all_algorithm_series(harness, fig, msg_sizes=None,
                          node_counts=_clamp_node_counts(harness, node_counts), msg_bytes=4096)
    return fig


# ---------------------------------------------------------------------------
# Figures 13-16: intra- vs inter-node breakdowns
# ---------------------------------------------------------------------------

def figure13(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             msg_sizes=PAPER_MESSAGE_SIZES, num_nodes: int | None = None) -> FigureResult:
    """Figure 13: hierarchical timing breakdown (gather, scatter, leader all-to-all)."""
    harness = _harness(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults)
    nodes = num_nodes or harness.cluster.num_nodes
    fig = FigureResult("fig13", "Hierarchical Timing Breakdown", "per-message size (bytes)",
                       configuration=harness.describe())
    fig.add_series(harness.phase_series("hierarchical", PHASE_GATHER, msg_sizes=msg_sizes,
                                        num_nodes=nodes, label="MPI Gather", inner="pairwise"))
    fig.add_series(harness.phase_series("hierarchical", PHASE_SCATTER, msg_sizes=msg_sizes,
                                        num_nodes=nodes, label="MPI Scatter", inner="pairwise"))
    fig.add_series(harness.phase_series("hierarchical", PHASE_INTER, msg_sizes=msg_sizes,
                                        num_nodes=nodes, label="Alltoall (Pairwise)", inner="pairwise"))
    fig.add_series(harness.phase_series("hierarchical", PHASE_INTER, msg_sizes=msg_sizes,
                                        num_nodes=nodes, label="Alltoall (Nonblocking)",
                                        inner="nonblocking"))
    return fig


def figure14(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             msg_sizes=PAPER_MESSAGE_SIZES, num_nodes: int | None = None) -> FigureResult:
    """Figure 14: node-aware timing breakdown (intra- vs inter-node all-to-all, both inner exchanges)."""
    harness = _harness(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults)
    nodes = num_nodes or harness.cluster.num_nodes
    fig = FigureResult("fig14", "Node-Aware Timing Breakdown", "per-message size (bytes)",
                       configuration=harness.describe())
    for inner in ("pairwise", "nonblocking"):
        fig.add_series(harness.phase_series("node-aware", PHASE_INTRA, msg_sizes=msg_sizes,
                                            num_nodes=nodes, label=f"Intra-Node ({inner.title()})",
                                            inner=inner))
        fig.add_series(harness.phase_series("node-aware", PHASE_INTER, msg_sizes=msg_sizes,
                                            num_nodes=nodes, label=f"Inter-Node ({inner.title()})",
                                            inner=inner))
    return fig


def figure15(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             node_counts=PAPER_NODE_COUNTS, msg_bytes: int = 4096) -> FigureResult:
    """Figure 15: node-aware breakdown versus node count at 4096 bytes (1024 integers)."""
    harness = _harness(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults)
    fig = FigureResult("fig15", "Node-Aware Breakdown, 4096 B, 2-32 Nodes", "nodes",
                       configuration=harness.describe())
    intra = DataSeries("Intra-Node Alltoall")
    inter = DataSeries("Inter-Node Alltoall")
    counts = _clamp_node_counts(harness, node_counts)
    specs = [harness.point_spec("node-aware", msg_bytes, nodes, inner="pairwise")
             for nodes in counts]
    for nodes, point in zip(counts, harness.run_specs(specs)):
        intra.add(nodes, point.phases.get(PHASE_INTRA, 0.0))
        inter.add(nodes, point.phases.get(PHASE_INTER, 0.0))
    fig.add_series(intra)
    fig.add_series(inter)
    return fig


def figure16(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             num_nodes: int | None = None, msg_bytes: int = 4096) -> FigureResult:
    """Figure 16: locality-aware breakdown versus group size (node-aware, 16, 8 and 4 PPG)."""
    harness = _harness(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults)
    nodes = num_nodes or harness.cluster.num_nodes
    fig = FigureResult("fig16", "Locality-Aware Breakdown vs Group Size", "group configuration",
                       configuration=harness.describe(),
                       notes="x = group size; the whole node (node-aware) is encoded as x = ppn")
    intra = DataSeries("Intra-Node Alltoall")
    inter = DataSeries("Inter-Node Alltoall")
    configs: list[tuple[str, dict, int]] = [("node-aware", {}, harness.ppn)]
    for group in sorted(_valid_groups(harness.ppn), reverse=True):
        configs.append(("locality-aware", {"procs_per_group": group}, group))
    specs = [harness.point_spec(name, msg_bytes, nodes, inner="pairwise", **options)
             for name, options, _ in configs]
    for (name, options, group), point in zip(configs, harness.run_specs(specs)):
        intra.add(group, point.phases.get(PHASE_INTRA, 0.0))
        inter.add(group, point.phases.get(PHASE_INTER, 0.0))
    fig.add_series(intra)
    fig.add_series(inter)
    return fig


# ---------------------------------------------------------------------------
# Figures 17-18: Amber and Tuolomne
# ---------------------------------------------------------------------------

def _best_algorithms_figure(figure_id: str, title: str, machine: Cluster, *, ppn: int | None,
                            engine: str, msg_sizes,
                            executor: SweepExecutor | None = None,
                            faults=None) -> FigureResult:
    harness = BenchmarkHarness(machine, ppn if ppn is not None else machine.cores_per_node,
                               engine=engine, executor=executor, faults=faults)
    group = _default_group(harness.ppn)
    fig = FigureResult(figure_id, title, "message size (bytes)", configuration=harness.describe())
    fig.add_series(harness.size_sweep("system-mpi", msg_sizes=msg_sizes, label="System MPI"))
    fig.add_series(harness.size_sweep("node-aware", msg_sizes=msg_sizes, label="Node-Aware"))
    fig.add_series(harness.size_sweep("locality-aware", msg_sizes=msg_sizes, label="Locality-Aware",
                                      procs_per_group=group))
    fig.add_series(harness.size_sweep("multileader-node-aware", msg_sizes=msg_sizes,
                                      label="Multileader + Locality", procs_per_leader=group))
    return fig


def figure17(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             msg_sizes=PAPER_MESSAGE_SIZES) -> FigureResult:
    """Figure 17: best algorithms vs system MPI on 32 nodes of Amber."""
    machine = cluster if cluster is not None else amber()
    return _best_algorithms_figure("fig17", "Amber, Various Sizes, 32 Nodes", machine,
                                   ppn=ppn, engine=engine, msg_sizes=msg_sizes, executor=executor,
                                   faults=faults)


def figure18(cluster: Cluster | None = None, *, ppn: int | None = None, engine: str = "model", executor: SweepExecutor | None = None, faults=None,
             msg_sizes=PAPER_MESSAGE_SIZES) -> FigureResult:
    """Figure 18: best algorithms vs system MPI on 32 nodes of Tuolomne."""
    machine = cluster if cluster is not None else tuolomne()
    return _best_algorithms_figure("fig18", "Tuolomne, Various Sizes, 32 Nodes", machine,
                                   ppn=ppn, engine=engine, msg_sizes=msg_sizes, executor=executor,
                                   faults=faults)


# ---------------------------------------------------------------------------
# Contention demo (not a paper figure): fabric ladder on a skewed workload
# ---------------------------------------------------------------------------

#: The fabric ladder of the contention figure: x position -> (label, spec).
CONTENTION_FABRICS = (
    ("full-bisection", "full-bisection"),
    ("fat-tree 2:1", "fat-tree:hosts=2,oversub=2"),
    ("fat-tree 4:1", "fat-tree:hosts=2,oversub=4"),
    ("fat-tree 8:1", "fat-tree:hosts=2,oversub=8"),
    ("dragonfly 8:1", "dragonfly:hosts=1,routers=2,taper=8"),
)


def figure_contention(cluster: Cluster | None = None, *, ppn: int | None = None,
                      engine: str = "model", executor: SweepExecutor | None = None, faults=None,
                      msg_bytes: int = 256, num_nodes: int | None = None) -> FigureResult:
    """Link contention demo: a skewed MoE shuffle across the fabric ladder.

    Runs the flat algorithms against node-aware aggregation on the same
    skewed workload while the inter-node fabric degrades from full
    bisection to an 8:1 oversubscribed fat-tree and a heavily tapered
    dragonfly.  On the contention-free default the flat non-blocking
    exchange wins; once shared links queue per message, aggregation's lower
    inter-node message count pays for its extra phases and the ordering
    flips — the paper's locality thesis, visible only with a fabric model.
    """
    from repro.netsim.fabric import parse_fabric
    from repro.workloads import skewed_moe

    base = cluster if cluster is not None else dane(8)
    processes = ppn if ppn is not None else min(base.cores_per_node, 16)
    nodes = num_nodes or base.num_nodes
    matrix = skewed_moe(nodes * processes, msg_bytes, seed=0)
    fig = FigureResult(
        "contention", "Skewed Workload Under Link Contention", "fabric (ladder index)",
        configuration=f"{base.name}, {nodes} nodes x {processes} ppn, "
                      f"skewed-moe {msg_bytes} B, engine={engine}",
        notes="x = index into the fabric ladder: "
              + "; ".join(f"{i}={label}" for i, (label, _) in enumerate(CONTENTION_FABRICS)),
    )
    for label, algorithm, options in (
        ("Nonblocking", "nonblocking", {}),
        ("Pairwise", "pairwise", {}),
        ("Node-Aware", "node-aware", {}),
    ):
        series = DataSeries(label)
        for index, (_fabric_label, spec) in enumerate(CONTENTION_FABRICS):
            machine = base.with_fabric(parse_fabric(spec))
            harness = BenchmarkHarness(machine, processes, engine=engine, executor=executor,
                                       faults=faults)
            point = harness.workload_point(algorithm, matrix, nodes, **options)
            series.add(index, point.seconds)
        fig.add_series(series)
    return fig


def figure_link_utilisation(cluster: Cluster | None = None, *, ppn: int | None = None,
                            engine: str = "simulate", executor: SweepExecutor | None = None, faults=None,
                            msg_bytes: int = 256, num_nodes: int | None = None,
                            bins: int = 12,
                            fabric_spec: str = "dragonfly:hosts=1,routers=2,taper=8") -> FigureResult:
    """Link utilisation over time on the tapered dragonfly (trace-derived).

    The contention figure shows *that* the winner flips on the tapered
    dragonfly; this one shows *why*.  Each algorithm runs the same skewed
    MoE shuffle with a recording :class:`~repro.obs.sink.RecordingSink`
    attached, the per-link occupancy slices are binned over the run's own
    makespan, and each series reports the mean number of concurrently-busy
    fabric links per bin.  The flat non-blocking exchange keeps the few
    global links saturated for its whole (long) runtime; node-aware
    aggregation compresses the fabric work into a short, wider burst.

    Always simulates regardless of ``engine`` (a timeline needs the
    event-level trace the analytic model does not produce); ``engine`` and
    ``executor`` are accepted for registry compatibility only.
    """
    from repro.core.runner import run_workload
    from repro.machine.process_map import ProcessMap
    from repro.netsim.fabric import parse_fabric
    from repro.obs.sink import RecordingSink
    from repro.workloads import skewed_moe

    base = cluster if cluster is not None else dane(4)
    processes = ppn if ppn is not None else min(base.cores_per_node, 8)
    nodes = num_nodes or base.num_nodes
    machine = base.with_fabric(parse_fabric(fabric_spec))
    matrix = skewed_moe(nodes * processes, msg_bytes, seed=0)
    fig = FigureResult(
        "linkutil", "Fabric Link Utilisation Over Time",
        "time bin (each run's makespan / %d)" % bins,
        configuration=f"{base.name}, {nodes} nodes x {processes} ppn, "
                      f"skewed-moe {msg_bytes} B, fabric={fabric_spec}",
        notes="y = mean concurrently-busy fabric links in the bin; each "
              "series is normalised to its own makespan, so compare shapes "
              "(saturation plateaus), not absolute times",
    )
    for label, algorithm in (("Nonblocking", "nonblocking"), ("Node-Aware", "node-aware")):
        sink = RecordingSink()
        pmap = ProcessMap(machine, ppn=processes, num_nodes=nodes)
        outcome = run_workload(algorithm, pmap, matrix, validate=False,
                               keep_job=False, sink=sink, faults=faults)
        makespan = outcome.elapsed
        width = makespan / bins if makespan > 0.0 else 1.0
        busy = [0.0] * bins
        for event in sink.of_kind("link"):
            begin, end = event[3], event[4]
            first = min(bins - 1, max(0, int(begin / width)))
            last = min(bins - 1, max(0, int(end / width)))
            for index in range(first, last + 1):
                lo = max(begin, index * width)
                hi = min(end, (index + 1) * width)
                if hi > lo:
                    busy[index] += hi - lo
        series = DataSeries(label)
        for index in range(bins):
            series.add(index, busy[index] / width)
        fig.add_series(series)
    return fig


# ---------------------------------------------------------------------------
# Robustness demo (not a paper figure): fault-induced winner flip
# ---------------------------------------------------------------------------

#: The fault injected by the robustness figure: one dragonfly global link
#: running at a quarter of its bandwidth and flapping on/off.
ROBUSTNESS_FAULTS = "degraded-link:df-g0-1,0.25;flapping-link:df-g0-1,4e-6,0.5"


def figure_robustness(cluster: Cluster | None = None, *, ppn: int | None = None,
                      engine: str = "simulate", executor: SweepExecutor | None = None,
                      faults=None, msg_bytes: int = 1024, num_nodes: int | None = None,
                      fabric_spec: str = "dragonfly:hosts=1,routers=2,taper=2") -> FigureResult:
    """Fault-induced winner flip: a skewed MoE shuffle on a degraded dragonfly.

    Runs the flat exchanges against node-aware aggregation on the same
    skewed workload twice — on the healthy dragonfly and with one global
    link degraded (quarter bandwidth, flapping on/off).  Healthy, the flat
    non-blocking exchange wins; on the degraded machine every message
    crossing the sick link risks a stall until its next on-window, so
    node-aware aggregation's far lower inter-node message count flips the
    ranking.  An algorithm selection tuned on the healthy machine is wrong
    on the degraded one — the operational argument for re-running the
    ``select`` sweep under ``--faults``.

    Always simulates regardless of ``engine`` (fault injection needs the
    discrete-event machine); ``engine`` is accepted for registry
    compatibility only.  A non-empty ``faults`` spec replaces the default
    :data:`ROBUSTNESS_FAULTS` injection.
    """
    from repro.faults import parse_faults
    from repro.netsim.fabric import parse_fabric
    from repro.workloads import skewed_moe

    base = cluster if cluster is not None else dane(4)
    processes = ppn if ppn is not None else min(base.cores_per_node, 4)
    nodes = num_nodes or base.num_nodes
    machine = base.with_fabric(parse_fabric(fabric_spec))
    matrix = skewed_moe(nodes * processes, msg_bytes, seed=0)
    injected = faults if faults else parse_faults(ROBUSTNESS_FAULTS)
    fig = FigureResult(
        "robustness", "Fault-Induced Winner Flip", "machine state (0=healthy, 1=faulted)",
        configuration=f"{base.name}, {nodes} nodes x {processes} ppn, "
                      f"skewed-moe {msg_bytes} B, fabric={fabric_spec}",
        notes="x = 0: healthy machine; x = 1: " + injected.describe(),
    )
    for label, algorithm in (("Nonblocking", "nonblocking"), ("Pairwise", "pairwise"),
                             ("Node-Aware", "node-aware")):
        series = DataSeries(label)
        for index, spec in enumerate((None, injected)):
            harness = BenchmarkHarness(machine, processes, engine="simulate",
                                       executor=executor, faults=spec)
            point = harness.workload_point(algorithm, matrix, nodes)
            series.add(index, point.seconds)
        fig.add_series(series)
    return fig


# ---------------------------------------------------------------------------
# Adaptive demo (not a paper figure): per-phase selection under interference
# ---------------------------------------------------------------------------

#: The shared fabric of the adaptive figure: a heavily tapered dragonfly, so
#: the background job's traffic contends with the foreground job's phases.
ADAPTIVE_FABRIC = "dragonfly:hosts=1,routers=2,taper=8"


def adaptive_demo_workload(nprocs: int, msg_bytes: int = 2048):
    """The foreground job of the adaptive figure: an MoE-style iteration.

    Two phases per iteration whose best algorithms differ on the tapered
    dragonfly: a heavy skewed ``dispatch`` (token shuffle towards hot
    experts) and a tiny uniform ``combine`` (per-token result return).
    Used when :func:`figure_adaptive` is not given an ingested workload.
    """
    from repro.workloads import Phase, PhasedWorkload, skewed_moe, uniform

    return PhasedWorkload((
        Phase("dispatch", skewed_moe(nprocs, msg_bytes, seed=0), repeats=2),
        Phase("combine", uniform(nprocs, 4), repeats=4),
    ))


def figure_adaptive(cluster: Cluster | None = None, *, ppn: int | None = None,
                    engine: str = "simulate", executor: SweepExecutor | None = None,
                    faults=None, msg_bytes: int = 2048, num_nodes: int | None = None,
                    fabric_spec: str = ADAPTIVE_FABRIC,
                    workload=None) -> FigureResult:
    """Static vs adaptive per-phase selection on a shared dragonfly.

    Two jobs split a tapered dragonfly: a phased foreground job (an
    MoE-style dispatch/combine iteration, or any ingested
    :class:`~repro.workloads.PhasedWorkload` passed as ``workload``) and a
    fixed background job whose skewed shuffle keeps the global links busy.
    The foreground job runs twice — once with the *static* pick (the single
    algorithm :func:`~repro.core.selection.select_phased` would pin for the
    whole iteration) and once with the *adaptive* per-phase assignment —
    against the identical background.  Because the per-phase winners
    disagree (the skewed heavy phase wants the flat non-blocking exchange,
    the tiny uniform phase wants node-aware aggregation), the static pick
    pays on whichever phase it is wrong about and adaptive wins the
    realized total under interference.

    Always simulates regardless of ``engine`` (interference needs the
    discrete-event fabric model); ``engine`` is accepted for registry
    compatibility only.
    """
    from repro.core.runner import PhasedJob
    from repro.core.selection import select_phased
    from repro.errors import ConfigurationError
    from repro.netsim.fabric import parse_fabric
    from repro.workloads import load_phased, skewed_moe

    base = cluster if cluster is not None else dane(8)
    processes = ppn if ppn is not None else min(base.cores_per_node, 4)
    nodes = num_nodes or base.num_nodes
    machine = base.with_fabric(parse_fabric(fabric_spec))
    if workload is None:
        fg_nodes = max(1, nodes // 2)
        workload = adaptive_demo_workload(fg_nodes * processes, msg_bytes)
    else:
        workload = load_phased(workload)
        if workload.nprocs % processes != 0:
            raise ConfigurationError(
                f"phased workload has {workload.nprocs} ranks, "
                f"not a multiple of ppn={processes}"
            )
        fg_nodes = workload.nprocs // processes
    bg_nodes = nodes - fg_nodes
    if bg_nodes < 1:
        raise ConfigurationError(
            f"the foreground job needs {fg_nodes} of {nodes} nodes; "
            "no node left for the background job"
        )

    selection = select_phased(machine, processes, workload, engine="simulate",
                              executor=executor, faults=faults)
    from repro.workloads import Phase, PhasedWorkload

    background = PhasedJob.make(
        PhasedWorkload((
            Phase("background", skewed_moe(bg_nodes * processes, msg_bytes, seed=1),
                  repeats=6),
        )),
        "nonblocking", bg_nodes,
    )
    harness = BenchmarkHarness(machine, processes, engine="simulate",
                               executor=executor, faults=faults)
    specs = [
        harness.phased_spec([PhasedJob.make(workload, assignment, fg_nodes), background])
        for assignment in (selection.static, selection.assignment)
    ]
    static_point, adaptive_point = harness.run_specs(specs)

    fig = FigureResult(
        "adaptive", "Static vs Adaptive Per-Phase Selection", "phase index",
        configuration=f"{base.name}, {nodes} nodes x {processes} ppn "
                      f"({fg_nodes} foreground + {bg_nodes} background), "
                      f"fabric={fabric_spec}",
        notes=(
            "x = foreground phase index; x = "
            f"{workload.num_phases} is the foreground job's total. "
            f"static pick = {selection.static.describe()}; adaptive = "
            + ", ".join(f"{c.phase}: {c.candidate.describe()}" for c in selection.choices)
        ),
    )
    for label, point in (("Static", static_point), ("Adaptive", adaptive_point)):
        series = DataSeries(label)
        for index, name in enumerate(workload.names):
            series.add(index, point.phases[f"job0/phase{index}:{name}"])
        series.add(workload.num_phases, point.phases["job0:total"])
        fig.add_series(series)
    return fig


# ---------------------------------------------------------------------------
# Headline claim
# ---------------------------------------------------------------------------

def headline_speedup(cluster: Cluster | None = None, *, ppn: int | None = None,
                     engine: str = "model", executor: SweepExecutor | None = None, faults=None,
                     msg_sizes=PAPER_MESSAGE_SIZES,
                     num_nodes: int | None = None) -> dict:
    """Section 1's headline: best speedup of the novel algorithms over system MPI at 32 nodes."""
    fig = figure10(cluster, ppn=ppn, engine=engine, executor=executor, faults=faults,
                   msg_sizes=msg_sizes, num_nodes=num_nodes)
    speedups = {}
    for size in fig.xs():
        baseline = fig.get("System MPI").at(size).seconds
        novel = min(
            fig.get(label).at(size).seconds
            for label in ("Node-Aware", "Locality-Aware", "Multileader + Locality")
        )
        speedups[size] = speedup(baseline, novel)
    best_size = max(speedups, key=speedups.get)
    return {
        "per_size": speedups,
        "best_size": best_size,
        "best_speedup": speedups[best_size],
        "configuration": fig.configuration,
    }


#: Registry of the figures ``repro-bench figures --id`` can regenerate.
FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig07": figure07,
    "fig08": figure08,
    "fig09": figure09,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "fig13": figure13,
    "fig14": figure14,
    "fig15": figure15,
    "fig16": figure16,
    "fig17": figure17,
    "fig18": figure18,
    "contention": figure_contention,
    "linkutil": figure_link_utilisation,
    "robustness": figure_robustness,
    "adaptive": figure_adaptive,
}
