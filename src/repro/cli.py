"""Command-line interface for the reproduction.

Installed as the ``repro-bench`` console script (and runnable as
``python -m repro.cli``).  Sub-commands:

``systems``
    Print Table 1 (the three evaluation systems).
``figures``
    Regenerate one or all of the paper's figures — plus the ``contention``
    fabric-ladder demo — and print the series (optionally as CSV).
``run``
    Simulate a single all-to-all exchange on a chosen system at reduced
    scale and print timing, phase breakdown and traffic.
``select``
    Print the model-driven algorithm-selection table for a system
    (the paper's Section 5 future-work item).
``workload``
    Simulate a non-uniform traffic workload (alltoallv semantics) from a
    generated pattern or a recorded JSON trace, validate the exchange, and
    compare against the analytic workload model.
``ingest``
    Parse a recorded trace (phase-log JSONL or MoE token-routing),
    normalise it into a phased workload, and print / save / index it in a
    content-addressed trace store.  The result feeds the ``--phases``
    flag of ``workload``, ``select`` and ``figures --id adaptive``.
``verify``
    Differential conformance fuzzing: run every registered algorithm on
    seeded random scenarios, assert byte-identical results against the
    reference, and print a minimal seeded reproducer on any mismatch.
``trace``
    Simulate one exchange (uniform or a workload pattern) with a recording
    event sink attached and export the simulated timeline as Chrome
    trace-event JSON — one track per rank and per fabric link, loadable in
    Perfetto / ``chrome://tracing`` — plus an optional metrics sidecar.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__
from repro.bench.figures import FIGURES, headline_speedup, table1
from repro.bench.reporting import (
    format_figure,
    format_speedup_summary,
    format_table1,
    format_verification_summary,
    to_csv,
)
from repro.bench.harness import BenchmarkHarness
from repro.core.alltoall.valgorithms import list_v_algorithms
from repro.core.runner import _resolve_fold, run_alltoall, run_workload
from repro.core.selection import AlgorithmSelector, build_selection_table
from repro.errors import ConfigurationError
from repro.faults import parse_faults
from repro.machine.folding import FOLD_MODES
from repro.machine.process_map import ProcessMap
from repro.machine.systems import SYSTEM_PRESETS, get_system, list_systems
from repro.model.predict import WORKLOAD_MODELED_ALGORITHMS, predict_workload_time
from repro.netsim.fabric import FullBisectionFabric, list_fabrics, parse_fabric
from repro.runtime import ResultStore, RetryPolicy, SweepExecutor
from repro.runtime.executor import default_jobs
from repro.workloads import list_patterns, load_trace, make_pattern

__all__ = ["build_parser", "main"]


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be strictly positive (nodes, ppn)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """Argparse type for durations that must be strictly positive (timeouts)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _job_count(text: str) -> int:
    """Argparse type for ``--jobs``: a non-negative integer (0 = all CPU cores)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _node_count(text: str):
    """Argparse type for ``--nodes``: a positive integer or ``paper``.

    ``paper`` resolves to the system's real Table-1 deployment size
    (see :data:`repro.machine.systems.TABLE1_NODE_COUNTS`).
    """
    if text.strip().lower() == "paper":
        return "paper"
    return _positive_int(text)


def _resolve_nodes(args: argparse.Namespace) -> int:
    """Turn ``--nodes paper`` into the system's Table-1 node count."""
    if args.nodes == "paper":
        from repro.machine.systems import TABLE1_NODE_COUNTS

        counts = TABLE1_NODE_COUNTS
        key = args.system.lower()
        if key not in counts:
            raise SystemExit(
                f"--nodes paper: no Table-1 deployment size for system {args.system!r} "
                f"(known: {', '.join(sorted(counts))})"
            )
        return counts[key]
    return args.nodes


def _add_runtime_arguments(parser: argparse.ArgumentParser) -> None:
    """The parallel-runtime flags shared by figures / workload / select."""
    runtime = parser.add_argument_group("parallel runtime")
    runtime.add_argument("--jobs", type=_job_count, default=1, metavar="N",
                         help="worker processes for independent benchmark points "
                              "(1 = serial in-process, 0 = all CPU cores)")
    runtime.add_argument("--cache-dir", default=None, metavar="DIR",
                         help="on-disk result store; already-simulated points are "
                              "served from it and new results are appended")
    runtime.add_argument("--no-cache", action="store_true",
                         help="ignore --cache-dir entirely (recompute everything, "
                              "write nothing)")
    runtime.add_argument("--progress", action="store_true",
                         help="report sweep progress on stderr as benchmark "
                              "points resolve (per point when serial, per "
                              "batch when parallel)")
    runtime.add_argument("--point-timeout", type=_positive_float, default=None,
                         metavar="SECONDS",
                         help="wall-clock budget per benchmark point when running "
                              "with a worker pool; a point past its deadline is "
                              "retried and eventually quarantined")
    runtime.add_argument("--point-retries", type=_positive_int, default=None,
                         metavar="N",
                         help="attempts per benchmark point before it is "
                              "quarantined (default 3; failures are reported "
                              "after the surviving points complete)")


def _add_fabric_argument(parser: argparse.ArgumentParser) -> None:
    """The inter-node fabric override shared by the simulating subcommands."""
    parser.add_argument(
        "--fabric", default=None, metavar="SPEC",
        help="inter-node fabric topology: 'full-bisection' (default), "
             "'fat-tree[:hosts=H,oversub=O]' or "
             "'dragonfly[:hosts=H,routers=R,taper=T]'",
    )


def _fabric_from_args(args: argparse.Namespace):
    """Parse the --fabric flag (None when absent or explicitly default).

    An explicit ``--fabric full-bisection`` normalises to ``None`` so it
    behaves exactly like omitting the flag everywhere (no --system
    requirement for figures, default scenario sampling for verify).
    """
    if getattr(args, "fabric", None) is None:
        return None
    spec = parse_fabric(args.fabric)
    if isinstance(spec, FullBisectionFabric):
        return None
    return spec


def _add_faults_argument(parser: argparse.ArgumentParser) -> None:
    """The deterministic fault-injection flag shared by the simulating subcommands."""
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="deterministic fault injection: ';'-separated clauses "
             "'degraded-link:PATTERN,FACTOR', "
             "'flapping-link:PATTERN,PERIOD,DUTY[,PHASE]', "
             "'straggler:NODE,FACTOR', 'os-noise:AMPLITUDE' and 'seed:N' "
             "(e.g. 'degraded-link:df-g*,0.25;os-noise:1e-6;seed:7'); "
             "requires the simulate engine and fold=off",
    )


def _faults_from_args(args: argparse.Namespace):
    """Parse the --faults flag (None when absent or empty).

    An empty spec normalises to ``None`` so it behaves exactly like
    omitting the flag — in particular the result-store cache keys are
    the healthy keys.
    """
    text = getattr(args, "faults", None)
    if text is None:
        return None
    spec = parse_faults(text)
    return spec if spec else None


def _add_phases_argument(parser: argparse.ArgumentParser, help_suffix: str) -> None:
    """The phased-workload input flag shared by workload / select / figures."""
    parser.add_argument(
        "--phases", default=None, metavar="SOURCE",
        help="phased workload: a file written by 'ingest --out', inline "
             "JSON, or 'store:DIR:NAME_OR_KEY' to load from a trace store; "
             + help_suffix,
    )


def _phases_from_args(args: argparse.Namespace):
    """Resolve the --phases flag into a PhasedWorkload (None when absent)."""
    text = getattr(args, "phases", None)
    if text is None:
        return None
    from repro.ingest import TraceStore
    from repro.workloads import load_phased

    if text.startswith("store:"):
        rest = text[len("store:"):]
        root, sep, key = rest.rpartition(":")
        if not sep or not root or not key:
            raise SystemExit(
                f"--phases {text!r}: store syntax is store:DIR:NAME_OR_KEY"
            )
        return TraceStore(root).load(key)
    return load_phased(text)


def _print_progress(done: int, total: int) -> None:
    print(f"[runtime] {done}/{total} point(s) resolved", file=sys.stderr, flush=True)


def _executor_from_args(args: argparse.Namespace) -> SweepExecutor | None:
    """Build the executor the runtime flags ask for (None = legacy inline path)."""
    jobs = args.jobs if args.jobs != 0 else default_jobs()
    store = None
    if args.cache_dir is not None and not args.no_cache:
        store = ResultStore(args.cache_dir)
    progress = getattr(args, "progress", False)
    retry_kwargs = {}
    if getattr(args, "point_retries", None) is not None:
        retry_kwargs["max_attempts"] = args.point_retries
    if getattr(args, "point_timeout", None) is not None:
        retry_kwargs["timeout"] = args.point_timeout
    retry = RetryPolicy(**retry_kwargs) if retry_kwargs else None
    if jobs == 1 and store is None and not progress and retry is None:
        return None
    executor = SweepExecutor(jobs, store=store, retry=retry)
    if progress:
        executor.progress = _print_progress
    return executor


def _finish_executor(executor: SweepExecutor | None) -> None:
    if executor is not None:
        print(executor.stats_line(), file=sys.stderr)
        executor.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Reproduction toolkit for 'Scaling All-to-all Operations Across "
        "Emerging Many-Core Supercomputers'",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    systems = sub.add_parser(
        "systems",
        help="print Table 1 and list every preset with its node architecture and fabric",
    )
    _add_fabric_argument(systems)

    figures = sub.add_parser(
        "figures",
        help="regenerate the paper's figures (fig07-fig18) plus the "
             "'contention' fabric demo; --id all runs every producer",
    )
    figures.add_argument("--id", default="all", choices=["all", *sorted(FIGURES)],
                         help="which figure to regenerate (default: all)")
    figures.add_argument("--engine", default="model", choices=["model", "simulate"],
                         help="timing engine (simulate runs at reduced scale)")
    figures.add_argument("--system", default=None, choices=list_systems(),
                         help="system preset (default: each figure's own system; "
                              "dane for --engine simulate)")
    figures.add_argument("--nodes", type=_positive_int, default=None,
                         help="cluster size in nodes (default: the preset's; 8 for simulate)")
    figures.add_argument("--ppn", type=_positive_int, default=None,
                         help="ranks per node (default: all cores; 8 for simulate)")
    figures.add_argument("--csv", action="store_true", help="emit CSV instead of aligned tables")
    figures.add_argument("--headline", action="store_true",
                         help="also print the headline speedup summary")
    _add_phases_argument(figures, "only valid with --id adaptive (the "
                                  "foreground job of the interference demo)")
    _add_fabric_argument(figures)
    _add_faults_argument(figures)
    _add_runtime_arguments(figures)

    run = sub.add_parser("run", help="simulate one all-to-all exchange")
    run.add_argument("--system", default="dane", choices=list_systems())
    run.add_argument("--algorithm", default="multileader-node-aware")
    run.add_argument("--nodes", type=_node_count, default=4,
                     help="node count, or 'paper' for the system's Table-1 deployment size")
    run.add_argument("--ppn", type=_positive_int, default=8)
    run.add_argument("--msg-bytes", type=_positive_int, default=256)
    run.add_argument("--group-size", type=int, default=None,
                     help="processes per leader/group for the hierarchical algorithms")
    run.add_argument("--inner", default=None, choices=["pairwise", "nonblocking", "bruck", "batched"])
    run.add_argument("--fold", default="off", choices=FOLD_MODES,
                     help="symmetry folding: simulate one node's ranks standing in "
                          "for the whole machine (exact for the uniform exchange; "
                          "required for paper-scale node counts)")
    _add_fabric_argument(run)
    _add_faults_argument(run)

    select = sub.add_parser("select", help="print the algorithm selection table")
    select.add_argument("--system", default="dane", choices=list_systems())
    select.add_argument("--nodes", type=_positive_int, default=32)
    select.add_argument("--ppn", type=_positive_int, default=None,
                        help="ranks per node (default: all cores of the system)")
    select.add_argument("--sizes", type=_positive_int, nargs="+",
                        default=[4, 16, 64, 256, 1024, 4096])
    select.add_argument("--engine", default="model", choices=["model", "simulate"],
                        help="model: analytic cost model (instant); simulate: build a "
                             "measurement-driven table from simulator sweeps "
                             "(use small --nodes/--ppn)")
    _add_phases_argument(select, "switches to adaptive per-phase selection "
                                 "over the workload's phases (simulate "
                                 "engine; node count derives from the "
                                 "workload, --nodes only bounds the cluster)")
    _add_fabric_argument(select)
    _add_faults_argument(select)
    _add_runtime_arguments(select)

    workload = sub.add_parser(
        "workload", help="simulate a non-uniform traffic workload (alltoallv)"
    )
    workload.add_argument("--pattern", default="skewed-moe",
                          choices=[*list_patterns(), "trace"],
                          help="traffic pattern to generate (or 'trace' to replay --trace)")
    workload.add_argument("--trace", default=None,
                          help="JSON trace file to replay (requires --pattern trace)")
    workload.add_argument("--algorithm", default="node-aware", choices=list_v_algorithms())
    workload.add_argument("--system", default="dane", choices=list_systems())
    workload.add_argument("--nodes", type=_positive_int, default=4)
    workload.add_argument("--ppn", type=_positive_int, default=8)
    workload.add_argument("--msg-bytes", type=_positive_int, default=64,
                          help="base bytes per (source, destination) pair")
    workload.add_argument("--seed", type=int, default=0, help="RNG seed of random patterns")
    workload.add_argument("--concentration", type=float, default=4.0,
                          help="skewed-moe: traffic multiplier of hot experts")
    workload.add_argument("--hot-fraction", type=float, default=0.125,
                          help="skewed-moe: fraction of destinations that are hot")
    workload.add_argument("--exponent", type=float, default=1.2,
                          help="zipf: power-law exponent of the per-destination decay")
    workload.add_argument("--out-degree", type=int, default=4,
                          help="sparse: destinations per source")
    workload.add_argument("--pattern-group-size", type=int, default=4,
                          help="block-diagonal: ranks per dense group")
    workload.add_argument("--hotspots", type=int, default=1,
                          help="incast: number of victim destination ranks")
    workload.add_argument("--background-bytes", type=int, default=0,
                          help="incast: bytes of every non-victim pair")
    workload.add_argument("--shift", type=int, default=1,
                          help="neighbor-shift: cyclic rank distance of the exchange")
    workload.add_argument("--degree", type=int, default=1,
                          help="neighbor-shift: number of shifted neighbours per rank")
    workload.add_argument("--group-size", type=int, default=None,
                          help="node-aware: aggregation group size (default: whole node)")
    workload.add_argument("--inner", default=None, choices=["pairwise", "nonblocking"],
                          help="node-aware: inner exchange of both phases")
    workload.add_argument("--fold", default="off", choices=FOLD_MODES,
                          help="symmetry folding: 'auto' folds when the traffic "
                               "matrix is node-rotation symmetric, 'on' demands it, "
                               "'off' (default) simulates every rank")
    workload.add_argument("--no-model", action="store_true",
                          help="skip the analytic-model comparison")
    _add_phases_argument(workload, "runs the phases back-to-back on one "
                                   "engine timeline with --algorithm "
                                   "(overrides --pattern/--trace)")
    _add_fabric_argument(workload)
    _add_faults_argument(workload)
    _add_runtime_arguments(workload)

    verify = sub.add_parser(
        "verify", help="differential conformance check over seeded random scenarios"
    )
    verify.add_argument("--seed", type=int, default=2025,
                        help="base seed; scenario i uses seed SEED+i, so a failure "
                             "at seed S is replayed with --seed S --count 1")
    verify.add_argument("--count", type=_positive_int, default=25,
                        help="number of consecutive-seed scenarios to verify")
    verify.add_argument("--jobs", type=_job_count, default=1, metavar="N",
                        help="worker processes for independent scenarios "
                             "(1 = serial in-process, 0 = all CPU cores)")
    verify.add_argument("--max-ranks", type=_positive_int, default=24,
                        help="upper bound on nodes x ppn per sampled scenario")
    verify.add_argument("--golden", default=None, metavar="PATH",
                        help="also check the golden corpus file and fail on drift")
    verify.add_argument("--fold-gate", action="store_true",
                        help="also run the symmetry-folding differential gate: every "
                             "algorithm folded vs full width with bit-identical "
                             "timings demanded (plus a folded-vs-model cross-check)")
    verify.add_argument("--fabric", default=None, metavar="SPEC",
                        help="verify over fabric-enabled scenarios (adds the "
                             "incast/neighbor-shift shapes); same syntax as the "
                             "other subcommands' --fabric")
    verify.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject faults into every differential run (same "
                             "syntax as the other subcommands' --faults); faults "
                             "perturb timings only, so verdicts and golden "
                             "digests must stay unchanged")
    verify.add_argument("--phased", action="store_true",
                        help="sample multi-phase scenarios too (phased workloads "
                             "run end-to-end on one engine timeline); off by "
                             "default so existing seeds keep their digests")

    trace = sub.add_parser(
        "trace",
        help="simulate one exchange with tracing on and export a Perfetto-"
             "compatible Chrome trace-event JSON timeline",
    )
    trace.add_argument("--system", default="dane", choices=list_systems())
    trace.add_argument("--algorithm", default="multileader-node-aware",
                       help="alltoall algorithm (or a v-algorithm when --pattern is given)")
    trace.add_argument("--nodes", type=_positive_int, default=4)
    trace.add_argument("--ppn", type=_positive_int, default=8)
    trace.add_argument("--msg-bytes", type=int, default=256)
    trace.add_argument("--group-size", type=int, default=None,
                       help="processes per leader/group for the hierarchical algorithms")
    trace.add_argument("--inner", default=None,
                       help="inner exchange of the hierarchical/node-aware algorithms")
    trace.add_argument("--pattern", default=None, choices=list_patterns(),
                       help="trace a non-uniform workload instead of a uniform "
                            "alltoall (switches --algorithm to the v-algorithm "
                            "registry)")
    trace.add_argument("--seed", type=int, default=0,
                       help="RNG seed of the random workload patterns")
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="Chrome trace-event JSON output (default: trace.json)")
    trace.add_argument("--metrics-out", default=None, metavar="PATH",
                       help="also write the run's metrics registry snapshot "
                            "as a JSON sidecar")
    _add_phases_argument(trace, "trace the phases back-to-back on one "
                                "timeline (phase boundaries become spans on "
                                "the rank tracks; needs a v-algorithm)")
    _add_fabric_argument(trace)
    _add_faults_argument(trace)

    ingest = sub.add_parser(
        "ingest",
        help="parse a recorded trace (phase-log JSONL or MoE token-routing) "
             "into a phased workload and print / save / index it",
    )
    ingest.add_argument("trace", nargs="?", default=None,
                        help="trace file to ingest (omit with --list)")
    ingest.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed trace store directory to index "
                             "the workload in (created if missing)")
    ingest.add_argument("--name", default=None,
                        help="human-readable name to bind in the store index")
    ingest.add_argument("--out", default=None, metavar="PATH",
                        help="write the normalised phased workload as canonical "
                             "JSON (the format --phases accepts)")
    ingest.add_argument("--list", action="store_true",
                        help="list the store's indexed workloads (requires --store)")
    return parser


def _cmd_systems(args: argparse.Namespace) -> int:
    print(format_table1(table1()))
    fabric = _fabric_from_args(args)
    print()
    print("Presets" + (f" (with --fabric {args.fabric})" if fabric is not None else "") + ":")
    for name in sorted(SYSTEM_PRESETS):
        cluster = get_system(name, fabric=fabric)
        print(f"  {cluster.describe()}")
    print()
    print(f"Fabric kinds for --fabric: {', '.join(list_fabrics())} "
          "(e.g. fat-tree:hosts=4,oversub=2 or dragonfly:hosts=2,routers=2,taper=4)")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    selected = sorted(FIGURES) if args.id == "all" else [args.id]
    # The simulate engine needs a reduced scale to stay tractable, so it gets
    # concrete defaults; the model engine keeps each figure's own full-scale
    # system unless the user overrides it.
    if args.engine == "simulate":
        system = args.system or "dane"
        nodes = args.nodes if args.nodes is not None else 8
        ppn = args.ppn if args.ppn is not None else 8
    else:
        system = args.system
        nodes = args.nodes
        ppn = args.ppn
        if nodes is not None and system is None:
            raise SystemExit(
                "--nodes requires --system with --engine model (the cluster preset to resize)"
            )
    fabric = _fabric_from_args(args)
    if fabric is not None and system is None:
        raise SystemExit(
            "--fabric requires --system with --engine model (the cluster preset to modify)"
        )
    faults = _faults_from_args(args)
    if faults is not None and args.engine != "simulate":
        raise SystemExit(
            "--faults requires --engine simulate (the analytic model has no "
            "machine to degrade)"
        )
    phased = _phases_from_args(args)
    if phased is not None and selected != ["adaptive"]:
        raise SystemExit("--phases is only valid with --id adaptive")
    cluster = get_system(system, nodes, fabric=fabric) if system is not None else None
    executor = _executor_from_args(args)
    try:
        for figure_id in selected:
            producer = FIGURES[figure_id]
            extra = {"workload": phased} if phased is not None else {}
            figure = producer(cluster, ppn=ppn, engine=args.engine, executor=executor,
                              faults=faults, **extra)
            print(to_csv(figure) if args.csv else format_figure(figure))
            print()
        if args.headline:
            print(format_speedup_summary(
                headline_speedup(cluster, ppn=ppn, engine=args.engine, executor=executor,
                                 faults=faults)))
    finally:
        _finish_executor(executor)
    return 0


#: Constructor keyword that ``--group-size`` sets, per algorithm, in the
#: uniform registry and in the v-algorithm registry.
_GROUP_SIZE_OPTION = {
    "hierarchical": "procs_per_leader",
    "multileader": "procs_per_leader",
    "multileader-node-aware": "procs_per_leader",
    "locality-aware": "procs_per_group",
}
_V_GROUP_SIZE_OPTION = {"node-aware": "procs_per_group"}


def _algorithm_options(args: argparse.Namespace, *, vector: bool = False) -> dict:
    """Algorithm constructor options from ``--inner`` and ``--group-size``.

    ``vector`` selects the v-algorithm registry (workloads, patterns and
    phases) instead of the uniform one.
    """
    options: dict = {}
    if args.inner is not None:
        options["inner"] = args.inner
    if args.group_size is not None:
        key = (_V_GROUP_SIZE_OPTION if vector else _GROUP_SIZE_OPTION).get(args.algorithm)
        if key is None:
            raise SystemExit(f"--group-size is not applicable to algorithm {args.algorithm!r}")
        options[key] = args.group_size
    return options


def _cmd_run(args: argparse.Namespace) -> int:
    nodes = _resolve_nodes(args)
    fold = args.fold
    if args.nodes == "paper" and fold == "off":
        # A full-width run at Table-1 scale is out of reach by construction;
        # folding is the whole point of asking for the paper machine, so a
        # fabric the fold cannot certify is refused rather than run in full.
        fold = "on"
    cluster = get_system(args.system, nodes, fabric=_fabric_from_args(args))
    pmap = ProcessMap(cluster, ppn=args.ppn, num_nodes=nodes)
    outcome = run_alltoall(args.algorithm, pmap, args.msg_bytes, fold=fold,
                           faults=_faults_from_args(args), **_algorithm_options(args))
    print(outcome.summary())
    print(f"  inter-node messages: {outcome.inter_node_messages}")
    print(f"  inter-node bytes:    {outcome.inter_node_bytes}")
    for phase, seconds in sorted(outcome.phase_times.items()):
        print(f"  phase {phase:<22s} {seconds:.3e} s")
    return 0 if outcome.correct else 1


def _cmd_select(args: argparse.Namespace) -> int:
    cluster = get_system(args.system, args.nodes, fabric=_fabric_from_args(args))
    ppn = args.ppn if args.ppn is not None else cluster.cores_per_node
    faults = _faults_from_args(args)
    if faults is not None and args.engine != "simulate":
        raise SystemExit(
            "--faults requires --engine simulate (the analytic model has no "
            "machine to degrade)"
        )
    phased = _phases_from_args(args)
    if phased is not None:
        if args.engine != "simulate":
            raise SystemExit(
                "--phases requires --engine simulate (per-phase costs come "
                "from the discrete-event engine)"
            )
        from repro.core.selection import select_phased

        executor = _executor_from_args(args)
        try:
            selection = select_phased(cluster, ppn, phased, executor=executor, faults=faults)
        finally:
            _finish_executor(executor)
        nodes = phased.nprocs // ppn
        print(f"Adaptive per-phase selection on {cluster.name} "
              f"({nodes} nodes x {ppn} ppn, {phased.num_phases} phase(s)):")
        print(selection.describe())
        if selection.skipped:
            print("skipped candidates: "
                  + ", ".join(c.describe() for c in selection.skipped))
        return 0
    executor = _executor_from_args(args)
    try:
        if args.engine == "simulate":
            table = build_selection_table(cluster, ppn, node_counts=[args.nodes],
                                          msg_sizes=args.sizes, engine="simulate",
                                          executor=executor, faults=faults)
            mapping = {size: table.best(args.nodes, size) for size in args.sizes}
            flavour = " [measured, simulate engine]"
        else:
            selector = AlgorithmSelector(cluster, ppn=ppn, executor=executor)
            mapping = selector.selection_map(args.nodes, args.sizes)
            flavour = ""
        print(f"Best algorithm per message size on {cluster.name} "
              f"({args.nodes} nodes x {ppn} ppn){flavour}:")
        for size, description in mapping.items():
            print(f"  {size:>7d} B -> {description}")
    finally:
        _finish_executor(executor)
    return 0


def _print_workload_model_comparison(args: argparse.Namespace, pmap: ProcessMap, matrix,
                                     options: dict, simulated_seconds: float) -> None:
    if args.algorithm in WORKLOAD_MODELED_ALGORITHMS:
        predicted = predict_workload_time(args.algorithm, pmap, matrix, **options)
        ratio = simulated_seconds / predicted if predicted else float("inf")
        print(f"Model prediction: {predicted:.3e} s  (simulated / modelled = {ratio:.2f}x)")
    else:
        print(f"Model prediction: not available for algorithm {args.algorithm!r}")


def _workload_matrix(args: argparse.Namespace, nprocs: int):
    """Build the TrafficMatrix the workload subcommand was asked for."""
    if args.pattern == "trace":
        if args.trace is None:
            raise SystemExit("--pattern trace requires --trace FILE")
        return load_trace(args.trace)
    pattern_options: dict = {}
    if args.pattern == "skewed-moe":
        pattern_options = {
            "concentration": args.concentration,
            "hot_fraction": args.hot_fraction,
            "seed": args.seed,
        }
    elif args.pattern == "zipf":
        pattern_options = {"exponent": args.exponent, "seed": args.seed}
    elif args.pattern == "sparse":
        pattern_options = {"out_degree": args.out_degree, "seed": args.seed}
    elif args.pattern == "block-diagonal":
        pattern_options = {"group_size": args.pattern_group_size}
    elif args.pattern == "incast":
        pattern_options = {
            "hotspots": args.hotspots,
            "background_bytes": args.background_bytes,
            "seed": args.seed,
        }
    elif args.pattern == "neighbor-shift":
        pattern_options = {"shift": args.shift, "degree": args.degree}
    return make_pattern(args.pattern, nprocs, args.msg_bytes, **pattern_options)


def _cmd_workload_phased(args: argparse.Namespace, pmap: ProcessMap, workload) -> int:
    """The --phases path of the workload subcommand: one phased job, simulated."""
    from repro.core.runner import run_phased_workload

    if workload.nprocs != pmap.nprocs:
        raise SystemExit(
            f"phased workload describes {workload.nprocs} ranks but "
            f"{args.nodes} nodes x {args.ppn} ppn gives {pmap.nprocs}"
        )
    if args.fold != "off":
        raise SystemExit(
            "--phases does not support symmetry folding (the phases share "
            "one engine timeline)"
        )
    algorithm = (args.algorithm, _algorithm_options(args, vector=True))

    print(f"Workload: {workload.describe()}")
    print(f"Machine:  {pmap.describe()}")
    outcome = run_phased_workload(algorithm, pmap, workload, faults=_faults_from_args(args))
    print(outcome.summary())
    for phase, seconds in sorted(outcome.phase_times.items()):
        print(f"  phase {phase:<22s} {seconds:.3e} s")
    return 0 if outcome.correct else 1


def _cmd_workload(args: argparse.Namespace) -> int:
    cluster = get_system(args.system, args.nodes, fabric=_fabric_from_args(args))
    pmap = ProcessMap(cluster, ppn=args.ppn, num_nodes=args.nodes)
    phased = _phases_from_args(args)
    if phased is not None:
        return _cmd_workload_phased(args, pmap, phased)
    matrix = _workload_matrix(args, pmap.nprocs)
    if matrix.nprocs != pmap.nprocs:
        raise SystemExit(
            f"trace describes {matrix.nprocs} ranks but {args.nodes} nodes x "
            f"{args.ppn} ppn gives {pmap.nprocs}"
        )
    options = _algorithm_options(args, vector=True)

    print(f"Workload: {matrix.describe()}")
    print(f"Machine:  {pmap.describe()}")
    faults = _faults_from_args(args)
    executor = _executor_from_args(args)
    if executor is not None and executor.store is None:
        # A single workload point gains nothing from a worker pool; keep the
        # validated direct path (and its exit-code contract) unless a result
        # store was explicitly requested.
        executor.close()
        executor = None
    if executor is not None:
        # Runtime path: timing through the executor / result store.  The
        # cache can satisfy the point without running the simulator at all,
        # so the validation and traffic report of the direct path are
        # unavailable here.
        try:
            # The executor would report a refused fold as a failed point;
            # refuse it here, with the direct path's message.
            _resolve_fold(pmap, args.fold, faults, matrix)
            harness = BenchmarkHarness(cluster, args.ppn, engine="simulate",
                                       executor=executor, faults=faults)
            point = harness.workload_point(args.algorithm, matrix, args.nodes,
                                           fold=args.fold, **options)
        finally:
            _finish_executor(executor)
        print(f"Simulated {args.algorithm}: {point.seconds:.3e} s  "
              "(timing via runtime executor; rerun without --cache-dir to validate)")
        for phase, seconds in sorted(point.phases.items()):
            print(f"  phase {phase:<22s} {seconds:.3e} s")
        if not args.no_model:
            _print_workload_model_comparison(args, pmap, matrix, options, point.seconds)
        return 0

    outcome = run_workload(args.algorithm, pmap, matrix, fold=args.fold,
                           faults=faults, **options)
    if outcome.fold is not None:
        print(f"Folded: {outcome.fold['simulated_ranks']} representatives x "
              f"{outcome.fold['multiplicity']} ({outcome.fold['kind']} symmetry)")
    validated = "validated against the reference transposition" if outcome.correct \
        else "** INCORRECT RESULT **"
    print(f"Simulated {outcome.algorithm}: {outcome.elapsed:.3e} s  ({validated})")
    print(f"  inter-node messages: {outcome.inter_node_messages}")
    print(f"  inter-node bytes:    {outcome.inter_node_bytes}")
    for phase, seconds in sorted(outcome.phase_times.items()):
        print(f"  phase {phase:<22s} {seconds:.3e} s")

    if not args.no_model:
        _print_workload_model_comparison(args, pmap, matrix, options, outcome.elapsed)
    return 0 if outcome.correct else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.verify import format_failure, verify_task
    from repro.verify.golden import check_corpus

    jobs = args.jobs if args.jobs != 0 else default_jobs()

    fabric = _fabric_from_args(args)
    faults = _faults_from_args(args)
    tasks = [(args.seed + i, args.max_ranks, fabric, faults, args.phased)
             for i in range(args.count)]
    with SweepExecutor(jobs) as executor:
        records = executor.map(verify_task, tasks)
    print(format_verification_summary(records))

    status = 0
    for record in records:
        for failure in record.failures:
            print()
            print(format_failure(failure))
            status = 1

    if args.golden is not None:
        problems = check_corpus(args.golden)
        for problem in problems:
            print(f"golden corpus: {problem}", file=sys.stderr)
        if problems:
            status = 1
        else:
            print("golden corpus: consistent")

    if args.fold_gate:
        from repro.verify.folding import model_crosscheck, run_fold_gate

        report = run_fold_gate()
        print(report.describe())
        if not report.ok:
            status = 1
        points = model_crosscheck(node_counts=(256, 1024), algorithms=("pairwise", "node-aware"))
        for point in points:
            print(point.describe())
        if not all(point.ok for point in points):
            status = 1
    return status


#: Workload generators whose output depends on an RNG seed.
_SEEDED_PATTERNS = frozenset({"skewed-moe", "zipf", "sparse", "incast"})


def _cmd_trace(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.bench.reporting import format_metrics
    from repro.obs import RecordingSink, validate_chrome_trace, write_chrome_trace

    cluster = get_system(args.system, args.nodes, fabric=_fabric_from_args(args))
    pmap = ProcessMap(cluster, ppn=args.ppn, num_nodes=args.nodes)
    faults = _faults_from_args(args)
    phased = _phases_from_args(args)
    sink = RecordingSink()
    vector_flag = ("--phases" if phased is not None
                   else "--pattern" if args.pattern is not None else None)
    if vector_flag is not None and args.algorithm not in list_v_algorithms():
        raise SystemExit(
            f"{vector_flag} needs a v-algorithm ({', '.join(list_v_algorithms())}), "
            f"got {args.algorithm!r}"
        )
    options = _algorithm_options(args, vector=vector_flag is not None)
    if phased is not None:
        from repro.core.runner import run_phased_workload

        if phased.nprocs != pmap.nprocs:
            raise SystemExit(
                f"phased workload describes {phased.nprocs} ranks but "
                f"{args.nodes} nodes x {args.ppn} ppn gives {pmap.nprocs}"
            )
        outcome = run_phased_workload((args.algorithm, options), pmap, phased,
                                      sink=sink, faults=faults)
    elif args.pattern is not None:
        pattern_options = {"seed": args.seed} if args.pattern in _SEEDED_PATTERNS else {}
        matrix = make_pattern(args.pattern, pmap.nprocs, args.msg_bytes, **pattern_options)
        outcome = run_workload(args.algorithm, pmap, matrix, sink=sink,
                               faults=faults, **options)
    else:
        outcome = run_alltoall(args.algorithm, pmap, args.msg_bytes, sink=sink,
                               faults=faults, **options)

    configuration = (
        f"{args.algorithm} on {cluster.name}, {args.nodes} nodes x {args.ppn} ppn, "
        f"{args.msg_bytes} B"
    )
    if phased is not None:
        configuration += f", phases={','.join(phased.names)}"
    elif args.pattern is not None:
        configuration += f", pattern={args.pattern}"
    if args.fabric is not None:
        configuration += f", fabric={args.fabric}"
    if faults is not None:
        configuration += f", faults={faults.describe()}"

    write_chrome_trace(args.out, sink, configuration=configuration)
    summary = validate_chrome_trace(Path(args.out))
    print(f"simulated {args.algorithm}: {outcome.elapsed:.3e} s "
          f"({len(sink)} sink event(s) recorded)")
    print(f"wrote {args.out}: {summary.describe()}")
    print("open it at https://ui.perfetto.dev or chrome://tracing")

    metrics = outcome.job.metrics if outcome.job is not None else {}
    if args.metrics_out is not None:
        out = Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"wrote {args.metrics_out}: metrics registry snapshot")
    print()
    print(format_metrics(metrics))
    return 0 if outcome.correct else 1


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.ingest import TraceStore, normalize_trace, parse_trace
    from repro.workloads import save_phased

    if args.list:
        if args.store is None:
            raise SystemExit("--list requires --store DIR")
        entries = TraceStore(args.store).entries()
        if not entries:
            print(f"trace store {args.store}: empty")
            return 0
        print(f"trace store {args.store}: {len(entries)} workload(s)")
        for entry in entries:
            print(f"  {entry.describe()}")
        return 0

    if args.trace is None:
        raise SystemExit("ingest needs a trace file (or --list with --store)")
    if args.name is not None and args.store is None:
        raise SystemExit("--name requires --store")
    parsed = parse_trace(args.trace)
    workload = normalize_trace(parsed)
    print(f"parsed {args.trace}: format={parsed.format}, "
          f"{len(parsed.records)} record(s)")
    print(workload.describe())
    print(f"digest: {workload.digest()}")
    if args.out is not None:
        save_phased(workload, args.out)
        print(f"wrote {args.out}")
    if args.store is not None:
        key = TraceStore(args.store).put(workload, name=args.name)
        label = f" as {args.name!r}" if args.name is not None else ""
        print(f"indexed in {args.store}{label} [{key[:12]}]")
    return 0


_COMMANDS = {
    "systems": _cmd_systems,
    "figures": _cmd_figures,
    "run": _cmd_run,
    "select": _cmd_select,
    "workload": _cmd_workload,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "ingest": _cmd_ingest,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigurationError as exc:
        # The one user-error boundary: a bad configuration anywhere below a
        # subcommand exits with its message instead of a traceback.
        raise SystemExit(str(exc)) from exc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
