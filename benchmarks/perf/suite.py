"""The six benchmark workloads.

A workload builds its inputs from ``(seed, smoke)`` in its constructor —
that is the set-up the ``setup_s`` metric times — and exposes ``ops``: the
fixed list of operations one round runs, in order.  Each operation is a
call into a public ``repro`` function and returns ``(ok, record)``:
``ok`` is the operation's own correctness verdict and ``record`` the text
of every simulated output it produced, which the runner hashes into the
workload's digest.  Operations never print and never depend on wall time,
so a round's digest is a pure function of the seed and the program.
"""

from __future__ import annotations

import shutil
from collections import Counter
from functools import partial
from pathlib import Path

from repro.bench import figures
from repro.core.runner import run_alltoall, run_workload
from repro.core.selection import build_selection_table, default_candidates
from repro.faults import parse_faults
from repro.ingest import ingest_trace
from repro.machine.process_map import ProcessMap
from repro.machine.systems import dane
from repro.netsim.fabric import parse_fabric
from repro.runtime import ResultStore, SweepExecutor
from repro.verify.differential import verify_seed
from repro.verify.scenario import ScenarioGenerator
from repro.workloads import incast, skewed_moe, zipf

#: The paper's nine algorithm configurations (Fig. 10 plus the flat
#: exchanges), multi-leader / locality variants at groups of 4.
PAPER_ALGORITHMS = (
    ("system-mpi", {}),
    ("pairwise", {}),
    ("nonblocking", {}),
    ("bruck", {}),
    ("hierarchical", {}),
    ("node-aware", {}),
    ("multileader", {"procs_per_leader": 4}),
    ("locality-aware", {"procs_per_group": 4}),
    ("multileader-node-aware", {"procs_per_leader": 4}),
)

V_ALGORITHMS = ("pairwise", "nonblocking", "node-aware")

MODEL_FIGURES = ("fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
                 "fig13", "fig14", "fig15", "fig16", "fig17", "fig18")


def _phases(phases: dict) -> str:
    return ",".join(f"{name}={value!r}" for name, value in sorted(phases.items()))


def _outcome_record(outcome) -> str:
    """Simulated outputs of one AlltoallOutcome / WorkloadOutcome."""
    return (f"{outcome.algorithm}|{outcome.elapsed!r}|{_phases(outcome.phase_times)}"
            f"|fold={outcome.fold and outcome.fold.get('multiplicity')}|{outcome.correct}")


def _figure_record(fig) -> str:
    series = ";".join(
        f"{s.label}:" + ",".join(f"{p.x!r}={p.seconds!r}" for p in s.points)
        for s in fig.series
    )
    return f"{fig.figure_id}|{series}|{fig.notes}"


def _table_record(table) -> str:
    return ";".join(f"{n},{b},{desc},{sec!r}" for n, b, desc, sec in table.as_rows())


def _store_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*.json"))


class Workload:
    """Base: inputs built in ``__init__``, one round = ``ops`` in order."""

    name = ""
    why = ""

    def __init__(self, seed: int, smoke: bool, workdir: Path, root: Path) -> None:
        self.workdir = workdir
        #: False during the warm-up round, True for every measured round.
        self.measured = False
        #: Per-round workload counters (runtime.*, verify.*), reset per round.
        self.counters: Counter = Counter()
        self.ops: list[tuple[str, object]] = []

    def reset(self) -> None:
        """Untimed preparation before each round."""
        self.counters = Counter()


class UniformFullwidth(Workload):
    name = "uniform-fullwidth"
    why = ("Fig-10 size sweep, all nine algorithms x {4,256,4096} B on dane, validated: "
           "engine loop, matching and NIC timing dominate; fabric, store and folding idle")

    def __init__(self, seed, smoke, workdir, root):
        super().__init__(seed, smoke, workdir, root)
        nodes, ppn = (2, 4) if smoke else (4, 8)
        self.pmap = ProcessMap(dane(nodes), ppn=ppn, num_nodes=nodes)
        self.ops = [
            (f"run_alltoall:{algorithm}:{size}B", partial(self._run, algorithm, options, size))
            for size in (4, 256, 4096)
            for algorithm, options in PAPER_ALGORITHMS
        ]

    def _run(self, algorithm, options, size):
        outcome = run_alltoall(algorithm, self.pmap, size, **options)
        return outcome.correct, _outcome_record(outcome)


class MoeDragonfly(Workload):
    name = "moe-dragonfly"
    why = ("seeded skewed-moe/incast/zipf alltoallv on a tapered dragonfly, healthy and faulted, "
           "plus trace ingest and the adaptive figure: fabric queueing, rendezvous, faults")

    FABRIC = "dragonfly:hosts=2,routers=2,taper=4"
    TRACE = Path("examples") / "traces" / "moe_routing_sample.jsonl"

    def __init__(self, seed, smoke, workdir, root):
        super().__init__(seed, smoke, workdir, root)
        nodes, ppn = (8, 2) if smoke else (8, 4)
        nprocs = nodes * ppn
        cluster = dane(nodes).with_fabric(parse_fabric(self.FABRIC))
        self.pmap = ProcessMap(cluster, ppn=ppn, num_nodes=nodes)
        faults = parse_faults(figures.ROBUSTNESS_FAULTS)
        self.trace_path = root / self.TRACE
        base = 4096
        matrices = (
            skewed_moe(nprocs, base, seed=seed),
            incast(nprocs, base, hotspots=max(1, nprocs // 16), background_bytes=256, seed=seed),
            zipf(nprocs, base, seed=seed),
        )
        self.ops = [
            (f"run_workload:{m.pattern}:{algorithm}", partial(self._run, algorithm, m, None))
            for m in matrices
            for algorithm in V_ALGORITHMS
        ]
        self.ops += [
            (f"run_workload:{matrices[0].pattern}:{algorithm}:faulted",
             partial(self._run, algorithm, matrices[0], faults))
            for algorithm in V_ALGORITHMS
        ]
        self.ops += [("ingest_trace", self._ingest), ("figure_adaptive", self._adaptive)]
        self.phased = None

    def _run(self, algorithm, matrix, faults):
        outcome = run_workload(algorithm, self.pmap, matrix, faults=faults)
        return outcome.correct, _outcome_record(outcome)

    def _ingest(self):
        self.phased = ingest_trace(self.trace_path)
        return True, self.phased.digest()

    def _adaptive(self):
        fig = figures.figure_adaptive(workload=self.phased)
        return True, _figure_record(fig)


class _SelectionSweep(Workload):
    """Shared inputs of the two selection-table workloads."""

    def __init__(self, seed, smoke, workdir, root):
        super().__init__(seed, smoke, workdir, root)
        if smoke:
            self.ppn, self.node_counts, self.sizes = 4, (2,), (4, 4096)
        else:
            self.ppn, self.node_counts, self.sizes = 8, (2, 4), (4, 64, 1024, 4096)
        self.cluster = dane(max(self.node_counts))

    def _build(self, executor):
        return build_selection_table(self.cluster, self.ppn, node_counts=self.node_counts,
                                     msg_sizes=self.sizes, executor=executor)

    def _count(self, executor, store, before: tuple) -> tuple[int, int]:
        executed = executor.executed_points - before[0]
        cached = executor.cached_points - before[1]
        self.counters["runtime.points_executed"] += executed
        self.counters["runtime.points_cached"] += cached
        self.counters["runtime.store.hits"] += store.hits - before[2]
        self.counters["runtime.store.misses"] += store.misses - before[3]
        return executed, cached


class SelectCold(_SelectionSweep):
    name = "select-cold"
    why = ("build_selection_table, 9 candidates x 2 node counts x 4 sizes through SweepExecutor "
           "into a fresh ResultStore: per-point set-up, spec hashing and store writes")

    def __init__(self, seed, smoke, workdir, root):
        super().__init__(seed, smoke, workdir, root)
        self.points = len(default_candidates(self.ppn)) * len(self.node_counts) * len(self.sizes)
        self.rounds = 0
        self.store_dir = None
        self.ops = [("build_selection_table:cold", self._cold)]

    def reset(self):
        super().reset()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
        self.rounds += 1
        self.store_dir = self.workdir / f"store-{self.rounds}"

    def _cold(self):
        store = ResultStore(self.store_dir)
        executor = SweepExecutor(jobs=1, store=store)
        table = self._build(executor)
        executed, cached = self._count(executor, store, (0, 0, 0, 0))
        self.counters["runtime.store.bytes"] = _store_bytes(self.store_dir)
        ok = executor.failed_points == 0 and cached == 0 and executed == self.points
        return ok, f"{_table_record(table)}|executed={executed}|cached={cached}"


class CachedAndModel(_SelectionSweep):
    name = "cached-and-model"
    why = ("the same table rebuilt 20x from a warm ResultStore plus every model-engine figure: "
           "store reads and the LogGP model, with one uncached spot check")

    def __init__(self, seed, smoke, workdir, root):
        super().__init__(seed, smoke, workdir, root)
        self.store = ResultStore(workdir / "store")
        self.executor = SweepExecutor(jobs=1, store=self.store)
        self.table = None
        rebuilds, figure_ids = (2, ("fig07", "fig13")) if smoke else (20, MODEL_FIGURES)
        self.ops = [(f"build_selection_table:cached:{i}", self._cached) for i in range(rebuilds)]
        self.ops += [(fid, partial(self._figure, fid)) for fid in figure_ids]
        self.ops += [("table1", self._table1), ("spot_check", self._spot_check)]

    def _cached(self):
        before = (self.executor.executed_points, self.executor.cached_points,
                  self.store.hits, self.store.misses)
        self.table = self._build(self.executor)
        executed, cached = self._count(self.executor, self.store, before)
        self.counters["runtime.store.bytes"] = _store_bytes(self.store.cache_dir)
        # The warm-up round fills the store; afterwards every point is a hit.
        ok = self.executor.failed_points == 0 and not (self.measured and executed)
        return ok, f"{_table_record(self.table)}|executed={executed}|cached={cached}"

    def _figure(self, figure_id):
        return True, _figure_record(figures.FIGURES[figure_id]())

    def _table1(self):
        return True, repr(figures.table1())

    def _spot_check(self):
        """One cached (nodes, size) cell must equal a fresh, uncached simulation."""
        nodes, size = self.node_counts[0], self.sizes[-1]
        fresh = build_selection_table(self.cluster, self.ppn, node_counts=(nodes,),
                                      msg_sizes=(size,))
        cell = fresh.entries[(nodes, size)]
        return cell == self.table.entries[(nodes, size)], repr(cell)


class FoldScale(Workload):
    name = "fold-scale"
    why = ("symmetry-folded runs at up to 16384 logical nodes with validation on: the fold "
           "machinery and core.validation's folded reference check")

    def __init__(self, seed, smoke, workdir, root):
        super().__init__(seed, smoke, workdir, root)
        if smoke:
            points = (("node-aware", {}, 4, 16, 4), ("pairwise", {}, 256, 1, 64),
                      ("multileader-node-aware", {"procs_per_leader": 4}, 4, 16, 64))
        else:
            points = (("node-aware", {}, 8, 112, 4), ("pairwise", {}, 16384, 1, 64),
                      ("multileader-node-aware", {"procs_per_leader": 4}, 8, 112, 64))
        self.ops = []
        for algorithm, options, nodes, ppn, size in points:
            pmap = ProcessMap(dane(nodes), ppn=ppn, num_nodes=nodes)
            self.ops.append((f"run_alltoall:{algorithm}:{nodes}nx{ppn}p:{size}B:folded",
                             partial(self._run, algorithm, options, pmap, size)))

    def _run(self, algorithm, options, pmap, size):
        outcome = run_alltoall(algorithm, pmap, size, fold="on", **options)
        return outcome.correct, _outcome_record(outcome)


def verify_cost(scenario) -> float:
    """Relative host cost of ``verify_seed`` on one scenario.

    A linear fit of measured verify times against the scenario's shape (no
    simulation needed).  The verify-sweep workload fills each round to a
    fixed total of this estimate, so the work a round does — and therefore
    its wall time — hardly depends on which seed picked the scenarios.
    """
    p = scenario.nprocs
    if scenario.family == "uniform":
        return 2.0 + 0.72 * p + 0.072 * p * p + 3.7e-5 * p * p * scenario.msg_bytes
    counts = scenario.matrix.bytes  # "workload": the default sampler draws no phased scenarios
    return 1.03 * p + 0.044 * int((counts > 0).sum()) + 1.5e-5 * int(counts.sum()) - 0.38


class VerifySweep(Workload):
    name = "verify-sweep"
    why = ("verify_seed over consecutive scenario seeds derived from --seed, up to 24 ranks: "
           "many tiny differential runs, reference buffers and result hashes")

    #: Scenario 972 is one of the sampler's largest cases (24 ranks, 4096 B
    #: uniform).  Every round starts with it, so the memory peak does not
    #: depend on whether the seed's scenarios happen to include such a case.
    ANCHOR_SEED = 972

    def __init__(self, seed, smoke, workdir, root):
        super().__init__(seed, smoke, workdir, root)
        max_ranks, budget = (8, 100.0) if smoke else (24, 1300.0)
        generator = ScenarioGenerator(max_ranks=max_ranks)
        scenario_seed, total = 1000 * seed, 0.0
        self.ops = [(f"verify_seed:{self.ANCHOR_SEED}",
                     partial(self._verify, self.ANCHOR_SEED, max_ranks))]
        while total < budget:
            total += verify_cost(generator.scenario(scenario_seed))
            self.ops.append((f"verify_seed:{scenario_seed}",
                             partial(self._verify, scenario_seed, max_ranks)))
            scenario_seed += 1

    def _verify(self, scenario_seed, max_ranks):
        record = verify_seed(scenario_seed, max_ranks)
        self.counters["verify.algorithm_runs"] += len(record.verified) + len(record.failures)
        return record.ok, (f"{record.digest}|{record.result_hash}|{','.join(record.verified)}"
                           f"|{','.join(record.skipped)}|{record.ok}")


WORKLOADS = {
    cls.name: cls
    for cls in (UniformFullwidth, MoeDragonfly, SelectCold, CachedAndModel, FoldScale, VerifySweep)
}
