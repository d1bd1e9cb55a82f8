#!/usr/bin/env python3
"""Host-time benchmark of the all-to-all simulator, end to end and per layer.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py --seed 0                      # all six workloads
    python3 benchmarks/perf/run.py --workload fold-scale --seed 3 --seconds 10
    python3 benchmarks/perf/run.py --seed 0 --trace --out traced.json
    python3 benchmarks/perf/run.py --smoke --seconds 0           # tiny sizes, for tests

Each workload runs in fresh processes: ``SETUP_SAMPLES - 1`` set-up probes
(import + build inputs, then exit) and one worker, all on one thread.  The
worker runs one untimed warm-up round, then measured rounds back to back
(a closed loop: each operation starts when the previous one returned)
until ``--seconds`` have passed and at least ``MIN_ROUNDS`` rounds ran.
With ``--trace`` it then runs one more round under cProfile and reports the
per-layer metrics instead of the end-to-end ones.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 1 when any operation failed or a digest did not match, and
2 when the program to measure (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
WORKDIR = ROOT / ".perfbench"

#: The seed whose digests are recorded in digests.json.
DEFAULT_SEED = 0
DEFAULT_SECONDS = 12.0
MIN_ROUNDS = 3
#: Fresh-process set-ups per workload (probes plus the worker itself).
SETUP_SAMPLES = 7
#: A worker still running after this long is killed and the run fails.
WORKER_TIMEOUT_S = 150.0


def _median_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


# ---------------------------------------------------------------------------
# Child processes: set-up probe and worker
# ---------------------------------------------------------------------------


def _set_up(args) -> tuple:
    """Import the program and build the workload's inputs; returns timings."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import suite  # noqa: E402 - imports repro

    imported = time.perf_counter()
    workdir = WORKDIR / f"{args.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = suite.WORKLOADS[args.name](args.seed, args.smoke, workdir, ROOT)
    built = time.perf_counter()
    setup = {
        "setup_s": time.monotonic() - args.t0,
        "import_s": imported - start,
        "inputs_s": built - imported,
    }
    return workload, setup


def _probe_main(args) -> int:
    import shutil

    workload, setup = _set_up(args)
    shutil.rmtree(workload.workdir, ignore_errors=True)
    print(json.dumps(setup), flush=True)
    return 0


def _run_round(workload, probe, spans, parent: int, label: str) -> dict:
    """One round: every operation in order, each timed on its own.

    ``op_times`` holds each operation's (wall, CPU, inside-engine) seconds.
    """
    import traceback
    from hashlib import sha256

    workload.reset()
    before = probe.snapshot()
    failures: list[str] = []
    op_times: list[tuple[float, float, float]] = []
    hasher = sha256()
    handle = spans.open(label, parent)
    for name, op in workload.ops:
        engine_start = probe.counters["host_s"]
        op_span = spans.open(name, handle[0])
        cpu_start = time.process_time()
        try:
            ok, record = op()
        except Exception as exc:  # an operation that raises counts as failed
            ok, record = False, f"error:{type(exc).__name__}"
            if not failures:
                traceback.print_exc(file=sys.stderr)
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
        else:
            if not ok:
                failures.append(f"{name}: incorrect output")
        cpu = time.process_time() - cpu_start
        wall = spans.close(op_span)
        op_times.append((wall, cpu, probe.counters["host_s"] - engine_start))
        hasher.update(f"{name}\n{record}\n".encode())
    wall = spans.close(handle)
    sim = probe.snapshot()
    sim.subtract(before)
    return {
        "wall_s": wall,
        "op_times": op_times,
        "ops": len(workload.ops),
        "failures": failures,
        "digest": hasher.hexdigest(),
        "sim": dict(sim),
        "counters": dict(workload.counters),
    }


def _worker_main(args) -> int:
    import resource
    import shutil

    workload, setup = _set_up(args)
    from probe import EngineProbe, Spans

    probe = EngineProbe()
    probe.install()
    spans = Spans()
    root = spans.open(f"workload:{args.name}", None)
    try:
        _run_round(workload, probe, spans, root[0], "round:warmup")
        workload.measured = True
        rounds = []
        started = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < args.seconds:
            rounds.append(_run_round(workload, probe, spans, root[0], f"round:{len(rounds) + 1}"))
        profile = None
        if args.trace:
            import cProfile
            import pstats

            from layers import attribute

            profiler = cProfile.Profile()
            profiler.enable()
            traced = _run_round(workload, probe, spans, root[0], "round:profiled")
            profiler.disable()
            profile = attribute(pstats.Stats(profiler).stats, SRC)
            profile["wall_s"] = traced["wall_s"]
            rounds_checked = rounds + [traced]
        else:
            rounds_checked = rounds
    finally:
        spans.close(root)
        probe.uninstall()
        shutil.rmtree(workload.workdir, ignore_errors=True)
    result = {
        "workload": args.name,
        "setup": setup,
        "rounds": rounds,
        "checked": rounds_checked,
        "profile": profile,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": spans.as_json(),
    }
    print(json.dumps(result), flush=True)
    return 0


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


def _child(mode: str, name: str, args) -> dict:
    """Run a probe or worker process; returns its last JSON line."""
    command = [sys.executable, str(Path(__file__).resolve()), mode, name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--t0", repr(time.monotonic())]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{mode} {name} did not finish within {WORKER_TIMEOUT_S:g} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _per_layer_metrics(result: dict, setups: list[dict], untraced_wall: float) -> dict:
    from layers import LAYERS

    profile = result["profile"]
    total = profile["total_s"] or 1.0
    values: dict[str, float] = {}
    for layer in LAYERS:
        self_s = profile["self_s"].get(layer, 0.0)
        values[f"layer.{layer}.self_s"] = self_s
        values[f"layer.{layer}.share"] = self_s / total
        values[f"layer.{layer}.calls"] = profile["calls"].get(layer, 0)
    last = result["rounds"][-1]
    sim, counters = last["sim"], last["counters"]
    values["sim.events"] = sim.get("events", 0)
    values["sim.matching.entries_scanned"] = sim.get("matching.entries_scanned", 0)
    matches = sim.get("matching.matches", 0)
    values["sim.matching.scans_per_match"] = (
        sim.get("matching.entries_scanned", 0) / matches if matches else 0.0)
    values["sim.matching.parked"] = sim.get("matching.parked", 0)
    values["sim.traffic.messages"] = sim.get("traffic.messages", 0)
    values["sim.traffic.bytes"] = sim.get("traffic.bytes", 0)
    values["sim.nic.messages"] = sim.get("nic.messages", 0)
    values["sim.fabric.queued_s"] = sim.get("fabric.queued_time", 0.0)
    values["runtime.points_executed"] = counters.get("runtime.points_executed", 0)
    values["runtime.points_cached"] = counters.get("runtime.points_cached", 0)
    lookups = counters.get("runtime.store.hits", 0) + counters.get("runtime.store.misses", 0)
    values["runtime.store.hit_ratio"] = (
        counters.get("runtime.store.hits", 0) / lookups if lookups else 0.0)
    values["runtime.store.bytes"] = counters.get("runtime.store.bytes", 0)
    values["verify.algorithm_runs"] = counters.get("verify.algorithm_runs", 0)
    values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setups)
    values["trace.overhead_frac"] = profile["wall_s"] / untraced_wall - 1.0
    values["trace.unattributed_share"] = profile["unattributed_s"] / total
    return values


def _end_to_end_metrics(result: dict, setups: list[dict]) -> dict:
    """Each operation at its fastest: per-operation minima over the rounds, summed.

    Operations are deterministic, so their spread across rounds is the
    machine's noise, which only ever adds time.
    """
    rounds = result["rounds"]
    # samples = one operation's (wall, cpu, engine) tuples, one per round.
    best = [[min(times) for times in zip(*samples)]
            for samples in zip(*(r["op_times"] for r in rounds))]
    wall, cpu, engine = (sum(column) for column in zip(*best))
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": wall,
        "cpu_s": cpu,
        "sim_events_per_s": rounds[-1]["sim"].get("events", 0) / engine if engine else 0.0,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _measure(name: str, args, declared: dict, recorded: str | None) -> dict:
    """Set-up probes plus one worker for one workload; returns its report."""
    probes = (1 if args.smoke else SETUP_SAMPLES) - 1
    setups = [_child("--setup-probe", name, args) for _ in range(probes)]
    result = _child("--worker", name, args)
    setups.append(result["setup"])

    checked = result["checked"]
    attempted = sum(r["ops"] for r in checked)
    failures = [f for r in checked for f in r["failures"]]
    failed = sum(len(r["failures"]) for r in checked)
    digests = {r["digest"] for r in checked}
    digest = checked[0]["digest"]
    notes = []
    if len(digests) > 1:
        failed = attempted
        notes.append("rounds produced different digests (nondeterministic outputs)")
    if recorded is not None and recorded != digest:
        failed = attempted
        notes.append(f"digest {digest[:16]} does not match the recorded {recorded[:16]} "
                     f"for seed {DEFAULT_SEED}")

    walls = [r["wall_s"] for r in result["rounds"]]
    if args.trace:
        values = _per_layer_metrics(result, setups, statistics.median(walls))
    else:
        values = _end_to_end_metrics(result, setups)
    missing = set(declared) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics not matching BENCHMARK.json: {sorted(missing)}")
    median, q1, q3 = _median_quartiles(walls)
    return {
        "workload": name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "notes": notes,
        "digest": digest,
        "digest_recorded": recorded,
        "rounds": len(walls),
        "ops_per_round": checked[0]["ops"],
        "wall_quartiles_s": [q1, median, q3],
        "round_walls_s": walls,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "metrics": {key: {"value": values[key], "unit": declared[key]} for key in declared},
        "spans": result["spans"],
    }


def _print_report(report: dict) -> None:
    q1, median, q3 = report["wall_quartiles_s"]
    status = "ok" if not report["failed"] else f"FAILED {report['failed']}/{report['attempted']}"
    if report["digest_recorded"] is None:
        check = "not recorded for this seed"
    else:
        check = "matches recorded" if report["digest_recorded"] == report["digest"] else "MISMATCH"
    print(f"[{report['workload']}] seed={report['seed']} rounds={report['rounds']} "
          f"ops/round={report['ops_per_round']} {status}")
    print(f"  digest {report['digest']} ({check})")
    print(f"  round wall quartiles: {q1:.4f} / {median:.4f} / {q3:.4f} s")
    for name, entry in report["metrics"].items():
        print(f"  {name:<36s} {entry['value']:>16.6g} {entry['unit']}")
    for line in report["notes"] + report["failures"]:
        print(f"  ! {line}")


def _parse(argv, workloads: list[str]):
    parser = argparse.ArgumentParser(
        description="End-to-end and per-layer host-time benchmark of the simulator.")
    parser.add_argument("--workload", nargs="+", choices=workloads,
                        default=workloads, help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}, whose digests are recorded)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per workload run (at least 3 rounds run)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from one profiled round")
    parser.add_argument("--smoke", action="store_true", help="tiny input sizes (self-tests)")
    parser.add_argument("--out", type=Path, help="write the full report (with spans) here")
    parser.add_argument("--record-digests", action="store_true",
                        help=f"store this run's digests as the reference for seed {DEFAULT_SEED}")
    parser.add_argument("--worker", dest="worker", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", dest="setup_probe", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads(BENCHMARK.read_text())
    args = _parse(argv, [w["name"] for w in spec["workloads"]])
    if args.worker or args.setup_probe:
        sys.path.insert(0, str(HERE))
        args.name = args.worker or args.setup_probe
        return _worker_main(args) if args.worker else _probe_main(args)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program to measure is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.record_digests and args.seed != DEFAULT_SEED:
        print(f"error: --record-digests needs --seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    size = "smoke" if args.smoke else "full"
    recorded_all = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}

    reports = []
    try:
        for name in args.workload:
            recorded = (recorded_all.get(size, {}).get(name)
                        if args.seed == DEFAULT_SEED and not args.record_digests else None)
            report = _measure(name, args, declared, recorded)
            _print_report(report)
            reports.append(report)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:
            pass

    if args.record_digests:
        recorded_all.setdefault(size, {}).update({r["workload"]: r["digest"] for r in reports})
        DIGESTS.write_text(json.dumps(recorded_all, indent=2, sort_keys=True) + "\n")
    if args.out is not None:
        args.out.write_text(json.dumps({"runs": reports}, indent=1) + "\n")

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
