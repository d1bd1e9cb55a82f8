#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload, metric by metric.

Usage::

    python3 benchmarks/perf/compare.py BASE NEW
    python3 benchmarks/perf/compare.py BASE          # one side: spreads only

``BASE`` and ``NEW`` are each a result file written by ``run.py --out`` or a
directory of such files.  Runs are paired in file-name order, so name the
files of alternating parent/change runs alike (``base/01.json`` with
``new/01.json``, ...).  Only untraced runs are compared.

For each workload x end-to-end metric the tool prints each side's median
and quartiles over its runs, then a verdict, with the bound taken from
``BENCHMARK.json``:

* ``improved`` — at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither side), and the medians differ by more than
  the base side's interquartile range;
* ``unresolved`` — either side's interquartile range, as a share of its
  median, is wider than the bound, and not every new run beats every base
  run;
* ``regressed`` — the new median is worse than the base median by more than
  the bound;
* ``within bound`` — otherwise.

Digests of runs with the same workload and seed must agree between the two
sides: a host-speed change that alters any simulated output has changed the
simulation.  The exit code is 1 when a metric regressed or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_runs(path: Path) -> list[dict]:
    """Untraced workload reports from a result file or a directory of them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        runs.extend(r for r in json.loads(file.read_text())["runs"] if not r["trace"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], new: list[float], bound: float, higher_better: bool) -> str:
    sign = -1.0 if higher_better else 1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    worse = sign * (nm - bm) / bm
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and worse < 0 and abs(nm - bm) > b3 - b1:
        return "improved"
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regressed"
    return "within bound"


def _by_workload(runs: list[dict]) -> dict:
    grouped = defaultdict(list)
    for run in runs:
        grouped[run["workload"]].append(run)
    return grouped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)

    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    base = _by_workload(load_runs(args.base))
    new = _by_workload(load_runs(args.new)) if args.new else {}
    status = 0
    for workload in sorted(base):
        print(f"{workload}: {len(base[workload])} base run(s)"
              + (f", {len(new.get(workload, []))} new run(s)" if args.new else ""))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            b = [r["metrics"][name]["value"] for r in base[workload]]
            b1, bm, b3 = quartiles(b)
            line = (f"  {name:<18s} base {bm:.6g} [{b1:.6g}, {b3:.6g}] "
                    f"spread {(b3 - b1) / bm:6.2%}")
            if workload in new:
                n = [r["metrics"][name]["value"] for r in new[workload]]
                n1, nm, n3 = quartiles(n)
                result = verdict(b, n, bound, metric["better"] == "higher")
                status |= result == "regressed"
                line += (f" | new {nm:.6g} [{n1:.6g}, {n3:.6g}] spread {(n3 - n1) / nm:6.2%}"
                         f" | {(nm - bm) / bm:+6.2%} (bound {bound:.0%}): {result}")
            else:
                line += f" (bound {bound:.0%})"
            print(line)
        if workload in new:
            base_digests = {r["seed"]: r["digest"] for r in base[workload]}
            for run in new[workload]:
                expected = base_digests.get(run["seed"])
                if expected is not None and expected != run["digest"]:
                    print(f"  ! seed {run['seed']}: digest {run['digest'][:16]} differs "
                          f"from base {expected[:16]} (simulated outputs changed)")
                    status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
