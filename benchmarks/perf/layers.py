"""Layer map for the per-layer host-time breakdown, and cProfile attribution.

Every module under ``src/repro`` belongs to exactly one of :data:`LAYERS`,
found by longest-prefix match in :data:`PREFIXES`.  A traced round's
cProfile self time is charged to layers as follows:

* a ``repro`` function's self time goes to its module's layer;
* a C builtin, standard-library or NumPy function's self time is spread
  over its callers in proportion to the time each caller edge accounts
  for, and followed up the caller graph until it reaches ``repro``
  functions — so a ``numpy`` comparison inside ``core.validation`` is
  validation time, not "numpy" time;
* whatever reaches no ``repro`` function (the benchmark's own loop, the
  profiler's bookkeeping) is *unattributed*.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path

#: The 21 layers, in report order.
LAYERS: tuple[str, ...] = (
    "core.alltoall",
    "core.runner",
    "core.validation",
    "core.selection",
    "simmpi.engine",
    "simmpi.p2p",
    "simmpi.comm",
    "netsim.simulator",
    "netsim.fabric",
    "machine",
    "model",
    "workloads",
    "ingest",
    "faults",
    "obs",
    "runtime.spec",
    "runtime.store",
    "runtime.executor",
    "bench",
    "verify",
    "utils",
)

#: Module prefix -> layer.  The longest matching prefix wins, so package
#: entries act as the default for modules without an entry of their own.
PREFIXES: dict[str, str] = {
    "repro": "utils",  # package root, errors, _version
    "repro.utils": "utils",
    "repro.cli": "bench",
    "repro.bench": "bench",
    "repro.core": "core.runner",  # package facade
    "repro.core.runner": "core.runner",
    "repro.core.alltoall": "core.alltoall",
    "repro.core.extensions": "core.alltoall",
    "repro.core.instrumentation": "core.alltoall",
    "repro.core.validation": "core.validation",
    "repro.core.selection": "core.selection",
    "repro.simmpi": "simmpi.comm",  # communicators, groups, collectives, job views
    "repro.simmpi.engine": "simmpi.engine",
    "repro.simmpi.parallel": "simmpi.engine",
    "repro.simmpi.ops": "simmpi.engine",
    "repro.simmpi.p2p": "simmpi.p2p",  # matching + NIC timing
    "repro.simmpi.request": "simmpi.p2p",
    "repro.simmpi.status": "simmpi.p2p",
    "repro.netsim": "netsim.simulator",  # event loop, queues, serial resources
    "repro.netsim.fabric": "netsim.fabric",
    "repro.machine": "machine",
    "repro.model": "model",
    "repro.workloads": "workloads",
    "repro.ingest": "ingest",
    "repro.faults": "faults",
    "repro.obs": "obs",
    "repro.runtime": "runtime.executor",  # executor, pool worker
    "repro.runtime.spec": "runtime.spec",
    "repro.runtime.store": "runtime.store",
    "repro.verify": "verify",
}


def layer_of(module: str) -> str | None:
    """Layer of a dotted ``repro`` module name (``None`` outside ``repro``)."""
    parts = module.split(".")
    for end in range(len(parts), 0, -1):
        layer = PREFIXES.get(".".join(parts[:end]))
        if layer is not None:
            return layer
    return None


def module_of(filename: str, src_dir: Path) -> str | None:
    """Dotted module name of a source file under ``src_dir`` (else ``None``)."""
    try:
        relative = Path(filename).resolve().relative_to(src_dir)
    except (ValueError, OSError):
        return None
    if relative.suffix != ".py":
        return None
    parts = list(relative.with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules(src_dir: Path) -> list[str]:
    """Every module of the ``repro`` package under ``src_dir``."""
    return sorted(
        module_of(str(path), src_dir)
        for path in (src_dir / "repro").rglob("*.py")
    )


def attribute(stats: dict, src_dir: Path) -> dict:
    """Charge a ``pstats.Stats(...).stats`` table to layers.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "total_s": s,
    "unattributed_s": s}``; ``calls`` counts calls of ``repro`` functions
    only (a builtin's calls are not charged to its caller's layer).
    """
    src_dir = src_dir.resolve()
    layers: dict = {}
    for func in stats:
        module = module_of(func[0], src_dir)
        layers[func] = layer_of(module) if module else None

    shares_memo: dict = {}

    def shares(func, active: frozenset) -> dict:
        """Fractions of ``func``'s self time owed to each layer (None = nobody)."""
        if func in shares_memo:
            return shares_memo[func]
        # Recursive edges (json's encoder calling itself) say nothing about
        # who the time is for; only callers outside the recursion count.
        callers = {caller: edge for caller, edge in stats[func][4].items()
                   if caller not in active}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:  # time too small to split: split by call count
            weights = {caller: edge[1] for caller, edge in callers.items()}
            total = sum(weights.values())
        out: dict = defaultdict(float)
        if total <= 0:
            out[None] = 1.0
        for caller, weight in weights.items():
            if weight <= 0:
                continue
            fraction = weight / total
            owner = layers.get(caller)
            if owner is not None:
                out[owner] += fraction
            elif caller not in stats:
                out[None] += fraction
            else:
                for layer, sub in shares(caller, active | {caller}).items():
                    out[layer] += fraction * sub
        shares_memo[func] = out
        return out

    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    total_s = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        total_s += tt
        owner = layers[func]
        if owner is not None:
            self_s[owner] += tt
            calls[owner] += nc
        elif tt > 0.0:
            for layer, fraction in shares(func, frozenset({func})).items():
                self_s[layer] += tt * fraction
    unattributed = self_s.pop(None, 0.0)
    return {
        "self_s": dict(self_s),
        "calls": dict(calls),
        "total_s": total_s,
        "unattributed_s": unattributed,
    }
