"""Metrics primitives and the per-job metrics snapshot.

Two layers live here:

* **Primitives** — :class:`Counter`, :class:`Gauge` and :class:`Histogram`,
  collected in a :class:`MetricsRegistry`.  They are deliberately plain
  (no labels, no time series): a simulated job is a single bounded run, so
  a flat named snapshot is the right shape.
* **The job snapshot** — :func:`build_job_metrics` turns the counters the
  engine, router, timing model and fabric already maintain on (or next to)
  the hot path into the nested plain-``dict`` stored on
  :attr:`repro.simmpi.engine.JobResult.metrics`.  It runs once per job,
  after the event loop has drained, so it costs nothing on the hot path.

The snapshot is JSON-serialisable by construction — the ``trace`` CLI
writes it as the metrics sidecar, and :func:`repro.bench.reporting.format_metrics`
renders it for humans.  The metrics glossary lives in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "build_job_metrics",
]


@dataclass
class Counter:
    """A monotonically increasing count (messages matched, bytes moved, ...)."""

    name: str
    value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def snapshot(self):
        return self.value


@dataclass
class Gauge:
    """A point-in-time level that tracks its peak (queue depth, occupancy)."""

    name: str
    value: float = 0
    peak: float = 0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def snapshot(self) -> dict:
        return {"value": self.value, "peak": self.peak}


@dataclass
class Histogram:
    """Fixed-bucket histogram with sum/count/max (scan lengths, durations).

    ``bounds`` are the inclusive upper edges of each bucket; observations
    above the last bound land in the implicit overflow bucket.
    """

    name: str
    bounds: tuple = (1, 2, 4, 8, 16, 32, 64, 128)
    counts: list = field(default_factory=list)
    total: float = 0.0
    count: int = 0
    max: float = 0.0

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(self.bounds):
            raise ConfigurationError(f"histogram {self.name!r} bounds must be sorted")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                **{f"le_{bound}": self.counts[i] for i, bound in enumerate(self.bounds)},
                "overflow": self.counts[-1],
            },
        }


class MetricsRegistry:
    """A named collection of metrics with one-call snapshotting.

    Names are dotted paths (``"matching.fast_path"``); :meth:`snapshot`
    nests them into plain dictionaries, so the registry's output drops
    straight into JSON.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _register(self, metric):
        if metric.name in self._metrics:
            raise ConfigurationError(f"metric {metric.name!r} is already registered")
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, value: float = 0) -> Counter:
        return self._register(Counter(name, value))

    def gauge(self, name: str) -> Gauge:
        return self._register(Gauge(name))

    def histogram(self, name: str, bounds: tuple = Histogram.bounds) -> Histogram:
        return self._register(Histogram(name, bounds))

    def get(self, name: str):
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict:
        """Nested plain-dict snapshot of every registered metric."""
        out: dict = {}
        for name, metric in sorted(self._metrics.items()):
            node = out
            parts = name.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = metric.snapshot()
        return out


# ---------------------------------------------------------------------------
# The per-job snapshot
# ---------------------------------------------------------------------------


def build_job_metrics(engine) -> dict:
    """Aggregate one finished job's counters into a plain-dict snapshot.

    Runs once per :meth:`~repro.simmpi.engine.SpmdEngine.run`, after the
    simulation has drained; reads the counters the router/timing/fabric
    layers maintained during the run and never touches hot-path state.
    """
    router = engine.router
    timing = engine.timing
    registry = MetricsRegistry()

    # -- matching ----------------------------------------------------------
    registry.counter("matching.matches", router.matches)
    registry.counter("matching.fast_path", router.fast_path_matches)
    registry.counter("matching.queued", router.queued_matches)
    registry.counter("matching.parked", router.unexpected_parked)
    registry.counter("matching.entries_scanned", router.entries_scanned)
    registry.counter("matching.wildcard_receives", router.wildcard_receives)
    wildcard_scan = registry.histogram("matching.wildcard_scan")
    for scanned in router.wildcard_scan_lengths:
        wildcard_scan.observe(scanned)
    depth = registry.gauge("matching.unexpected_depth")
    depth.set(router.max_unexpected_depth)
    depth.set(sum(len(m.unexpected) for m in router._mailboxes))  # final level

    # -- traffic -----------------------------------------------------------
    traffic = router.traffic
    registry.counter("traffic.messages", traffic.messages)
    registry.counter("traffic.bytes", traffic.total_bytes)
    for level, counts in traffic.per_key.items():
        key = level.name.lower() if hasattr(level, "name") else str(level)
        registry.counter(f"traffic.by_level.{key}.messages", counts[0])
        registry.counter(f"traffic.by_level.{key}.bytes", counts[1])

    # -- NIC injection -----------------------------------------------------
    nic_busy = registry.histogram("nic.busy_time", bounds=())
    registry.counter(
        "nic.messages", sum(nic.reservations for nic in timing.nics)
    )
    for nic in timing.nics:
        nic_busy.observe(nic.busy_time)

    # -- fabric links ------------------------------------------------------
    fabric = timing.fabric
    if fabric is not None:
        stats = fabric.statistics()
        registry.counter("fabric.links", len(stats))
        registry.counter("fabric.messages", sum(s["messages"] for s in stats))
        registry.counter("fabric.bytes", sum(s["bytes"] for s in stats))
        registry.counter("fabric.queued_time", sum(s["queued_time"] for s in stats))
        busy = registry.histogram("fabric.link_busy_time", bounds=())
        occupancy = registry.gauge("fabric.link_occupancy")
        for entry in stats:
            busy.observe(entry["busy_time"])
            occupancy.set(entry["busy_time"])
        registry.counter(
            "fabric.max_queue_delay", max(s["max_queue_delay"] for s in stats)
        )

    # -- engine ------------------------------------------------------------
    registry.counter("engine.events_processed", engine.simulator.events_processed)
    registry.counter("engine.ranks", engine.pmap.nprocs)

    # Fault-injection surface (absent on healthy runs): how many fault
    # models were active, so a metrics sidecar always records whether its
    # timings describe the healthy or a degraded machine.
    faults = getattr(engine, "faults", None)
    if faults is not None:
        registry.counter("faults.active", len(faults.faults))
        registry.gauge("faults.seed").set(faults.seed)

    return registry.snapshot()
