"""Measurement from outside the program: an engine probe and span records.

:class:`EngineProbe` wraps the public ``SpmdEngine.run`` method — the one
call every simulated job goes through, whichever runner, harness, sweep
executor or differential checker started it — and accumulates the host
time spent inside it plus the counters of each returned ``JobResult``
(``events_processed`` and the ``JobResult.metrics`` snapshot).  Nothing
in ``src/`` changes; the wrapper costs two clock reads and a few dict
lookups per simulated job.

:class:`Spans` keeps workload -> round -> operation spans in memory; they
are written out with the result file when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter

#: JobResult.metrics paths summed into the probe's counters.
_METRIC_PATHS = {
    "matching.matches": ("matching", "matches"),
    "matching.entries_scanned": ("matching", "entries_scanned"),
    "matching.parked": ("matching", "parked"),
    "traffic.messages": ("traffic", "messages"),
    "traffic.bytes": ("traffic", "bytes"),
    "nic.messages": ("nic", "messages"),
    "fabric.queued_time": ("fabric", "queued_time"),
}


class EngineProbe:
    """Accumulates host time and simulated counters of every engine job."""

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self._original = None

    def install(self) -> None:
        from repro.simmpi.engine import SpmdEngine

        original = SpmdEngine.run
        counters = self.counters

        def run(engine, program, *args, **kwargs):
            start = time.perf_counter()
            result = original(engine, program, *args, **kwargs)
            counters["host_s"] += time.perf_counter() - start
            counters["jobs"] += 1
            counters["events"] += result.events_processed
            metrics = result.metrics
            for name, (section, key) in _METRIC_PATHS.items():
                value = metrics.get(section, {}).get(key)
                if value is not None:
                    counters[name] += value
            return result

        self._original = original
        SpmdEngine.run = run

    def uninstall(self) -> None:
        if self._original is not None:
            from repro.simmpi.engine import SpmdEngine

            SpmdEngine.run = self._original
            self._original = None

    def snapshot(self) -> Counter:
        return Counter(self.counters)


class Spans:
    """In-memory span records: ``(id, parent, name, start_s, end_s)``."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self._origin = time.perf_counter()

    def open(self, name: str, parent: int | None) -> tuple[int, int | None, str, float]:
        span_id = len(self.records)
        self.records.append(None)  # reserved; filled by close()
        return (span_id, parent, name, time.perf_counter())

    def close(self, handle: tuple) -> float:
        span_id, parent, name, start = handle
        end = time.perf_counter()
        self.records[span_id] = (span_id, parent, name,
                                 start - self._origin, end - self._origin)
        return end - start

    def as_json(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": n, "start_s": round(s, 6), "end_s": round(e, 6)}
            for i, p, n, s, e in self.records
        ]
