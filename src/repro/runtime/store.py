"""On-disk JSON result store keyed by stable point-spec hashes.

Layout: ``<cache_dir>/<key[:2]>/<key>.json`` where ``key`` is the SHA-256
of the spec's canonical JSON form.  Each entry stores the full spec payload
next to the result, so cache directories are self-describing: every
entry says which point it times without re-simulating.

The store is defensive: a missing, truncated or otherwise corrupted entry
reads as a miss (the point is recomputed and rewritten), never as an error.
Writes are atomic (:func:`repro.utils.files.atomic_write_text`) so
concurrent sweeps sharing a cache directory cannot observe half-written
entries.

Entries are read as raw bytes and decoded as strict UTF-8 before the JSON
parse.  ``put`` writes plain UTF-8, so anything else is corruption: a
UTF-8 byte-order mark, UTF-16 text or invalid bytes read as a corrupt
entry (``json.loads`` on bytes alone would auto-detect UTF-16 and strip
the mark, and serve them).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.runtime.spec import PointSpec
from repro.utils.files import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - runtime must not import bench at module scope
    from repro.bench.datasets import TimedPoint

__all__ = ["ResultStore"]


class ResultStore:
    """JSON cache of :class:`TimedPoint` results keyed by spec hash.

    Corruption policy: a corrupt entry is a miss.  :meth:`get` counts it in
    :attr:`corrupt`, deletes the file and returns ``None``, and the sweep
    recomputes the point and rewrites it.  A cached result can always be
    recomputed from its spec, so no corrupt entry is worth an error.
    :class:`repro.ingest.TraceStore` raises instead, because an ingested
    trace cannot be recomputed.
    """

    def __init__(self, cache_dir: str | os.PathLike) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        #: Lookup accounting, cumulative over the store's lifetime: ``hits``
        #: served a valid entry, ``misses`` found no entry at all, and
        #: ``corrupt`` found an entry that failed to parse (which the
        #: defensive contract turns into a recompute, not an error).
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def path_for(self, spec: PointSpec) -> Path:
        return Path(self._entry_path(spec.key()))

    def _entry_path(self, key: str) -> str:
        # A string, not a Path: ``get`` runs once per cached point, and
        # os.path.join is cheaper than pathlib's joins.
        return os.path.join(self.cache_dir, key[:2], key + ".json")

    # -- read ----------------------------------------------------------------
    def get(self, spec: PointSpec) -> "TimedPoint | None":
        """Cached result for ``spec``, or ``None`` on a miss or a corrupt entry.

        A corrupt entry is unlinked at detection (best effort), not just
        counted: leaving it on disk would make every later lookup of the
        same point — including ``__contains__`` probes and sweeps that
        crash between the detection and the recompute's ``put`` — pay the
        parse-and-fail cost again, and would keep ``__len__`` counting a
        file that can never be served.
        """
        from repro.bench.datasets import TimedPoint  # deferred to break the import cycle

        path = self._entry_path(spec.key())
        try:
            with open(path, "rb", buffering=0) as handle:
                raw = handle.read()
            entry = json.loads(raw.decode("utf-8"))
            result = entry["result"]
            seconds = float(result["seconds"])
            phases = {str(name): float(value) for name, value in result["phases"].items()}
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError):
            self.corrupt += 1
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.hits += 1
        return TimedPoint(seconds=seconds, phases=phases)

    # -- write ---------------------------------------------------------------
    def put(self, spec: PointSpec, point: "TimedPoint") -> None:
        """Persist one result atomically."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": spec.key(),
            "spec": spec.payload(),
            "result": {"seconds": point.seconds, "phases": dict(point.phases)},
        }
        atomic_write_text(path, json.dumps(entry) + "\n")

    # -- introspection -------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Cumulative lookup counters (every ``get``, including probes)."""
        return {"hits": self.hits, "misses": self.misses, "corrupt": self.corrupt}

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("??/*.json"))

    def __contains__(self, spec: PointSpec) -> bool:
        return self.get(spec) is not None
