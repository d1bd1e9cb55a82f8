"""Content-addressed on-disk index of ingested phased workloads.

A :class:`TraceStore` is a directory of canonical-JSON workload files
named by their SHA-256 content hash, plus a human-readable ``index.json``
mapping optional names and summary statistics onto those hashes::

    .traces/
      index.json
      objects/
        3f9c…e2.json     # PhasedWorkload.canonical(), digest-named

The key of an entry is :meth:`repro.workloads.PhasedWorkload.digest` — a
pure function of the workload content.  Ingesting the same trace twice,
with its records shuffled, or from parallel workers, always lands on the
same key and the same bytes on disk (writes are atomic rename-into-place,
so concurrent ingestion of the same content is idempotent).  That purity
is pinned by the hypothesis suite in
``tests/properties/test_ingest_properties.py``.

Updating ``index.json`` is a read-modify-write, so :meth:`TraceStore.put`
holds an exclusive ``flock`` on ``<root>/.lock`` from reading the index,
through the name-conflict check, to writing it back: parallel ingests of
different traces are serialized there and never drop each other's entry.
"""

from __future__ import annotations

import fcntl
import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError
from repro.utils.files import atomic_write_text
from repro.workloads.phased import PhasedWorkload

__all__ = ["TraceStore", "StoreEntry"]

_INDEX_VERSION = 1


@dataclass(frozen=True)
class StoreEntry:
    """One indexed workload: its key plus the summary the index carries."""

    key: str
    name: str | None
    nprocs: int
    num_phases: int
    total_bytes: int

    def describe(self) -> str:
        label = self.name if self.name else self.key[:12]
        return (
            f"{label}: {self.nprocs} ranks, {self.num_phases} phase(s), "
            f"{self.total_bytes} B [{self.key[:12]}]"
        )


class TraceStore:
    """Directory-backed, content-keyed store of phased workloads.

    Corruption policy: a corrupt object file or index raises
    :class:`~repro.errors.ConfigurationError` naming the file.  An ingested
    trace cannot be recomputed from its key, so it is never deleted or
    read as absent.  :class:`repro.runtime.ResultStore` treats a corrupt
    entry as a miss instead, because a cached result can be recomputed.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.objects.mkdir(parents=True, exist_ok=True)

    # -- index ----------------------------------------------------------------
    @property
    def index_path(self) -> Path:
        return self.root / "index.json"

    def _load_index(self) -> dict:
        """The parsed index; its ``entries`` maps each key to a dict."""
        if not self.index_path.exists():
            return {"version": _INDEX_VERSION, "entries": {}}
        try:
            index = json.loads(self.index_path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigurationError(
                f"trace store index {self.index_path} is unreadable: {exc}"
            ) from exc
        if not isinstance(index, dict):
            raise ConfigurationError(
                f"trace store index {self.index_path} is malformed: expected a JSON "
                f"object, got {type(index).__name__}"
            )
        if index.get("version") != _INDEX_VERSION:
            raise ConfigurationError(
                f"trace store index {self.index_path} has unsupported version "
                f"{index.get('version')!r}"
            )
        entries = index.setdefault("entries", {})
        if not isinstance(entries, dict) or not all(
            isinstance(entry, dict) for entry in entries.values()
        ):
            raise ConfigurationError(
                f"trace store index {self.index_path} is malformed: "
                "'entries' must map keys to objects"
            )
        return index

    def _write_index(self, index: dict) -> None:
        atomic_write_text(
            self.index_path,
            json.dumps(index, sort_keys=True, indent=2) + "\n",
        )

    @contextmanager
    def _index_lock(self):
        """Hold the store's exclusive index lock (blocks other writers' updates)."""
        with open(self.root / ".lock", "a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # -- public API ------------------------------------------------------------
    def put(self, workload: PhasedWorkload, *, name: str | None = None) -> str:
        """Index ``workload``; returns its content-hash key.

        Re-putting identical content is a no-op beyond (re)binding
        ``name``; a name can only move to a *different* key explicitly —
        rebinding to different content raises so a store can never
        silently alias two traces under one label.
        """
        key = workload.digest()
        object_path = self.objects / f"{key}.json"
        if not object_path.exists():
            atomic_write_text(object_path, workload.canonical() + "\n")
        entry = {
            "name": name,
            "nprocs": workload.nprocs,
            "num_phases": workload.num_phases,
            "total_bytes": workload.total_bytes,
        }
        with self._index_lock():
            index = self._load_index()
            entries = index["entries"]
            if name is not None:
                for other_key, other in entries.items():
                    if other.get("name") == name and other_key != key:
                        raise ConfigurationError(
                            f"trace store already binds name {name!r} to "
                            f"{other_key[:12]}; refusing to alias it to {key[:12]}"
                        )
            previous = entries.get(key)
            if previous is not None and name is None:
                entry["name"] = previous.get("name")
            entries[key] = entry
            self._write_index(index)
        return key

    def get(self, key: str) -> PhasedWorkload:
        """Load the workload stored under the content-hash ``key``."""
        object_path = self.objects / f"{key}.json"
        if not object_path.exists():
            raise ConfigurationError(f"trace store has no entry {key!r}")
        try:
            workload = PhasedWorkload.from_payload(object_path.read_text(encoding="utf-8"))
        except (OSError, ValueError, TypeError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"trace store entry {object_path} is unreadable: {exc}"
            ) from exc
        if workload.digest() != key:
            raise ConfigurationError(
                f"trace store entry {object_path} is corrupt: content hashes to "
                f"{workload.digest()[:12]}"
            )
        return workload

    def resolve(self, name_or_key: str) -> str:
        """Turn a name or (abbreviated) key into a full content-hash key."""
        entries = self._load_index()["entries"]
        for key, entry in sorted(entries.items()):
            if entry.get("name") == name_or_key:
                return key
        matches = [k for k in sorted(entries) if k.startswith(name_or_key)]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise ConfigurationError(
                f"trace store key prefix {name_or_key!r} is ambiguous "
                f"({len(matches)} matches)"
            )
        raise ConfigurationError(
            f"trace store has no entry named or keyed {name_or_key!r}"
        )

    def load(self, name_or_key: str) -> PhasedWorkload:
        """``get(resolve(...))`` in one step."""
        return self.get(self.resolve(name_or_key))

    def entries(self) -> list[StoreEntry]:
        """All indexed workloads, sorted by key (deterministic listing)."""
        entries = self._load_index()["entries"]
        return [
            StoreEntry(
                key=key,
                name=entry.get("name"),
                nprocs=entry.get("nprocs", 0),
                num_phases=entry.get("num_phases", 0),
                total_bytes=entry.get("total_bytes", 0),
            )
            for key, entry in sorted(entries.items())
        ]

    def __contains__(self, key: str) -> bool:
        return (self.objects / f"{key}.json").exists()

    def __len__(self) -> int:
        return len(self._load_index()["entries"])
