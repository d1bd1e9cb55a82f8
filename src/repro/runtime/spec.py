"""Picklable, hashable benchmark point specifications.

A :class:`PointSpec` captures everything needed to reproduce one benchmark
point — the cluster (name and full cost parameters, so ablation overrides
are part of the identity), the placement (ppn, node count), the engine, the
algorithm with its options, and either a uniform per-destination message
size or a workload trace (the dense JSON form of a
:class:`~repro.workloads.TrafficMatrix`).

Specs serialize to a canonical JSON form; the SHA-256 of that form is the
cache key of the on-disk :class:`~repro.runtime.store.ResultStore`.  Two
specs are equal exactly when their canonical forms are equal, so any change
to the cluster parameters, the algorithm options or the traffic invalidates
the cached result.

The canonical form is ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))`` of :meth:`PointSpec.payload`, but it is assembled
from two parts: the spec's own fields, serialized per spec, and the
cluster's canonical JSON, serialized once per :class:`Cluster` object and
memoised on it.  The cluster is most of the bytes and a sweep's specs
share one cluster, so this serializes it once per sweep instead of once
per point.  The cluster's JSON is spliced in where ``"cluster"`` sorts,
directly after ``"algorithm"``, so the result is byte-identical to
dumping the whole payload.  The memo relies on ``Cluster`` being
immutable, the same assumption ``PointSpec``'s own memo and
:attr:`NodeArchitecture.level_table` make: a copy with other parameters
(``with_params``, ``dataclasses.replace``) is a new object with no memo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as _dataclass_fields
from hashlib import sha256
from typing import Any

from repro.errors import ConfigurationError
from repro.machine.cluster import Cluster
from repro.machine.folding import FOLD_MODES
from repro.machine.hierarchy import LocalityLevel
from repro.machine.params import LevelCosts, MachineParameters
from repro.machine.topology import NodeArchitecture
from repro.netsim.fabric import FullBisectionFabric, fabric_from_payload

__all__ = ["PointSpec", "cluster_payload", "cluster_from_payload"]

#: Bumped whenever the canonical payload layout changes, so stale cache
#: entries from older layouts miss instead of being misinterpreted.
SPEC_VERSION = 1

_ENGINES = ("simulate", "model")


def _params_payload(params: MachineParameters) -> dict:
    payload: dict[str, Any] = {
        "levels": {
            level.name: [params.levels[level].latency, params.levels[level].bandwidth]
            for level in LocalityLevel
        }
    }
    for spec_field in _dataclass_fields(params):
        if spec_field.name != "levels":
            payload[spec_field.name] = getattr(params, spec_field.name)
    return payload


def cluster_payload(cluster: Cluster) -> dict:
    """Serialize a :class:`Cluster` to a plain-JSON dictionary.

    The fabric is serialized only when it is not the full-bisection
    default: a missing ``"fabric"`` key means full bisection, which keeps
    every pre-fabric cache key and golden-corpus digest bit-identical while
    still making any non-trivial topology part of a point's identity.
    """
    payload = {
        "name": cluster.name,
        "num_nodes": cluster.num_nodes,
        "node": {
            "name": cluster.node.name,
            "sockets": cluster.node.sockets,
            "numa_per_socket": cluster.node.numa_per_socket,
            "cores_per_numa": cluster.node.cores_per_numa,
        },
        "params": _params_payload(cluster.params),
        "network_name": cluster.network_name,
        "system_mpi_name": cluster.system_mpi_name,
    }
    if not isinstance(cluster.fabric, FullBisectionFabric):
        payload["fabric"] = cluster.fabric.payload()
    return payload


def _cluster_json(cluster: Cluster) -> str:
    """Canonical JSON of :func:`cluster_payload`, memoised on the frozen cluster."""
    cached = cluster.__dict__.get("_canonical_json")
    if cached is None:
        cached = json.dumps(cluster_payload(cluster), sort_keys=True, separators=(",", ":"))
        object.__setattr__(cluster, "_canonical_json", cached)
    return cached


def _message_size(value: Any) -> int:
    """``value`` as a positive int of bytes; anything else raises.

    Integers (``__index__``) and whole-valued floats convert; booleans,
    fractional, non-finite and non-positive sizes are configuration errors
    rather than being truncated into a different point.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise ConfigurationError(f"msg_bytes must be a whole number of bytes, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"msg_bytes must be positive, got {value!r}")
    return int(value)


def cluster_from_payload(payload: dict) -> Cluster:
    """Rebuild a :class:`Cluster` from :func:`cluster_payload` output."""
    params_payload = dict(payload["params"])
    levels = {
        LocalityLevel[name]: LevelCosts(latency=pair[0], bandwidth=pair[1])
        for name, pair in params_payload.pop("levels").items()
    }
    return Cluster(
        name=payload["name"],
        node=NodeArchitecture(**payload["node"]),
        num_nodes=payload["num_nodes"],
        params=MachineParameters(levels=levels, **params_payload),
        network_name=payload["network_name"],
        system_mpi_name=payload["system_mpi_name"],
        fabric=fabric_from_payload(payload.get("fabric")),
    )


@dataclass(frozen=True, eq=False)
class PointSpec:
    """One benchmark point as a self-contained, picklable value.

    Exactly one of ``msg_bytes`` (uniform all-to-all) and ``trace``
    (non-uniform workload, as a dense JSON trace string) is set.
    """

    cluster: Cluster
    ppn: int
    num_nodes: int
    engine: str
    algorithm: str
    repetitions: int = 1
    options: tuple[tuple[str, Any], ...] = ()
    msg_bytes: int | None = None
    trace: str | None = None
    #: Canonical JSON of a phased run plan (jobs, workloads, per-phase
    #: algorithm assignments) — see :meth:`for_phased`.  ``None`` for every
    #: uniform / workload spec; serialized into the payload only when
    #: present, so all pre-phases cache keys are bit-identical.
    phases: str | None = None
    #: Symmetry-folding mode for the simulate engine ("off", "auto", "on").
    #: Ignored by the model engine, which is scale-free already.
    fold: str = "off"
    #: Optional :class:`repro.faults.FaultSpec` injected into the simulate
    #: engine.  Part of the cache identity when non-empty (a faulted point
    #: is a different result); empty specs normalise to ``None`` and are
    #: omitted from the payload, so pre-faults cache keys keep hitting.
    faults: Any = None

    def __post_init__(self) -> None:
        if self.engine not in _ENGINES:
            raise ConfigurationError(f"unknown engine {self.engine!r}; choose from {_ENGINES}")
        if self.fold not in FOLD_MODES:
            raise ConfigurationError(
                f"unknown fold mode {self.fold!r}; choose from {FOLD_MODES}"
            )
        if self.phases is not None:
            if self.msg_bytes is not None or self.trace is not None:
                raise ConfigurationError(
                    "a phased PointSpec cannot also carry msg_bytes or trace"
                )
            if self.engine != "simulate":
                raise ConfigurationError(
                    "phased specs require the simulate engine "
                    f"(got engine={self.engine!r}): interference between "
                    "phases and jobs is not analytically modelled"
                )
            if self.fold != "off":
                raise ConfigurationError(
                    "phased specs are incompatible with symmetry folding "
                    f"(fold={self.fold!r})"
                )
        elif (self.msg_bytes is None) == (self.trace is None):
            raise ConfigurationError("a PointSpec needs exactly one of msg_bytes and trace")
        elif self.msg_bytes is not None:
            object.__setattr__(self, "msg_bytes", _message_size(self.msg_bytes))
        if self.ppn <= 0 or self.num_nodes <= 0:
            raise ConfigurationError("ppn and num_nodes must be positive")
        if self.repetitions <= 0:
            raise ConfigurationError("repetitions must be positive")
        if self.faults is not None:
            from repro.faults.spec import FaultSpec

            if not isinstance(self.faults, FaultSpec):
                raise ConfigurationError(
                    f"faults must be a FaultSpec or None, got {type(self.faults).__name__}"
                )
            if not self.faults:
                # An empty spec is the healthy machine: normalise to None so
                # equality, hashing and the cache key cannot distinguish them.
                object.__setattr__(self, "faults", None)
            elif self.engine != "simulate":
                raise ConfigurationError(
                    "fault injection requires the simulate engine "
                    f"(got engine={self.engine!r})"
                )
            elif self.fold != "off":
                raise ConfigurationError(
                    "fault injection is incompatible with symmetry folding "
                    f"(fold={self.fold!r})"
                )
        if self.num_nodes > self.cluster.num_nodes:
            raise ConfigurationError(
                f"spec requests {self.num_nodes} nodes but the cluster has "
                f"{self.cluster.num_nodes}"
            )

    # -- construction -------------------------------------------------------
    @classmethod
    def for_alltoall(cls, cluster: Cluster, ppn: int, num_nodes: int, algorithm: str,
                     msg_bytes: int, *, engine: str = "model", repetitions: int = 1,
                     fold: str = "off", faults=None,
                     **options: Any) -> "PointSpec":
        """Spec for one uniform all-to-all point."""
        return cls(cluster=cluster, ppn=ppn, num_nodes=num_nodes, engine=engine,
                   algorithm=algorithm, repetitions=repetitions,
                   options=tuple(sorted(options.items())), msg_bytes=msg_bytes,
                   fold=fold, faults=faults)

    @classmethod
    def for_workload(cls, cluster: Cluster, ppn: int, num_nodes: int, algorithm: str,
                     matrix, *, engine: str = "model", repetitions: int = 1,
                     fold: str = "off", faults=None,
                     **options: Any) -> "PointSpec":
        """Spec for one non-uniform workload point (the matrix is embedded as a trace)."""
        trace = json.dumps(
            {"pattern": matrix.pattern, "nprocs": matrix.nprocs, "bytes": matrix.bytes.tolist()},
            sort_keys=True, separators=(",", ":"),
        )
        return cls(cluster=cluster, ppn=ppn, num_nodes=num_nodes, engine=engine,
                   algorithm=algorithm, repetitions=repetitions,
                   options=tuple(sorted(options.items())), trace=trace, fold=fold,
                   faults=faults)

    @classmethod
    def for_phased(cls, cluster: Cluster, ppn: int, jobs, *, repetitions: int = 1,
                   faults=None) -> "PointSpec":
        """Spec for one phased run (one or more jobs sharing the machine).

        ``jobs`` is a sequence of :class:`repro.core.runner.PhasedJob`
        descriptors.  The whole plan — every job's node count, workload
        content and per-phase algorithm assignment — is embedded as
        canonical JSON in the ``phases`` field, so the cache key is a pure
        function of everything that determines the simulated timeline.
        The engine is always ``"simulate"``.
        """
        jobs = list(jobs)
        if not jobs:
            raise ConfigurationError("a phased spec needs at least one job")
        payload = {
            "jobs": [
                {
                    "nodes": job.num_nodes,
                    "workload": job.workload.payload(),
                    "algorithms": [
                        [name, [[k, v] for k, v in options]]
                        for name, options in job.algorithms
                    ],
                }
                for job in jobs
            ]
        }
        phases = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        num_nodes = sum(job.num_nodes for job in jobs)
        return cls(cluster=cluster, ppn=ppn, num_nodes=num_nodes,
                   engine="simulate", algorithm="phased",
                   repetitions=repetitions, phases=phases, faults=faults)

    # -- execution helpers ---------------------------------------------------
    def phased_jobs(self):
        """Rebuild the :class:`repro.core.runner.PhasedJob` list of a phased spec."""
        if self.phases is None:
            raise ConfigurationError("not a phased spec: no phases attached")
        from repro.core.runner import PhasedJob  # deferred: core is heavier
        from repro.workloads.phased import PhasedWorkload

        decoded = json.loads(self.phases)
        jobs = []
        for entry in decoded["jobs"]:
            jobs.append(
                PhasedJob(
                    workload=PhasedWorkload.from_payload(entry["workload"]),
                    algorithms=tuple(
                        (name, tuple((k, v) for k, v in options))
                        for name, options in entry["algorithms"]
                    ),
                    num_nodes=entry["nodes"],
                )
            )
        return jobs

    def matrix(self):
        """Rebuild the :class:`~repro.workloads.TrafficMatrix` of a workload spec."""
        if self.trace is None:
            raise ConfigurationError("not a workload spec: no trace attached")
        from repro.workloads.traceio import load_trace  # deferred: workloads is heavier

        return load_trace(json.loads(self.trace))

    # -- identity ------------------------------------------------------------
    def payload(self) -> dict:
        """Plain-JSON description of the spec (what the cache stores alongside results).

        ``fold`` is serialized only when it is not ``"off"``: a missing key
        means unfolded, which keeps every pre-folding cache key
        bit-identical (the same pattern the fabric key uses) while making a
        folded run part of a point's identity.  ``faults`` follows the same
        pattern: serialized only when present (empty specs were already
        normalised to ``None``), so pre-faults cache keys keep hitting
        while a faulted point gets its own identity.  ``phases`` follows it
        too: only phased specs carry the key, so every pre-phases cache key
        and golden digest is bit-identical.
        """
        return {"version": SPEC_VERSION, "cluster": cluster_payload(self.cluster),
                **self._fields()}

    def _fields(self) -> dict:
        """The payload without ``version`` and ``cluster``, in payload order."""
        fields = {
            "ppn": self.ppn,
            "num_nodes": self.num_nodes,
            "engine": self.engine,
            "algorithm": self.algorithm,
            "repetitions": self.repetitions,
            "options": [[k, v] for k, v in self.options],
            "msg_bytes": self.msg_bytes,
            "trace": self.trace,
        }
        if self.fold != "off":
            fields["fold"] = self.fold
        if self.faults is not None:
            fields["faults"] = self.faults.payload()
        if self.phases is not None:
            fields["phases"] = self.phases
        return fields

    def canonical(self) -> str:
        """Canonical JSON form; the sole basis of equality, hashing and cache keys.

        Equal to ``json.dumps(self.payload(), sort_keys=True,
        separators=(",", ":"))``, assembled without re-serializing the
        cluster: the payload is dumped with those settings and a
        placeholder cluster, and the cluster's memoised canonical JSON
        replaces the placeholder.  ``"cluster"`` sorts second, directly
        after ``"algorithm"``.

        Memoized: workload specs embed the whole traffic matrix, and one
        executor batch consults the key several times per spec (store
        lookup, dedupe, fan-out), so serializing once matters.
        """
        cached = self.__dict__.get("_canonical")
        if cached is None:
            fields = self._fields()
            fields["version"] = SPEC_VERSION
            fields["cluster"] = 0
            try:
                cached = json.dumps(fields, sort_keys=True, separators=(",", ":"))
                cluster = _cluster_json(self.cluster)
            except (TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"point spec is not serializable (non-JSON option value?): {exc}"
                ) from exc
            # Only the algorithm's name precedes the placeholder, and a JSON
            # string escapes its quotes, so the first match is the key itself.
            cached = cached.replace('"cluster":0', '"cluster":' + cluster, 1)
            object.__setattr__(self, "_canonical", cached)
        return cached

    def key(self) -> str:
        """Stable hex digest used as the on-disk cache key."""
        cached = self.__dict__.get("_key")
        if cached is None:
            cached = sha256(self.canonical().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_key", cached)
        return cached

    def describe(self) -> str:
        opts = ", ".join(f"{k}={v}" for k, v in self.options)
        if self.phases is not None:
            jobs = self.phased_jobs()
            phases = sum(job.workload.num_phases for job in jobs)
            what = f"{len(jobs)} job(s), {phases} phase(s)"
        elif self.msg_bytes is not None:
            what = f"{self.msg_bytes} B"
        else:
            what = "trace"
        algo = f"{self.algorithm}({opts})" if opts else self.algorithm
        folded = "" if self.fold == "off" else f", fold={self.fold}"
        faulted = "" if self.faults is None else ", faulted"
        return (
            f"{algo} @ {what} on {self.cluster.name} "
            f"({self.num_nodes} nodes x {self.ppn} ppn, engine={self.engine}{folded}{faulted})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSpec):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())
