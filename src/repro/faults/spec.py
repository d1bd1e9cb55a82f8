"""Fault-model dataclasses, the composed :class:`FaultSpec`, and its parser.

Every fault model is a frozen dataclass with a stable JSON ``payload()``,
so a :class:`FaultSpec` can participate in the runtime's cache identity
and round-trip through worker processes unchanged.

Parameter ranges are deliberately one-sided so that no fault can ever make
an operation *faster* than the healthy machine: degraded-link factors are
in ``(0, 1]`` (bandwidth only shrinks), straggler factors are ``>= 1``
(NIC occupancy only grows), OS noise is ``>= 0`` (operations are only
delayed) and flapping links only stall traffic (see docs/FAULTS.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ConfigurationError

__all__ = [
    "DegradedLink",
    "FaultSpec",
    "FlappingLink",
    "OsNoise",
    "StragglerNode",
    "faults_from_payload",
    "noise_stream_seed",
    "parse_faults",
]


def _finite(name: str, value: float) -> float:
    value = float(value)
    if value != value or value in (float("inf"), float("-inf")):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class DegradedLink:
    """A fabric link running at a fraction of its nominal bandwidth.

    ``link`` is an exact link name (``df-g0-1``) or an ``fnmatch`` glob
    (``df-g*``); patterns that match no link of the built fabric are inert,
    so one spec can be swept across a fabric ladder.  ``factor`` is the
    surviving bandwidth fraction in ``(0, 1]`` — the link's per-byte time
    is divided by it, i.e. ``factor=0.25`` quarters the bandwidth.
    """

    link: str = "*"
    factor: float = 0.5

    kind = "degraded-link"

    def __post_init__(self) -> None:
        factor = _finite("degraded-link factor", self.factor)
        if not 0.0 < factor <= 1.0:
            raise ConfigurationError(
                f"degraded-link factor must be in (0, 1], got {factor} "
                "(a degraded link can only lose bandwidth)"
            )
        if not self.link:
            raise ConfigurationError("degraded-link needs a link name or glob pattern")
        object.__setattr__(self, "factor", factor)

    def payload(self) -> dict:
        return {"kind": self.kind, "link": self.link, "factor": self.factor}

    def describe(self) -> str:
        return f"link {self.link} at {self.factor:g}x bandwidth"


@dataclass(frozen=True)
class FlappingLink:
    """A fabric link that is only usable during periodic on-windows.

    The link is up during the first ``duty`` fraction of every ``period``
    seconds (offset by ``phase``); a message whose transmission would begin
    in an off-window is stalled to the start of the next on-window.  Only
    the *start* must fall in a window — occupancy need not fit inside it —
    so arbitrarily large messages still make progress.  ``duty=1`` is a
    healthy link (kept representable so sweeps can include the endpoint).
    """

    link: str = "*"
    period: float = 1e-3
    duty: float = 0.5
    phase: float = 0.0

    kind = "flapping-link"

    def __post_init__(self) -> None:
        period = _finite("flapping-link period", self.period)
        duty = _finite("flapping-link duty", self.duty)
        phase = _finite("flapping-link phase", self.phase)
        if period <= 0.0:
            raise ConfigurationError(f"flapping-link period must be > 0, got {period}")
        if not 0.0 < duty <= 1.0:
            raise ConfigurationError(f"flapping-link duty must be in (0, 1], got {duty}")
        if not self.link:
            raise ConfigurationError("flapping-link needs a link name or glob pattern")
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "duty", duty)
        object.__setattr__(self, "phase", phase)

    def payload(self) -> dict:
        return {
            "kind": self.kind,
            "link": self.link,
            "period": self.period,
            "duty": self.duty,
            "phase": self.phase,
        }

    def describe(self) -> str:
        return (
            f"link {self.link} flapping (up {self.duty:g} of every "
            f"{self.period:g}s, phase {self.phase:g}s)"
        )


@dataclass(frozen=True)
class StragglerNode:
    """A node whose NIC serialises messages ``factor`` times slower.

    Scales the NIC occupancy (message overhead plus injection time) of
    every message *leaving* the node.  ``factor >= 1`` — a straggler can
    only be slower than the healthy machine.
    """

    node: int = 0
    factor: float = 2.0

    kind = "straggler"

    def __post_init__(self) -> None:
        if not isinstance(self.node, int) or isinstance(self.node, bool) or self.node < 0:
            raise ConfigurationError(f"straggler node must be a non-negative int, got {self.node!r}")
        factor = _finite("straggler factor", self.factor)
        if factor < 1.0:
            raise ConfigurationError(
                f"straggler factor must be >= 1, got {factor} "
                "(a straggler can only be slower)"
            )
        object.__setattr__(self, "factor", factor)

    def payload(self) -> dict:
        return {"kind": self.kind, "node": self.node, "factor": self.factor}

    def describe(self) -> str:
        return f"node {self.node} straggling at {self.factor:g}x NIC occupancy"


@dataclass(frozen=True)
class OsNoise:
    """Per-operation OS-noise jitter drawn from per-rank seeded streams.

    Every send/recv posting pays an extra uniform ``[0, amplitude)``
    seconds, drawn from a stream seeded by ``(FaultSpec.seed, rank)`` —
    a pure function of the spec and the rank's operation order, identical
    at any ``--jobs``.
    """

    amplitude: float = 1e-6

    kind = "os-noise"

    def __post_init__(self) -> None:
        amplitude = _finite("os-noise amplitude", self.amplitude)
        if amplitude < 0.0:
            raise ConfigurationError(f"os-noise amplitude must be >= 0, got {amplitude}")
        object.__setattr__(self, "amplitude", amplitude)

    def payload(self) -> dict:
        return {"kind": self.kind, "amplitude": self.amplitude}

    def describe(self) -> str:
        return f"OS noise up to {self.amplitude:g}s per operation"


_FAULT_TYPES = {
    DegradedLink.kind: DegradedLink,
    FlappingLink.kind: FlappingLink,
    StragglerNode.kind: StragglerNode,
    OsNoise.kind: OsNoise,
}

FaultModel = DegradedLink | FlappingLink | StragglerNode | OsNoise


@dataclass(frozen=True)
class FaultSpec:
    """An immutable composition of fault models plus the noise seed.

    Falsy when it contains no faults — every consumer treats an empty spec
    exactly like ``None`` (the bit-identical healthy machine), and the
    runtime's :meth:`repro.runtime.PointSpec.payload` omits it entirely so
    pre-existing cache keys keep hitting.
    """

    faults: tuple[FaultModel, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        faults = tuple(self.faults)
        for fault in faults:
            if not isinstance(fault, (DegradedLink, FlappingLink, StragglerNode, OsNoise)):
                raise ConfigurationError(f"unknown fault model: {fault!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(f"fault seed must be an int, got {self.seed!r}")
        object.__setattr__(self, "faults", faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    # -- composition views ---------------------------------------------------
    def link_faults(self) -> tuple[FaultModel, ...]:
        return tuple(f for f in self.faults if isinstance(f, (DegradedLink, FlappingLink)))

    def stragglers(self) -> tuple[StragglerNode, ...]:
        return tuple(f for f in self.faults if isinstance(f, StragglerNode))

    def noise_amplitude(self) -> float:
        """Total per-operation jitter amplitude (OsNoise models compose additively)."""
        return sum(f.amplitude for f in self.faults if isinstance(f, OsNoise))

    # -- serialisation -------------------------------------------------------
    def payload(self) -> dict:
        return {"seed": self.seed, "faults": [f.payload() for f in self.faults]}

    def describe(self) -> str:
        if not self.faults:
            return "no faults"
        return "; ".join(f.describe() for f in self.faults) + f" [seed {self.seed}]"


def faults_from_payload(payload: Mapping | None) -> FaultSpec | None:
    """Rebuild a :class:`FaultSpec` from its ``payload()`` dict (``None`` passes through)."""
    if payload is None:
        return None
    try:
        entries = payload["faults"]
        seed = int(payload.get("seed", 0))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed fault payload: {payload!r}") from exc
    faults = []
    for entry in entries:
        kind = entry.get("kind") if isinstance(entry, Mapping) else None
        cls = _FAULT_TYPES.get(kind)
        if cls is None:
            raise ConfigurationError(f"unknown fault kind in payload: {kind!r}")
        fields = {k: v for k, v in entry.items() if k != "kind"}
        try:
            faults.append(cls(**fields))
        except TypeError as exc:
            raise ConfigurationError(f"malformed {kind} payload: {entry!r}") from exc
    return FaultSpec(faults=tuple(faults), seed=seed)


def noise_stream_seed(seed: int, rank: int) -> int:
    """Seed of rank ``rank``'s OS-noise stream — a pure function of (spec seed, rank)."""
    digest = hashlib.sha256(f"{seed}:os-noise:{rank}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big")


# -- the ``--faults`` grammar -------------------------------------------------
#
# Clauses separated by ';', each ``kind:option,option,...`` where options are
# ``name=value`` pairs or bare positional values, mirroring ``parse_fabric``:
#
#   degraded-link:df-g0-1,0.25;straggler:0,2;os-noise:1e-6;seed:42
#   flap:link=df-g*,period=1e-3,duty=0.5
#
_CLAUSE_ALIASES = {
    "degraded-link": "degraded-link",
    "degraded": "degraded-link",
    "degrade": "degraded-link",
    "flapping-link": "flapping-link",
    "flapping": "flapping-link",
    "flap": "flapping-link",
    "straggler": "straggler",
    "straggler-node": "straggler",
    "os-noise": "os-noise",
    "noise": "os-noise",
    "seed": "seed",
}

# field order for bare positional values, and the coercion per field
_POSITIONAL_FIELDS = {
    "degraded-link": ("link", "factor"),
    "flapping-link": ("link", "period", "duty", "phase"),
    "straggler": ("node", "factor"),
    "os-noise": ("amplitude",),
}

_FIELD_TYPES = {
    "degraded-link": {"link": str, "factor": float},
    "flapping-link": {"link": str, "period": float, "duty": float, "phase": float},
    "straggler": {"node": int, "factor": float},
    "os-noise": {"amplitude": float},
}


def _coerce(kind: str, name: str, raw: str):
    types = _FIELD_TYPES[kind]
    if name not in types:
        known = ", ".join(sorted(types))
        raise ConfigurationError(f"unknown {kind} option {name!r} (known: {known})")
    caster = types[name]
    if caster is str:
        return raw
    try:
        if caster is int:
            return int(raw, 0)
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{kind} option {name!r} needs a number, got {raw!r}") from exc


def _parse_clause(clause: str):
    kind_text, _, option_text = clause.partition(":")
    kind_text = kind_text.strip().lower()
    kind = _CLAUSE_ALIASES.get(kind_text)
    if kind is None:
        known = ", ".join(sorted(set(_CLAUSE_ALIASES.values())))
        raise ConfigurationError(f"unknown fault kind {kind_text!r} (known: {known})")
    if kind == "seed":
        raw = option_text.strip() or kind_text.partition("=")[2]
        try:
            return "seed", int(raw, 0)
        except ValueError as exc:
            raise ConfigurationError(f"fault seed needs an integer, got {raw!r}") from exc
    options: dict[str, object] = {}
    positional = list(_POSITIONAL_FIELDS[kind])
    for chunk in option_text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" in chunk:
            name, _, raw = chunk.partition("=")
            name = name.strip().lower()
            options[name] = _coerce(kind, name, raw.strip())
            if name in positional:
                positional.remove(name)
        else:
            if not positional:
                raise ConfigurationError(f"too many positional values in {clause!r}")
            name = positional.pop(0)
            options[name] = _coerce(kind, name, chunk)
    try:
        return "fault", _FAULT_TYPES[kind](**options)
    except TypeError as exc:
        raise ConfigurationError(f"malformed fault clause {clause!r}: {exc}") from exc


def parse_faults(text: str) -> FaultSpec:
    """Parse a ``--faults`` specification string into a :class:`FaultSpec`.

    Grammar: ``;``-separated clauses, each ``kind:opt,opt,...`` with bare
    positional values or ``name=value`` pairs; a ``seed:N`` clause sets the
    noise seed.  An empty string is the empty (healthy) spec.
    """
    faults: list[FaultModel] = []
    seed = 0
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        tag, value = _parse_clause(clause)
        if tag == "seed":
            seed = value
        else:
            faults.append(value)
    return FaultSpec(faults=tuple(faults), seed=seed)
