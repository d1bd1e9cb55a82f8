"""Application of a :class:`~repro.faults.FaultSpec` to simulation state.

This module is the single place that knows how abstract fault models map
onto the concrete machinery: link faults mutate the built
:class:`~repro.netsim.fabric.FabricState` (scaled ``byte_time``, installed
flap windows), stragglers become a per-node NIC occupancy scale vector,
and OS noise becomes per-rank seeded :class:`random.Random` streams.

All of it runs once at job construction — the hot paths only ever see the
result (a mutated link, a ``list[float] | None``, a stream object), kept
behind single ``is not None`` tests so the healthy machine stays
bit-identical and pays one pointer test per site.
"""

from __future__ import annotations

import random
from fnmatch import fnmatchcase
from typing import TYPE_CHECKING

from repro.faults.spec import (
    DegradedLink,
    FaultSpec,
    FlappingLink,
    noise_stream_seed,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.fabric import FabricState
    from repro.obs.sink import EventSink

__all__ = ["OsNoiseState", "announce_faults", "apply_link_faults", "nic_scale_vector"]


def apply_link_faults(state: "FabricState", spec: FaultSpec) -> int:
    """Mutate the built fabric's links per ``spec``; returns the match count.

    Degradation divides ``byte_time`` by the surviving-bandwidth factor
    (stacking multiplicatively if several clauses match one link); flapping
    installs a ``(period, on_window, phase)`` tuple on the link's ``flap``
    slot for :meth:`FabricState.traverse` to honour.  Patterns matching no
    link are inert by design — one spec can be swept across a fabric
    ladder (or a full-bisection machine with no fabric at all).
    """
    matched = 0
    for fault in spec.link_faults():
        for link in state.links:
            if not fnmatchcase(link.name, fault.link):
                continue
            matched += 1
            if isinstance(fault, DegradedLink):
                link.byte_time = link.byte_time / fault.factor
            elif isinstance(fault, FlappingLink) and fault.duty < 1.0:
                link.flap = (fault.period, fault.period * fault.duty, fault.phase)
    return matched


def nic_scale_vector(spec: FaultSpec, num_nodes: int) -> "list[float] | None":
    """Per-node NIC occupancy multipliers, or ``None`` when no straggler applies.

    Stragglers naming nodes outside the simulated machine are inert (the
    same spec can be swept across node counts); several stragglers on one
    node stack multiplicatively.
    """
    scale: list[float] | None = None
    for fault in spec.stragglers():
        if fault.node >= num_nodes:
            continue
        if scale is None:
            scale = [1.0] * num_nodes
        scale[fault.node] *= fault.factor
    return scale


class OsNoiseState:
    """Per-rank seeded jitter streams for the OS-noise fault model.

    ``draw(rank)`` returns the next uniform ``[0, amplitude)`` delay of
    that rank's stream.  Each stream is seeded by
    :func:`~repro.faults.spec.noise_stream_seed`, so the sequence is a
    pure function of ``(FaultSpec.seed, rank, draw index)`` — and because
    each rank's operations post in program order, the same faulted run is
    bit-identical at any ``--jobs``.
    """

    __slots__ = ("amplitude", "seed", "_streams")

    def __init__(self, amplitude: float, seed: int) -> None:
        self.amplitude = amplitude
        self.seed = seed
        self._streams: dict[int, random.Random] = {}

    def draw(self, rank: int) -> float:
        stream = self._streams.get(rank)
        if stream is None:
            stream = self._streams[rank] = random.Random(noise_stream_seed(self.seed, rank))
        return stream.random() * self.amplitude


def announce_faults(sink: "EventSink", spec: FaultSpec) -> None:
    """Emit one ``fault`` event per active fault model at t=0.

    Gives traces (and the Chrome export's ``faults`` track) a manifest of
    the injected degradations next to the behaviour they cause.
    """
    for fault in spec.faults:
        target = getattr(fault, "link", None)
        if target is None:
            node = getattr(fault, "node", None)
            target = f"node{node}" if node is not None else "all-ranks"
        sink.fault(fault.kind, str(target), 0.0, 0.0, fault.describe())
