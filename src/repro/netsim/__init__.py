"""Discrete-event simulation core.

This package contains the generic machinery underneath the simulated MPI
layer: a time-ordered event simulator, serial resources used to model NIC
injection serialization, and inter-node fabric topologies with per-link
contention.  It knows
nothing about MPI semantics — those live in :mod:`repro.simmpi`.
"""

from repro.netsim.fabric import (
    DragonflyFabric,
    FabricSpec,
    FabricState,
    FatTreeFabric,
    FullBisectionFabric,
    fabric_from_payload,
    list_fabrics,
    parse_fabric,
)
from repro.netsim.resources import SerialResource, ThroughputTracker
from repro.netsim.simulator import Simulator

__all__ = [
    "SerialResource",
    "ThroughputTracker",
    "Simulator",
    "FabricSpec",
    "FabricState",
    "FullBisectionFabric",
    "FatTreeFabric",
    "DragonflyFabric",
    "fabric_from_payload",
    "list_fabrics",
    "parse_fabric",
]
