"""Locality levels of the communication hierarchy.

The paper distinguishes intra-NUMA, inter-NUMA (same socket), inter-socket
(same node) and inter-node communication.  :class:`LocalityLevel` encodes
these levels as an ordered enum: a *smaller* value means the two endpoints
are *closer* together, so levels can be compared directly
(``level <= LocalityLevel.NODE`` means "on the same node").
"""

from __future__ import annotations

import enum

__all__ = [
    "LocalityLevel",
    "finest_level",
    "coarsest_level",
    "INTRA_NODE_LEVELS",
    "LEVEL_OF_CODE",
]


class LocalityLevel(enum.IntEnum):
    """Distance class between two processes, from closest to farthest."""

    #: The same process (used for self-messages, which cost only a local copy).
    SELF = 0
    #: Different processes within the same NUMA domain.
    NUMA = 1
    #: Same socket, different NUMA domains.
    SOCKET = 2
    #: Same node, different sockets.
    NODE = 3
    #: Different nodes, traversing the interconnect (and both NICs).
    NETWORK = 4

    @property
    def is_intra_node(self) -> bool:
        """True when communication at this level stays inside one node."""
        return self <= LocalityLevel.NODE

    @property
    def is_inter_node(self) -> bool:
        """True when communication at this level crosses the network."""
        return self == LocalityLevel.NETWORK

    def describe(self) -> str:
        """Human-readable description used in traces and reports."""
        return _DESCRIPTIONS[self]


_DESCRIPTIONS = {
    LocalityLevel.SELF: "same process",
    LocalityLevel.NUMA: "same NUMA domain",
    LocalityLevel.SOCKET: "same socket, different NUMA domain",
    LocalityLevel.NODE: "same node, different socket",
    LocalityLevel.NETWORK: "different nodes",
}

#: Levels whose traffic never touches the NIC.
INTRA_NODE_LEVELS = (
    LocalityLevel.SELF,
    LocalityLevel.NUMA,
    LocalityLevel.SOCKET,
    LocalityLevel.NODE,
)


#: Level by integer code: the values run 0..4 in order, so a code read from a
#: locality table (:attr:`repro.machine.NodeArchitecture.level_table`)
#: indexes this tuple directly.
LEVEL_OF_CODE = tuple(LocalityLevel)


def finest_level() -> LocalityLevel:
    """The closest possible distance between two distinct processes."""
    return LocalityLevel.NUMA


def coarsest_level() -> LocalityLevel:
    """The farthest possible distance between two processes."""
    return LocalityLevel.NETWORK
