"""Intra-node topology: cores grouped into NUMA domains and sockets.

A :class:`NodeArchitecture` captures the only facts about a node that the
algorithms and the cost model need: how many cores it has and how those
cores are grouped, so that the locality level between any two cores can be
derived.  Cores are numbered ``0 .. cores_per_node-1`` contiguously by NUMA
domain, then by socket, which mirrors the sequential (``--map-by core``)
rank placement the paper uses.

The level between every pair of cores is tabulated once per node shape
(:attr:`NodeArchitecture.level_table`); single-pair queries and the bulk
queries of :meth:`repro.machine.ProcessMap.locality_codes` both read it, so
the NUMA/socket rule exists in one place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import TopologyError
from repro.machine.hierarchy import LEVEL_OF_CODE, LocalityLevel

__all__ = ["NodeArchitecture"]


@lru_cache(maxsize=64)
def _level_table(sockets: int, numa_per_socket: int, cores_per_numa: int) -> np.ndarray:
    """Read-only ``cores x cores`` int8 table of ``LocalityLevel`` codes."""
    core = np.arange(sockets * numa_per_socket * cores_per_numa)
    numa = core // cores_per_numa
    socket = core // (numa_per_socket * cores_per_numa)
    table = np.full((core.size, core.size), LocalityLevel.NODE, dtype=np.int8)
    table[socket[:, None] == socket[None, :]] = LocalityLevel.SOCKET
    table[numa[:, None] == numa[None, :]] = LocalityLevel.NUMA
    np.fill_diagonal(table, LocalityLevel.SELF)
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class NodeArchitecture:
    """Shape of a single compute node.

    Parameters
    ----------
    name:
        Short identifier used in reports (e.g. ``"sapphire-rapids"``).
    sockets:
        Number of CPU sockets in the node.
    numa_per_socket:
        Number of NUMA domains within each socket.
    cores_per_numa:
        Number of cores within each NUMA domain.
    """

    name: str
    sockets: int
    numa_per_socket: int
    cores_per_numa: int

    def __post_init__(self) -> None:
        if self.sockets <= 0:
            raise TopologyError(f"sockets must be positive, got {self.sockets}")
        if self.numa_per_socket <= 0:
            raise TopologyError(f"numa_per_socket must be positive, got {self.numa_per_socket}")
        if self.cores_per_numa <= 0:
            raise TopologyError(f"cores_per_numa must be positive, got {self.cores_per_numa}")

    # -- derived sizes -------------------------------------------------
    @property
    def numa_domains(self) -> int:
        """Total NUMA domains in the node."""
        return self.sockets * self.numa_per_socket

    @property
    def cores_per_socket(self) -> int:
        return self.numa_per_socket * self.cores_per_numa

    @property
    def cores_per_node(self) -> int:
        return self.sockets * self.cores_per_socket

    # -- core placement -------------------------------------------------
    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.cores_per_node:
            raise TopologyError(
                f"core {core} out of range for node with {self.cores_per_node} cores"
            )

    def socket_of_core(self, core: int) -> int:
        """Socket index (0-based) hosting ``core``."""
        self._check_core(core)
        return core // self.cores_per_socket

    def numa_of_core(self, core: int) -> int:
        """Node-wide NUMA domain index (0-based) hosting ``core``."""
        self._check_core(core)
        return core // self.cores_per_numa

    @property
    def level_table(self) -> np.ndarray:
        """``LocalityLevel`` codes of every core pair (read-only int8 array).

        ``level_table[a, b] == core_locality(a, b)``.  Built once per node
        shape and shared by every architecture of that shape; it is not a
        dataclass field, so equality, hashing and serialized payloads are
        unaffected.
        """
        return _level_table(self.sockets, self.numa_per_socket, self.cores_per_numa)

    def core_locality(self, core_a: int, core_b: int) -> LocalityLevel:
        """Locality level between two cores of the same node."""
        self._check_core(core_a)
        self._check_core(core_b)
        return LEVEL_OF_CODE[self.level_table[core_a, core_b]]

    def cores_in_numa(self, numa: int) -> range:
        """Range of core indices belonging to node-wide NUMA domain ``numa``."""
        if not 0 <= numa < self.numa_domains:
            raise TopologyError(f"NUMA domain {numa} out of range (node has {self.numa_domains})")
        start = numa * self.cores_per_numa
        return range(start, start + self.cores_per_numa)

    def cores_in_socket(self, socket: int) -> range:
        """Range of core indices belonging to ``socket``."""
        if not 0 <= socket < self.sockets:
            raise TopologyError(f"socket {socket} out of range (node has {self.sockets})")
        start = socket * self.cores_per_socket
        return range(start, start + self.cores_per_socket)

    def describe(self) -> str:
        """One-line human readable summary (used for Table 1 reporting)."""
        return (
            f"{self.name}: {self.cores_per_node} cores/node = "
            f"{self.sockets} sockets x {self.numa_per_socket} NUMA x {self.cores_per_numa} cores"
        )
