"""Communication cost parameters for the machine model.

The discrete-event simulator (:mod:`repro.netsim` / :mod:`repro.simmpi`) and
the analytic model (:mod:`repro.model`) both consume the same
:class:`MachineParameters` object, so that their predictions are derived
from identical assumptions.  The parameters follow the hierarchical
"max-rate"/postal style model advocated for SMP nodes by Gropp, Olson and
Samfass (reference [8] of the paper):

* per-locality-level latency ``alpha`` and per-byte cost ``beta``
  (``beta = 1 / bandwidth``);
* a per-node NIC *injection* constraint: all inter-node messages leaving a
  node serialize on the NIC, paying a per-message overhead plus a per-byte
  cost at the injection bandwidth — the bottleneck the paper identifies for
  many-core nodes;
* per-message send/receive CPU overheads and a matching (queue-search) cost
  proportional to the number of pending receives, which is what makes large
  non-blocking exchanges expensive at scale;
* an eager/rendezvous threshold: messages above ``eager_limit`` cannot start
  transferring until the receiver has posted the matching receive, which is
  what creates the synchronization idle time of pairwise exchange.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.errors import ConfigurationError
from repro.machine.hierarchy import LocalityLevel

__all__ = ["LevelCosts", "MachineParameters"]


@dataclass(frozen=True)
class LevelCosts:
    """Latency/bandwidth pair describing one locality level.

    Parameters
    ----------
    latency:
        One-way message latency in seconds (the ``alpha`` term).
    bandwidth:
        Sustained point-to-point bandwidth in bytes/second for this level
        (the inverse of the ``beta`` term).
    """

    latency: float
    bandwidth: float

    def __post_init__(self) -> None:
        if self.latency < 0.0:
            raise ConfigurationError(f"latency must be non-negative, got {self.latency}")
        if self.bandwidth <= 0.0:
            raise ConfigurationError(f"bandwidth must be positive, got {self.bandwidth}")

    @property
    def byte_time(self) -> float:
        """Seconds per byte (``beta``)."""
        return 1.0 / self.bandwidth

    def message_time(self, nbytes: int) -> float:
        """Postal-model cost of a single ``nbytes`` message at this level."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be non-negative, got {nbytes}")
        return self.latency + nbytes * self.byte_time


def _default_levels() -> dict[LocalityLevel, LevelCosts]:
    """Reasonable Sapphire-Rapids-like defaults (overridden by presets)."""
    return {
        LocalityLevel.SELF: LevelCosts(latency=5.0e-8, bandwidth=5.0e10),
        LocalityLevel.NUMA: LevelCosts(latency=2.5e-7, bandwidth=1.2e10),
        LocalityLevel.SOCKET: LevelCosts(latency=4.0e-7, bandwidth=8.0e9),
        LocalityLevel.NODE: LevelCosts(latency=6.0e-7, bandwidth=5.0e9),
        LocalityLevel.NETWORK: LevelCosts(latency=1.6e-6, bandwidth=1.25e10),
    }


@dataclass(frozen=True)
class MachineParameters:
    """Complete set of cost-model parameters for a cluster.

    All times are in seconds, sizes in bytes, bandwidths in bytes/second.
    """

    #: Per-locality-level latency/bandwidth (must contain every level).
    levels: Mapping[LocalityLevel, LevelCosts] = field(default_factory=_default_levels)
    #: Aggregate NIC injection bandwidth per node, shared by all ranks on the node.
    injection_bandwidth: float = 1.25e10
    #: Per-message NIC occupancy (message-rate limit of the NIC / network stack).
    nic_message_overhead: float = 1.0e-7
    #: Aggregate intra-node fabric bandwidth per node shared by all traffic
    #: that crosses a NUMA boundary (inter-NUMA and inter-socket transfers).
    #: This is the many-core contention effect the paper attributes the
    #: intra-node redistribution overheads to; NUMA-local traffic does not
    #: consume it.
    cross_numa_bandwidth: float = 6.0e10
    #: CPU overhead to initiate a send (o_s in LogGP terms).
    send_overhead: float = 1.5e-7
    #: CPU overhead to complete a receive (o_r in LogGP terms).
    recv_overhead: float = 1.5e-7
    #: Cost of scanning one entry of the posted-receive / unexpected-message
    #: queue while matching; multiplied by the queue length at match time.
    match_overhead_per_entry: float = 3.0e-8
    #: Messages at most this large are sent eagerly; larger ones use a
    #: rendezvous protocol and cannot progress until the receive is posted.
    eager_limit: int = 8192
    #: Extra latency of the rendezvous handshake (ready-to-send / clear-to-send).
    rendezvous_overhead: float = 1.0e-6
    #: Memory-copy bandwidth used for packing/unpacking (repacking steps).
    copy_bandwidth: float = 2.0e10
    #: Fixed per-call cost of packing/unpacking (loop setup, cache effects).
    copy_latency: float = 2.0e-7

    def __post_init__(self) -> None:
        missing = [lvl for lvl in LocalityLevel if lvl not in self.levels]
        if missing:
            raise ConfigurationError(f"levels is missing entries for {missing}")
        for name in ("injection_bandwidth", "copy_bandwidth", "cross_numa_bandwidth"):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")
        for name in (
            "nic_message_overhead",
            "send_overhead",
            "recv_overhead",
            "match_overhead_per_entry",
            "rendezvous_overhead",
            "copy_latency",
        ):
            if getattr(self, name) < 0.0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.eager_limit < 0:
            raise ConfigurationError("eager_limit must be non-negative")

    # -- elementary cost queries ---------------------------------------
    def level_costs(self, level: LocalityLevel) -> LevelCosts:
        """Latency/bandwidth of ``level``."""
        return self.levels[level]

    def latency(self, level: LocalityLevel) -> float:
        return self.levels[level].latency

    def byte_time(self, level: LocalityLevel) -> float:
        return self.levels[level].byte_time

    def wire_time(self, level: LocalityLevel, nbytes: int) -> float:
        """Postal cost of one message at ``level`` excluding CPU/NIC overheads."""
        return self.levels[level].message_time(nbytes)

    def injection_time(self, nbytes: int) -> float:
        """NIC occupancy of one inter-node message of ``nbytes``."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be non-negative, got {nbytes}")
        return self.nic_message_overhead + nbytes / self.injection_bandwidth

    def fabric_time(self, nbytes: int) -> float:
        """Occupancy of the shared cross-NUMA fabric for one intra-node transfer."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be non-negative, got {nbytes}")
        return nbytes / self.cross_numa_bandwidth

    def copy_time(self, nbytes: int) -> float:
        """Cost of a local pack/unpack touching ``nbytes`` bytes."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be non-negative, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.copy_latency + nbytes / self.copy_bandwidth

    def is_eager(self, nbytes: int) -> bool:
        """Whether a message of ``nbytes`` uses the eager protocol."""
        return nbytes <= self.eager_limit

    # -- convenience ----------------------------------------------------
    def with_overrides(self, **kwargs) -> "MachineParameters":
        """Return a copy with some fields replaced (used by ablation studies)."""
        return replace(self, **kwargs)

    def scale_level(self, level: LocalityLevel, *, latency_factor: float = 1.0,
                    bandwidth_factor: float = 1.0) -> "MachineParameters":
        """Return a copy with one level's latency/bandwidth scaled."""
        if latency_factor < 0 or bandwidth_factor <= 0:
            raise ConfigurationError("scaling factors must be positive")
        costs = self.levels[level]
        new_levels = dict(self.levels)
        new_levels[level] = LevelCosts(
            latency=costs.latency * latency_factor,
            bandwidth=costs.bandwidth * bandwidth_factor,
        )
        return replace(self, levels=new_levels)
