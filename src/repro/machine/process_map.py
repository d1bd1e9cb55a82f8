"""Mapping of MPI-style ranks onto the cores of a cluster.

The paper places ranks sequentially: rank ``r`` runs on node ``r // ppn``
and occupies local core ``r % ppn``, with cores themselves numbered
contiguously through NUMA domains and sockets.  :class:`ProcessMap` encodes
that placement and answers the locality queries every other subsystem needs:
which node a rank lives on, the locality level between two ranks, and the
rank groupings (per node, per NUMA, per leader group) that the hierarchical
algorithms split communicators along.  :meth:`ProcessMap.locality` answers
one pair at a time (the simulator's per-message query);
:meth:`ProcessMap.locality_codes` answers one rank against many peers at
once (the analytic model's query).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import TopologyError
from repro.machine.cluster import Cluster
from repro.machine.hierarchy import LEVEL_OF_CODE, LocalityLevel
from repro.utils.partition import contiguous_partition, validate_group_size

__all__ = ["ProcessMap"]


@dataclass(frozen=True)
class ProcessMap:
    """Block mapping of ``nprocs`` ranks onto ``cluster``.

    Parameters
    ----------
    cluster:
        The machine the job runs on.
    ppn:
        Processes per node.  Must not exceed the cores per node; the paper
        always uses all cores (ppn == cores per node) but tests and reduced
        scale simulations use fewer.
    num_nodes:
        Number of nodes actually used by the job (defaults to the whole
        cluster).  Must not exceed ``cluster.num_nodes``.
    """

    cluster: Cluster
    ppn: int
    num_nodes: int | None = None

    #: Whether the engine should schedule only representative ranks.  The
    #: base map simulates every rank; :class:`repro.machine.folding.
    #: FoldedProcessMap` overrides this (plain class attribute, not a field,
    #: so equality and cache keys of unfolded maps are untouched).
    is_folded = False

    def __post_init__(self) -> None:
        nodes = self.cluster.num_nodes if self.num_nodes is None else self.num_nodes
        if nodes <= 0 or nodes > self.cluster.num_nodes:
            raise TopologyError(
                f"job uses {nodes} nodes but the cluster has {self.cluster.num_nodes}"
            )
        if self.ppn <= 0:
            raise TopologyError(f"ppn must be positive, got {self.ppn}")
        if self.ppn > self.cluster.cores_per_node:
            raise TopologyError(
                f"ppn={self.ppn} exceeds the {self.cluster.cores_per_node} cores per node"
            )
        object.__setattr__(self, "num_nodes", nodes)

    # -- sizes -----------------------------------------------------------
    @property
    def nprocs(self) -> int:
        """Total number of ranks in the job."""
        return self.num_nodes * self.ppn

    @property
    def sim_nodes(self) -> int:
        """Nodes the engine actually schedules (all of them when unfolded)."""
        return self.num_nodes

    @property
    def sim_nprocs(self) -> int:
        """Ranks the engine actually schedules (all of them when unfolded)."""
        return self.nprocs

    @property
    def multiplicity(self) -> int:
        """Logical ranks per simulated rank (1 when unfolded)."""
        return 1

    def folded(self, certificate=None):
        """Symmetry-folded view of this map (see :mod:`repro.machine.folding`)."""
        from repro.machine.folding import fold_process_map

        return fold_process_map(self, certificate)

    @property
    def node_arch(self):
        return self.cluster.node

    @property
    def params(self):
        return self.cluster.params

    # -- placement queries ------------------------------------------------
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.nprocs:
            raise TopologyError(f"rank {rank} out of range for job with {self.nprocs} ranks")

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank``."""
        self._check_rank(rank)
        return rank // self.ppn

    def local_rank(self, rank: int) -> int:
        """Rank within its node (also the core index it is pinned to)."""
        self._check_rank(rank)
        return rank % self.ppn

    def core_of(self, rank: int) -> int:
        """Core index (within the node) that ``rank`` is pinned to."""
        return self.local_rank(rank)

    def numa_of(self, rank: int) -> int:
        """Node-wide NUMA domain index of ``rank``."""
        return self.node_arch.numa_of_core(self.core_of(rank))

    def socket_of(self, rank: int) -> int:
        """Socket index of ``rank`` within its node."""
        return self.node_arch.socket_of_core(self.core_of(rank))

    @cached_property
    def _pair_locality(self) -> dict[tuple[int, int], LocalityLevel]:
        """Memo table behind :meth:`locality` (one entry per queried pair).

        Only the simulator fills it: it resolves the locality of every
        simulated message, and probes this dict directly before falling
        back to :meth:`locality`.  The analytic model queries whole peer
        sets through :meth:`locality_codes`, which bypasses the memo.
        """
        return {}

    def locality(self, rank_a: int, rank_b: int) -> LocalityLevel:
        """Locality level between two ranks."""
        key = (rank_a, rank_b)
        level = self._pair_locality.get(key)
        if level is None:
            ppn = self.ppn
            if not (0 <= rank_a < self.nprocs and 0 <= rank_b < self.nprocs):
                self._check_rank(rank_a)
                self._check_rank(rank_b)
            if rank_a // ppn != rank_b // ppn:
                level = LocalityLevel.NETWORK
            else:
                level = LEVEL_OF_CODE[self.node_arch.level_table[rank_a % ppn, rank_b % ppn]]
            self._pair_locality[key] = level
        return level

    def locality_codes(self, rank: int, peers: Sequence[int]) -> np.ndarray:
        """Locality levels between ``rank`` and each of ``peers``, as int8 codes.

        Element ``i`` is ``int(locality(rank, peers[i]))``: ``NETWORK`` for
        an off-node peer, otherwise the entry of the node's
        :attr:`~repro.machine.NodeArchitecture.level_table` for the two
        cores.  ``peers`` may be any integer sequence (list, ``range`` or
        array), in any order and with repeats; an out-of-range rank raises
        the same :class:`TopologyError` as :meth:`locality`.
        """
        self._check_rank(rank)
        peers = np.asarray(peers, dtype=np.intp)
        # Viewed as unsigned, a negative rank is huge: one bound checks both ends.
        if len(peers) and peers.view(np.uintp).max() >= self.nprocs:
            self._check_rank(int(peers[(peers < 0) | (peers >= self.nprocs)][0]))
        # The codes of ``rank`` against every rank of the job: NETWORK off
        # its node, the table row for its core on it.
        ppn = self.ppn
        core = rank % ppn
        row = np.full(self.nprocs, LocalityLevel.NETWORK, dtype=np.int8)
        row[rank - core: rank - core + ppn] = self.node_arch.level_table[core, :ppn]
        return row[peers]

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.node_of(rank_a) == self.node_of(rank_b)

    # -- groupings used by the algorithms ---------------------------------
    def ranks_on_node(self, node: int) -> list[int]:
        """All ranks placed on ``node``, in local-rank order."""
        if not 0 <= node < self.num_nodes:
            raise TopologyError(f"node {node} out of range for job using {self.num_nodes} nodes")
        start = node * self.ppn
        return list(range(start, start + self.ppn))

    def ranks_with_local_rank(self, local_rank: int) -> list[int]:
        """One rank per node: all ranks whose local rank equals ``local_rank``."""
        if not 0 <= local_rank < self.ppn:
            raise TopologyError(f"local rank {local_rank} out of range for ppn={self.ppn}")
        return [node * self.ppn + local_rank for node in range(self.num_nodes)]

    def ranks_in_numa(self, node: int, numa: int) -> list[int]:
        """Ranks of ``node`` pinned to NUMA domain ``numa`` (may be empty for small ppn)."""
        cores = self.node_arch.cores_in_numa(numa)
        return [node * self.ppn + c for c in cores if c < self.ppn]

    def leader_groups(self, node: int, procs_per_group: int) -> list[list[int]]:
        """Contiguous groups of ``procs_per_group`` ranks within ``node``.

        This is the grouping used by the multi-leader and locality-aware
        algorithms: the paper does not map groups to NUMA domains explicitly,
        it simply takes consecutive local ranks (which, with sequential core
        numbering, often do fall inside a NUMA domain).
        """
        validate_group_size(self.ppn, procs_per_group)
        return contiguous_partition(self.ranks_on_node(node), procs_per_group)

    def group_of(self, rank: int, procs_per_group: int) -> int:
        """Index (within the node) of the leader group containing ``rank``."""
        validate_group_size(self.ppn, procs_per_group)
        return self.local_rank(rank) // procs_per_group

    @cached_property
    def node_assignment(self) -> list[int]:
        """Node index of every rank (length ``nprocs``)."""
        return [r // self.ppn for r in range(self.nprocs)]

    @cached_property
    def model_fabric_state(self):
        """Inter-node fabric state for the analytic model's link bounds.

        ``None`` for the contention-free full-bisection default.  The
        simulator builds its own per-job state (link clocks are mutable);
        this shared instance is only ever used for its static routes and
        link bandwidths by :func:`repro.model.loggp.link_phase_bound`.
        """
        return self.cluster.fabric.build(self.num_nodes, self.params)

    def describe(self) -> str:
        return (
            f"{self.nprocs} ranks = {self.num_nodes} nodes x {self.ppn} ppn "
            f"on {self.cluster.name}"
        )
