"""Closed-form cost models for non-uniform (TrafficMatrix) workloads.

These mirror :mod:`repro.model.costs`, but consume a
:class:`~repro.workloads.TrafficMatrix` instead of a scalar per-destination
size.  The estimation strategy generalises the uniform models:

* the *rank term* evaluates :func:`repro.model.loggp.exchange_estimate_v`
  for the busiest rank (largest send volume), with that rank's exact
  per-peer byte vector for each phase of the algorithm;
* the *NIC bound* is computed exactly from the matrix: the inter-node bytes
  and non-empty message count each node injects during the phase (maximum
  over nodes), vectorised through node-level aggregation;
* the *fabric bound* charges the busiest node's intra-node cross-NUMA bytes
  against the shared cross-NUMA bandwidth;
* the *link bound* pushes the exact per-node-pair loads over the cluster's
  inter-node fabric routes (:mod:`repro.netsim.fabric`) and charges the
  busiest shared link — zero for the full-bisection default, so default
  predictions are unchanged.

A phase costs the maximum of the three, and an algorithm the sum of its
phases — the same composition rule the uniform models use, so uniform
matrices reproduce the uniform predictions' behaviour.
"""

from __future__ import annotations

import numpy as np

from repro.core.instrumentation import PHASE_INTER, PHASE_INTRA, PHASE_PACK
from repro.errors import ConfigurationError
from repro.machine.hierarchy import LocalityLevel
from repro.machine.process_map import ProcessMap
from repro.model.costs import CostBreakdown
from repro.model.loggp import (
    exchange_estimate_v,
    fabric_phase_bound,
    link_phase_bound,
    nic_phase_bound,
)
from repro.utils.partition import validate_group_size
from repro.workloads.matrix import TrafficMatrix

__all__ = [
    "flat_workload_cost",
    "node_aware_workload_cost",
    "WORKLOAD_MODELED_ALGORITHMS",
]

#: Algorithm names the workload model can predict.
WORKLOAD_MODELED_ALGORITHMS = ("pairwise", "nonblocking", "node-aware")


def _check(pmap: ProcessMap, matrix: TrafficMatrix) -> None:
    if matrix.nprocs != pmap.nprocs:
        raise ConfigurationError(
            f"traffic matrix describes {matrix.nprocs} ranks but the process map "
            f"has {pmap.nprocs}"
        )
    if pmap.nprocs < 2:
        raise ConfigurationError("cost models require at least two ranks")


def _node_pair_loads(matrix_bytes: np.ndarray, num_nodes: int, ppn: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-ordered-node-pair (messages, bytes) matrices with zeroed diagonals.

    The shared inputs of the NIC bound (row sums) and the fabric link bound
    (routed pair loads) for a rank-level traffic matrix.
    """
    blocks = matrix_bytes.reshape(num_nodes, ppn, num_nodes, ppn)
    node_bytes = blocks.sum(axis=(1, 3))
    node_msgs = (blocks > 0).sum(axis=(1, 3))
    np.fill_diagonal(node_bytes, 0)
    np.fill_diagonal(node_msgs, 0)
    return node_msgs, node_bytes


def _max_nic_load(matrix_bytes: np.ndarray, num_nodes: int, ppn: int) -> tuple[int, int]:
    """(messages, bytes) of the busiest node's NIC injection for a rank-level matrix."""
    node_msgs, node_bytes = _node_pair_loads(matrix_bytes, num_nodes, ppn)
    return int(node_msgs.sum(axis=1).max()), int(node_bytes.sum(axis=1).max())


def _cross_numa_mask(pmap: ProcessMap) -> np.ndarray:
    """``ppn x ppn`` mask of the local-rank pairs that cross a NUMA boundary.

    The same rule as :func:`repro.model.loggp.cross_numa_bytes`: an on-node
    pair crosses when its level is ``SOCKET`` or coarser (the diagonal is
    ``SELF`` and never crosses).
    """
    ppn = pmap.ppn
    return pmap.node_arch.level_table[:ppn, :ppn] >= LocalityLevel.SOCKET


def _max_fabric_load(pmap: ProcessMap, matrix_bytes: np.ndarray) -> int:
    """Cross-NUMA intra-node bytes of the busiest node (shared-fabric traffic)."""
    ppn = pmap.ppn
    cross = _cross_numa_mask(pmap)
    blocks = matrix_bytes.reshape(pmap.num_nodes, ppn, pmap.num_nodes, ppn)
    worst = 0
    for node in range(pmap.num_nodes):
        worst = max(worst, int((blocks[node, :, node, :] * cross).sum()))
    return worst


def _busiest_rank(matrix_bytes: np.ndarray) -> int:
    return int(matrix_bytes.sum(axis=1).argmax())


def flat_workload_cost(pmap: ProcessMap, matrix: TrafficMatrix, kind: str) -> CostBreakdown:
    """Flat pairwise or non-blocking exchange of a traffic matrix."""
    _check(pmap, matrix)
    bytes_matrix = matrix.bytes
    me = _busiest_rank(bytes_matrix)
    peers = [r for r in range(pmap.nprocs) if r != me]
    peer_bytes = [int(bytes_matrix[me, r]) for r in peers]
    estimate = exchange_estimate_v(pmap, me, peers, peer_bytes, kind)
    pair_msgs, pair_bytes_nodes = _node_pair_loads(bytes_matrix, pmap.num_nodes, pmap.ppn)
    nic = nic_phase_bound(
        pmap.params,
        messages_per_node=int(pair_msgs.sum(axis=1).max()),
        bytes_per_node=int(pair_bytes_nodes.sum(axis=1).max()),
    )
    fabric = fabric_phase_bound(
        pmap.params, cross_numa_bytes_per_node=_max_fabric_load(pmap, bytes_matrix)
    )
    link = link_phase_bound(pmap, pair_msgs, pair_bytes_nodes)
    breakdown = CostBreakdown(kind, matrix.max_pair_bytes, pmap.num_nodes, pmap.ppn)
    breakdown.add(PHASE_INTER, max(estimate.rank_time, nic, fabric, link))
    return breakdown


def node_aware_workload_cost(
    pmap: ProcessMap,
    matrix: TrafficMatrix,
    *,
    procs_per_group: int | None = None,
    inner: str = "pairwise",
) -> CostBreakdown:
    """Node-aware (or locality-aware) aggregated exchange of a traffic matrix.

    Phase structure mirrors
    :func:`repro.core.alltoall.valgorithms.node_aware_alltoallv`: an
    inter-region alltoallv whose per-peer bytes aggregate whole destination
    groups, two repacks, and an intra-region alltoallv that never touches
    the NIC.
    """
    _check(pmap, matrix)
    params = pmap.params
    nprocs = pmap.nprocs
    group = pmap.ppn if procs_per_group is None else procs_per_group
    validate_group_size(pmap.ppn, group)
    ngroups = nprocs // group
    bytes_matrix = matrix.bytes
    breakdown = CostBreakdown("node-aware", matrix.max_pair_bytes, pmap.num_nodes, pmap.ppn)

    me = _busiest_rank(bytes_matrix)
    my_pos = me % group
    my_group = me // group

    # Phase 1: inter-region alltoallv with the position-`my_pos` member of
    # every other group; the message to group g aggregates my bytes for all
    # of g's members.
    cross_peers = [g * group + my_pos for g in range(ngroups) if g != my_group]
    grouped = bytes_matrix[me].reshape(ngroups, group).sum(axis=1)
    cross_bytes = [int(grouped[g]) for g in range(ngroups) if g != my_group]
    estimate = exchange_estimate_v(pmap, me, cross_peers, cross_bytes, inner)

    # Exact NIC load of the aggregated phase: rank r's message to group g
    # crosses the network when r's node differs from g's node.
    rank_to_group = bytes_matrix.reshape(nprocs, ngroups, group).sum(axis=2)
    groups_per_node = pmap.ppn // group
    node_of_rank = np.arange(nprocs) // pmap.ppn
    node_of_group = np.arange(ngroups) // groups_per_node
    crossing = node_of_rank[:, None] != node_of_group[None, :]
    masked = np.where(crossing, rank_to_group, 0)
    per_node_view = masked.reshape(pmap.num_nodes, pmap.ppn, ngroups)
    nic_bytes = int(per_node_view.sum(axis=(1, 2)).max())
    nic_msgs = int((per_node_view > 0).sum(axis=(1, 2)).max())
    nic = nic_phase_bound(params, messages_per_node=nic_msgs, bytes_per_node=nic_bytes)
    # Exact per-node-pair loads of the aggregated phase for the fabric bound.
    pair_shape = (pmap.num_nodes, pmap.ppn, pmap.num_nodes, groups_per_node)
    pair_bytes = masked.reshape(pair_shape).sum(axis=(1, 3))
    pair_msgs = (masked > 0).reshape(pair_shape).sum(axis=(1, 3))
    link = link_phase_bound(pmap, pair_msgs, pair_bytes)
    breakdown.add(PHASE_INTER, max(estimate.rank_time, nic, link))

    # Phase 2 + 4: repack what the busiest rank relays (its phase-1 receive
    # volume) and its final receive volume.
    reps = np.arange(ngroups) * group + my_pos
    members = my_group * group + np.arange(group)
    relay_bytes = int(bytes_matrix[np.ix_(reps, members)].sum())
    final_bytes = int(bytes_matrix[:, me].sum())
    breakdown.add(PHASE_PACK, params.copy_time(relay_bytes) + params.copy_time(final_bytes))

    # Phase 3: intra-region alltoallv among my group members; the message to
    # member k carries everything the position-`my_pos` sources addressed to k.
    group_peers = [int(m) for m in members if m != me]
    intra_bytes = [int(bytes_matrix[np.ix_(reps, [m])].sum()) for m in group_peers]
    intra = exchange_estimate_v(pmap, me, group_peers, intra_bytes, inner)
    fabric = fabric_phase_bound(
        params,
        cross_numa_bytes_per_node=_intra_fabric_load(pmap, bytes_matrix, group),
    )
    breakdown.add(PHASE_INTRA, max(intra.rank_time, fabric))
    return breakdown


def _intra_fabric_load(pmap: ProcessMap, bytes_matrix: np.ndarray, group: int) -> int:
    """Busiest node's cross-NUMA bytes during the intra-region redistribution.

    Member ``k`` of a group relays to member ``m`` (same node) the bytes that
    every position-``k`` source addressed to ``m``; only relays crossing a
    NUMA boundary load the shared fabric.
    """
    nprocs = pmap.nprocs
    ppn = pmap.ppn
    ngroups = nprocs // group
    # position_cols[k, d]: bytes every position-k source addressed to rank d.
    position_cols = bytes_matrix.reshape(ngroups, group, nprocs).sum(axis=0)
    # crossing[k, d]: the position-k member of local rank d's group relays
    # to d across a NUMA boundary (the layout is identical on every node).
    local = np.arange(ppn)
    relay_source = (local // group * group)[None, :] + np.arange(group)[:, None]
    crossing = _cross_numa_mask(pmap)[relay_source, local[None, :]]
    worst = 0
    for node in range(pmap.num_nodes):
        relayed = position_cols[:, node * ppn: (node + 1) * ppn]
        worst = max(worst, int(relayed[crossing].sum()))
    return worst
