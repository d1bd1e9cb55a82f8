"""Hierarchical postal / LogGP building blocks for the analytic cost model.

The two primitives every algorithm's cost decomposes into are:

* :func:`exchange_estimate` — the time one *representative rank* spends in a
  flat exchange (pairwise, non-blocking or Bruck) with a given peer set,
  accounting for per-level latency/bandwidth, CPU overheads, matching-queue
  search and the rendezvous handshake of large messages;
* :func:`nic_phase_bound` — the lower bound imposed by the node's NIC on any
  phase, computed from the aggregate inter-node messages and bytes the
  node's ranks inject during that phase.

A phase's duration is modelled as the maximum of the two, mirroring how the
event simulator behaves (ranks proceed concurrently but serialize on the
NIC), and an algorithm's duration as the sum of its phases.

Every per-peer estimator resolves its peers' locality levels in one
:meth:`~repro.machine.ProcessMap.locality_codes` call.  Integer counts come
from ``np.bincount`` over those codes and maxima from the levels present;
every float sum is the builtin ``sum`` over the per-peer terms in peer
order, so each prediction is bit-identical to adding the terms up one peer
at a time (``np.sum`` or count x term would round differently).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.machine.hierarchy import LEVEL_OF_CODE, LocalityLevel
from repro.machine.params import MachineParameters
from repro.machine.process_map import ProcessMap

__all__ = [
    "ExchangeEstimate",
    "exchange_estimate",
    "exchange_estimate_v",
    "nic_phase_bound",
    "fabric_phase_bound",
    "link_phase_bound",
    "uniform_link_bound",
    "cross_numa_bytes",
    "cross_numa_bytes_v",
    "linear_rooted_cost",
]


@dataclass(frozen=True)
class ExchangeEstimate:
    """Per-rank cost estimate of one flat exchange."""

    #: Serial time of the representative rank (wire + CPU + matching), seconds.
    rank_time: float
    #: Inter-node messages the representative rank sends.
    inter_messages: int
    #: Inter-node bytes the representative rank sends.
    inter_bytes: int


def _per_message_time(params: MachineParameters, level: LocalityLevel, nbytes: int) -> float:
    """Wire time of one message at ``level`` including the rendezvous handshake if needed."""
    base = params.wire_time(level, nbytes)
    if not params.is_eager(nbytes):
        base += params.rendezvous_overhead
    return base


def _level_counts(codes: np.ndarray) -> tuple[list[int], list[LocalityLevel]]:
    """Peers at each level code, and the levels that occur, closest first."""
    counts = np.bincount(codes, minlength=len(LEVEL_OF_CODE)).tolist()
    return counts, [level for level, count in zip(LEVEL_OF_CODE, counts) if count]


def _level_array(
    present: list[LocalityLevel], value: Callable[[LocalityLevel], float]
) -> np.ndarray:
    """``value(level)`` for each present level, indexed by level code.

    ``sum(_level_array(present, term)[codes].tolist())`` is the builtin
    ``sum`` of each peer's term in peer order: the same floats added in the
    same order as a per-peer loop, so the result is bit-identical to it.
    """
    table = [0.0] * len(LEVEL_OF_CODE)
    for level in present:
        table[level] = value(level)
    return np.array(table)


def exchange_estimate(
    pmap: ProcessMap,
    me: int,
    peers: Sequence[int],
    msg_bytes: int,
    kind: str,
) -> ExchangeEstimate:
    """Estimate the time rank ``me`` spends exchanging ``msg_bytes`` with every peer.

    ``kind`` selects the exchange structure:

    * ``"pairwise"`` — the peer exchanges happen one after another
      (Algorithm 1): latencies and transfer times add up, but the matching
      queue stays short.
    * ``"nonblocking"`` / ``"batched"`` — everything is posted at once
      (Algorithm 2): transfers still serialize on the rank's own port but
      only one latency is exposed, and matching costs grow quadratically
      with the peer count.
    * ``"bruck"`` — ``ceil(log2(n))`` steps each moving half of the
      aggregate buffer plus local packing.
    """
    params = pmap.params
    npeers = len(peers)
    if npeers == 0:
        return ExchangeEstimate(0.0, 0, 0)
    codes = pmap.locality_codes(me, peers)
    counts, present = _level_counts(codes)
    inter_msgs = counts[LocalityLevel.NETWORK]
    inter_bytes = inter_msgs * msg_bytes
    overhead = params.send_overhead + params.recv_overhead

    if kind == "pairwise":
        term = _level_array(present, lambda lvl: _per_message_time(params, lvl, msg_bytes))
        wire = sum(term[codes].tolist())
        cpu = npeers * (overhead + params.match_overhead_per_entry)
        return ExchangeEstimate(wire + cpu, inter_msgs, inter_bytes)

    if kind in ("nonblocking", "batched"):
        # One exposed latency, transfers serialized at the sender's port,
        # matching cost proportional to the average posted-queue length.
        worst_latency = max(params.latency(lvl) for lvl in present)
        term = _level_array(present, lambda lvl: msg_bytes * params.byte_time(lvl))
        serialized = sum(term[codes].tolist())
        rendezvous = 0.0 if params.is_eager(msg_bytes) else params.rendezvous_overhead
        matching = params.match_overhead_per_entry * npeers * (npeers + 1) / 2.0
        cpu = npeers * overhead
        return ExchangeEstimate(
            worst_latency + serialized + rendezvous + matching + cpu, inter_msgs, inter_bytes
        )

    if kind == "bruck":
        n = npeers + 1
        steps = max(1, math.ceil(math.log2(n)))
        step_bytes = (n // 2) * msg_bytes if n > 1 else 0
        worst = present[-1]
        per_step = (
            _per_message_time(params, worst, step_bytes)
            + 2.0 * params.copy_time(step_bytes)
            + overhead
            + params.match_overhead_per_entry
        )
        spans_network = worst == LocalityLevel.NETWORK
        step_inter_msgs = steps if spans_network else 0
        return ExchangeEstimate(steps * per_step, step_inter_msgs, step_inter_msgs * step_bytes)

    raise ConfigurationError(f"unknown exchange kind {kind!r}")


def exchange_estimate_v(
    pmap: ProcessMap,
    me: int,
    peers: Sequence[int],
    peer_bytes: Sequence[int],
    kind: str,
) -> ExchangeEstimate:
    """Estimate the time rank ``me`` spends in a *variable-count* flat exchange.

    Like :func:`exchange_estimate`, but each peer receives its own byte
    count (``peer_bytes[i]`` to ``peers[i]``).  Zero-byte peers exchange no
    message at all, matching the v-algorithms' skip-empty schedule, so a
    sparse traffic matrix pays neither their wire time nor their matching
    cost.  Only the ``"pairwise"`` and ``"nonblocking"`` schedules exist in
    v-form.
    """
    params = pmap.params
    if len(peers) != len(peer_bytes):
        raise ConfigurationError(
            f"got {len(peers)} peers but {len(peer_bytes)} byte counts"
        )
    sizes = np.asarray(peer_bytes, dtype=np.int64)
    live = sizes > 0
    sizes = sizes[live]
    npeers = len(sizes)
    if npeers == 0:
        return ExchangeEstimate(0.0, 0, 0)
    codes = pmap.locality_codes(me, np.asarray(peers, dtype=np.int64)[live])
    counts, present = _level_counts(codes)
    inter_msgs = counts[LocalityLevel.NETWORK]
    inter_bytes = int(sizes[codes == LocalityLevel.NETWORK].sum())
    overhead = params.send_overhead + params.recv_overhead
    # Per-peer terms: an elementwise float64 product or sum rounds exactly
    # like the scalar ``n * params.byte_time(lvl)`` of a per-peer loop.
    transfer = sizes * _level_array(present, params.byte_time)[codes]

    if kind == "pairwise":
        # _per_message_time per peer: wire_time, plus the handshake above
        # the eager limit.
        base = _level_array(present, params.latency)[codes] + transfer
        per_message = np.where(
            sizes <= params.eager_limit, base, base + params.rendezvous_overhead
        )
        wire = sum(per_message.tolist())
        cpu = npeers * (overhead + params.match_overhead_per_entry)
        return ExchangeEstimate(wire + cpu, inter_msgs, inter_bytes)

    if kind in ("nonblocking", "batched"):
        worst_latency = max(params.latency(lvl) for lvl in present)
        serialized = sum(transfer.tolist())
        rendezvous = 0.0 if params.is_eager(int(sizes.max())) else params.rendezvous_overhead
        matching = params.match_overhead_per_entry * npeers * (npeers + 1) / 2.0
        cpu = npeers * overhead
        return ExchangeEstimate(
            worst_latency + serialized + rendezvous + matching + cpu, inter_msgs, inter_bytes
        )

    raise ConfigurationError(
        f"unknown v-exchange kind {kind!r}; only 'pairwise' and 'nonblocking' have v-forms"
    )


def nic_phase_bound(
    params: MachineParameters,
    *,
    messages_per_node: float,
    bytes_per_node: float,
) -> float:
    """Lower bound of a phase from the per-node NIC injection budget."""
    if messages_per_node < 0 or bytes_per_node < 0:
        raise ConfigurationError("NIC bound inputs must be non-negative")
    return messages_per_node * params.nic_message_overhead + bytes_per_node / params.injection_bandwidth


def link_phase_bound(pmap: ProcessMap, pair_msgs, pair_bytes) -> float:
    """Lower bound of a phase from the busiest shared inter-node fabric link.

    ``pair_msgs[a][b]`` / ``pair_bytes[a][b]`` give the inter-node messages
    and bytes node ``a`` sends node ``b`` during the phase (diagonals are
    ignored by empty routes).  The full-bisection default has no shared
    links and imposes no bound, so default predictions are unchanged.  This
    is the congestion-aware sibling of :func:`nic_phase_bound`: the phase
    cannot finish before the busiest link has carried everything routed
    over it.
    """
    state = pmap.model_fabric_state
    if state is None:
        return 0.0
    return state.phase_bound(pair_msgs, pair_bytes)


def uniform_link_bound(
    pmap: ProcessMap,
    *,
    messages_per_node: float,
    bytes_per_node: float,
) -> float:
    """Link bound of a node-symmetric phase (the uniform-algorithm case).

    Each node's inter-node phase load (the same inputs
    :func:`nic_phase_bound` consumes) is spread evenly over the other
    ``num_nodes - 1`` destinations — exact for the flat and aggregated
    uniform exchanges, a uniform approximation for Bruck's log-step
    pattern.
    """
    state = pmap.model_fabric_state
    if state is None or pmap.num_nodes <= 1:
        return 0.0
    if messages_per_node < 0 or bytes_per_node < 0:
        raise ConfigurationError("link bound inputs must be non-negative")
    share = 1.0 / (pmap.num_nodes - 1)
    return state.uniform_phase_bound(messages_per_node * share, bytes_per_node * share)


#: By level code: whether a peer at that level is on the node but in
#: another NUMA domain.
_CROSSES_NUMA = np.array(
    [level in (LocalityLevel.SOCKET, LocalityLevel.NODE) for level in LEVEL_OF_CODE]
)


def cross_numa_bytes(pmap: ProcessMap, me: int, peers: Sequence[int], bytes_per_peer: int) -> int:
    """Bytes rank ``me`` sends to intra-node peers across a NUMA boundary."""
    crossing = int(np.count_nonzero(_CROSSES_NUMA[pmap.locality_codes(me, peers)]))
    return crossing * bytes_per_peer


def cross_numa_bytes_v(
    pmap: ProcessMap, me: int, peers: Sequence[int], peer_bytes: Sequence[int]
) -> int:
    """Bytes rank ``me`` sends to intra-node peers across a NUMA boundary (variable counts)."""
    if len(peers) != len(peer_bytes):
        raise ConfigurationError(
            f"got {len(peers)} peers but {len(peer_bytes)} byte counts"
        )
    crossing = _CROSSES_NUMA[pmap.locality_codes(me, peers)]
    return int(np.asarray(peer_bytes, dtype=np.int64)[crossing].sum())


def fabric_phase_bound(
    params: MachineParameters,
    *,
    cross_numa_bytes_per_node: float,
) -> float:
    """Lower bound of a phase from the node's shared cross-NUMA fabric bandwidth."""
    if cross_numa_bytes_per_node < 0:
        raise ConfigurationError("fabric bound input must be non-negative")
    return cross_numa_bytes_per_node / params.cross_numa_bandwidth


def linear_rooted_cost(
    pmap: ProcessMap,
    root: int,
    members: Sequence[int],
    bytes_per_member: int,
) -> float:
    """Cost of a linear rooted gather or scatter at the root.

    The root exchanges ``bytes_per_member`` with every non-root member; the
    transfers serialize at the root, which is exactly the gather/scatter
    bottleneck the hierarchical algorithm suffers from on many-core nodes.
    """
    params = pmap.params
    others = [m for m in members if m != root]
    if not others:
        return params.copy_time(bytes_per_member)
    codes = pmap.locality_codes(root, others)
    _, present = _level_counts(codes)
    worst_latency = max(params.latency(lvl) for lvl in present)
    term = _level_array(present, lambda lvl: bytes_per_member * params.byte_time(lvl))
    serialized = sum(term[codes].tolist())
    rendezvous = 0.0 if params.is_eager(bytes_per_member) else params.rendezvous_overhead
    cpu = len(others) * (params.send_overhead + params.recv_overhead)
    matching = params.match_overhead_per_entry * len(others)
    return worst_latency + serialized + rendezvous + cpu + matching + params.copy_time(bytes_per_member)
