"""Point-to-point message timing and matching.

This module implements the performance model of a single message and the
MPI matching semantics (posted-receive and unexpected-message queues per
rank).  It is used by the engine; rank programs never call it directly.

Timing model
------------
A message from rank *s* to rank *d* of *n* bytes is charged:

* the sender-side CPU overhead (charged by the engine before the message
  reaches this module);
* if the ranks are on different nodes, NIC injection at the sender's node:
  all inter-node messages leaving a node serialize on a
  :class:`~repro.netsim.resources.SerialResource`, each occupying the NIC
  for ``nic_message_overhead + n / injection_bandwidth`` seconds — the
  injection bottleneck the paper identifies for >100-rank nodes;
* if the cluster configures a contended inter-node fabric
  (:mod:`repro.netsim.fabric`), FIFO traversal of every shared link on the
  message's node-to-node route — the queueing delay of fat-tree uplinks or
  dragonfly global links; the full-bisection default skips this entirely;
* a wire/fabric term ``alpha_level + n * beta_level`` where the level is
  the locality between the two ranks (NUMA, socket, node or network);
* at the receiver, a matching cost proportional to the number of queue
  entries scanned plus the receive CPU overhead.

Messages larger than ``eager_limit`` use a rendezvous protocol: the data
transfer cannot start before the receiver has posted the matching receive
(plus a handshake delay), which is what makes pairwise exchange wait idly
when its partner is late — exactly the synchronization cost discussed in
Section 2 of the paper.

Indexed matching
----------------
Matching used to be a linear scan with ``pop(i)``: O(queue length) per
message, O(P^3) aggregate for a P-rank all-to-all with long queues.  The
queues are now indexed by the full ``(context_id, source, tag)`` key — a
deque of sequence numbers per key — with a FIFO-ordered scan kept for
``ANY_SOURCE``/``ANY_TAG`` receives, so a specific match costs O(log q)
instead of O(q).

The timing model charges ``scanned * match_overhead_per_entry`` per match,
where ``scanned`` is the number of entries a linear scan would have walked
— i.e. the matched entry's 1-based position in FIFO order among the live
entries.  That count must survive the indexing exactly (the simulated
timings are pinned bit-for-bit by ``tests/golden/simulated_timings.json``),
so each queue maintains a Fenwick tree over its sequence numbers: the
position of an entry is the prefix count of live sequence numbers up to
its own, an O(log q) order-statistics query that is equal, entry for
entry, to what the removed linear scan counted.

Folded jobs
-----------
A symmetry-folded job (:mod:`repro.machine.folding`) schedules only node
0's ranks and uses the same send path: :meth:`MessageRouter.post_send`
times a send to a *phantom* rank (off node 0) as the original pair and
delivers it as its mirror on node 0.

Payload copies
--------------
``post_send`` used to snapshot the payload eagerly and copy it a second
time into the receive buffer at match.  Both matching structures are
updated synchronously while the sending rank is still suspended inside the
engine, so when the match happens in that same event cascade the payload
is copied exactly once, straight into the posted receive buffer.  Only a
message that has to sit in the unexpected queue is snapshotted — at which
point the buffered-send contract (the sender may reuse its buffer as soon
as the operation returns) requires the copy.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import MatchingError
from repro.machine.hierarchy import LocalityLevel
from repro.machine.params import MachineParameters
from repro.machine.process_map import ProcessMap
from repro.netsim.resources import SerialResource, ThroughputTracker
from repro.simmpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.simmpi.request import Request
from repro.simmpi.status import Status

__all__ = ["TimingModel", "MessageRouter"]


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


class TimingModel:
    """Computes transfer times over the machine model.

    One NIC injection resource is kept per node; intra-node transfers only
    pay the level latency/bandwidth costs (the sending core performs the
    copy through shared memory).  Per-pair locality and per-rank node
    lookups are cached: they are pure functions of the process map, queried
    once per simulated message on the hot path.
    """

    def __init__(self, pmap: ProcessMap, *, sink=None, faults=None) -> None:
        self.pmap = pmap
        self.params: MachineParameters = pmap.params
        #: Optional :class:`repro.obs.sink.EventSink`; ``None`` keeps every
        #: emission down to one pointer test (the zero-overhead-when-off
        #: contract of :mod:`repro.obs`).
        self.sink = sink
        # Folded maps schedule only node 0: per-node mutable resources are
        # allocated for the simulated nodes only (a 64k-node folded job must
        # not allocate 64k NIC objects it never touches).
        sim_nodes = pmap.sim_nodes
        self.nics = [SerialResource(name=f"nic-node{n}") for n in range(sim_nodes)]
        # Shared cross-NUMA fabric per node: intra-node transfers that cross a
        # NUMA boundary (SOCKET and NODE levels) serialize on it, modelling
        # the UPI / inter-chip bandwidth contention of many-core nodes.
        self.fabrics = [SerialResource(name=f"fabric-node{n}") for n in range(sim_nodes)]
        #: Inter-node fabric state (shared links + routes), or ``None`` for
        #: the contention-free full-bisection default — in which case every
        #: network path below keeps its original, fabric-free arithmetic
        #: and the simulated timings stay bit-identical to the golden
        #: fixture.
        self.fabric = pmap.cluster.fabric.build(pmap.num_nodes, pmap.params)
        #: Active :class:`repro.faults.FaultSpec` (``None`` for the healthy
        #: machine — empty specs are normalised to ``None`` so every hot
        #: path keeps the single-pointer-test contract).
        self.faults = faults if faults else None
        #: Per-node NIC occupancy multipliers from straggler faults, or
        #: ``None`` when no straggler applies (the common case).
        self._nic_scale = None
        if self.faults is not None:
            from repro.faults.apply import apply_link_faults, nic_scale_vector

            if self.fabric is not None:
                # Link faults mutate the freshly built state before any
                # traffic; folded views are rejected upstream (faults break
                # the node-rotation symmetry folding relies on).
                apply_link_faults(self.fabric, self.faults)
            self._nic_scale = nic_scale_vector(self.faults, sim_nodes)
            if sink is not None:
                from repro.faults.apply import announce_faults

                announce_faults(sink, self.faults)
        if self.fabric is not None:
            if pmap.is_folded:
                from repro.netsim.fabric import FoldedFabricView

                self.fabric = FoldedFabricView(self.fabric, sim_nodes)
            self.fabric.sink = sink
        params = self.params
        self._node_of = [pmap.node_of(rank) for rank in range(pmap.nprocs)]
        self._latency = {level: params.latency(level) for level in LocalityLevel}
        self._byte_time = {level: params.byte_time(level) for level in LocalityLevel}
        self._copy_bandwidth = params.copy_bandwidth
        self._injection_bandwidth = params.injection_bandwidth
        self._nic_message_overhead = params.nic_message_overhead
        self._cross_numa_bandwidth = params.cross_numa_bandwidth

    def level(self, src: int, dst: int) -> LocalityLevel:
        return self.pmap.locality(src, dst)

    def control_latency(self, level: LocalityLevel) -> float:
        """One-way latency of a tiny control message (RTS/CTS) at ``level``."""
        if level == LocalityLevel.SELF:
            return 0.0
        return self._latency[level]

    def transfer(
        self,
        src: int,
        dst: int,
        nbytes: int,
        start_time: float,
        level: LocalityLevel | None = None,
    ) -> tuple[float, float, LocalityLevel]:
        """Move ``nbytes`` from ``src`` to ``dst`` starting no earlier than ``start_time``.

        Returns ``(sender_done, arrival, level)``: the time the sending side
        finishes injecting the data and the time the data is fully available
        at the receiver.  Callers that already resolved the pair's locality
        pass it in to skip the lookup.
        """
        if level is None:
            level = self.pmap.locality(src, dst)
        if level is LocalityLevel.SELF:
            done = start_time + nbytes / self._copy_bandwidth
            return done, done, level
        if level is LocalityLevel.NETWORK:
            # Inlined SerialResource.reserve (one reservation per inter-node
            # message): same arithmetic and accounting, no call overhead.
            occupancy = self._nic_message_overhead + nbytes / self._injection_bandwidth
            src_node = self._node_of[src]
            nic_scale = self._nic_scale
            if nic_scale is not None:
                occupancy *= nic_scale[src_node]
            nic = self.nics[src_node]
            available = nic.available_at
            start = start_time if start_time >= available else available
            injected = start + occupancy
            nic.available_at = injected
            nic.busy_time += occupancy
            nic.reservations += 1
            sink = self.sink
            if sink is not None:
                sink.nic(self._node_of[src], start_time, start, injected, nbytes)
            fabric = self.fabric
            if fabric is None:
                arrival = injected + self._latency[level] + nbytes * self._byte_time[level]
            else:
                # The injected message queues on each shared link of its
                # route before the terminal wire/latency term; the sender is
                # free as soon as the NIC finishes injecting.
                exit_time = fabric.traverse(
                    self._node_of[src], self._node_of[dst], nbytes, injected
                )
                arrival = exit_time + self._latency[level] + nbytes * self._byte_time[level]
            return injected, arrival, level
        # Intra-node: the sender's core streams the data through shared memory.
        # Transfers that cross a NUMA boundary additionally serialize on the
        # node's shared fabric, so many concurrent cross-socket exchanges
        # (e.g. a 112-rank on-node all-to-all) contend with each other.
        if level is LocalityLevel.SOCKET or level is LocalityLevel.NODE:
            occupancy = nbytes / self._cross_numa_bandwidth
            fabric = self.fabrics[self._node_of[src]]
            available = fabric.available_at
            start = start_time if start_time >= available else available
            fabric.available_at = start + occupancy
            fabric.busy_time += occupancy
            fabric.reservations += 1
            start_time = start
        done = start_time + nbytes * self._byte_time[level]
        arrival = done + self._latency[level]
        return done, arrival, level

    def nic_statistics(self) -> list[dict]:
        """Per-node NIC accounting (reservations, busy time)."""
        return [
            {"node": i, "messages": nic.reservations, "busy_time": nic.busy_time}
            for i, nic in enumerate(self.nics)
        ]

    def fabric_statistics(self) -> list[dict]:
        """Per-link inter-node fabric accounting (empty for full bisection)."""
        if self.fabric is None:
            return []
        return self.fabric.statistics()


# ---------------------------------------------------------------------------
# Matching structures
# ---------------------------------------------------------------------------


class _InboundSend:
    """A send that has been posted and is waiting to be matched at ``dst``."""

    __slots__ = (
        "request", "src", "dst", "tag", "context_id", "nbytes", "payload",
        "protocol", "ready_time", "sender_ready", "level",
    )

    def __init__(self, request, src, dst, tag, context_id, nbytes, payload,
                 protocol, ready_time, sender_ready, level):
        self.request = request
        self.src = src
        self.dst = dst
        self.tag = tag
        self.context_id = context_id
        self.nbytes = nbytes
        #: The live send buffer until the message has to sit in the
        #: unexpected queue, at which point it is snapshotted (see the
        #: delivery step of :meth:`MessageRouter.post_send`).
        self.payload = payload
        self.protocol = protocol  # "eager" or "rndv"
        #: Eager: time the data arrives at the receiver.  Rendezvous: time
        #: the ready-to-send control message arrives at the receiver.
        self.ready_time = ready_time
        #: Rendezvous only: earliest time the sender can start the transfer.
        self.sender_ready = sender_ready
        self.level = level


class _PostedRecv:
    """A receive that has been posted and is waiting for a matching send."""

    __slots__ = ("request", "owner", "source_spec", "tag_spec", "context_id",
                 "buffer", "post_time")

    def __init__(self, request, owner, source_spec, tag_spec, context_id,
                 buffer, post_time):
        self.request = request
        self.owner = owner
        self.source_spec = source_spec
        self.tag_spec = tag_spec
        self.context_id = context_id
        self.buffer = buffer
        self.post_time = post_time


class _Fenwick:
    """Binary indexed tree of live-entry flags over queue sequence numbers.

    ``rank(seq)`` — the number of live entries with sequence number at most
    ``seq`` — is exactly the 1-based FIFO position a linear scan would
    report for the entry, which is what the matching-cost model charges.
    """

    __slots__ = ("_tree", "_cap")

    def __init__(self, cap: int, live_seqs) -> None:
        self._cap = cap
        tree = [0] * (cap + 1)
        for seq in live_seqs:
            tree[seq + 1] += 1
        for i in range(1, cap + 1):
            parent = i + (i & -i)
            if parent <= cap:
                tree[parent] += tree[i]
        self._tree = tree

    def add(self, seq: int, delta: int) -> None:
        tree = self._tree
        cap = self._cap
        i = seq + 1
        while i <= cap:
            tree[i] += delta
            i += i & -i

    def rank(self, seq: int) -> int:
        """Number of live entries with sequence number <= ``seq``."""
        tree = self._tree
        total = 0
        i = seq + 1
        while i > 0:
            total += tree[i]
            i -= i & -i
        return total


class _MatchQueue:
    """One matching queue (posted receives or unexpected messages) of a rank.

    Entries carry monotonically increasing sequence numbers.  A dict keyed
    by the full ``(context_id, source, tag)`` triple holds per-key FIFO
    deques of sequence numbers for O(1) earliest-candidate lookup; the
    insertion-ordered ``_live`` dict preserves the global FIFO order for
    wildcard scans; the Fenwick tree answers the exact linear-scan position
    of any removed entry.  Deques are cleaned lazily: a wildcard match can
    remove an entry from the middle of another key's deque, which is
    detected by the ``seq in _live`` test at the next head access.
    """

    __slots__ = ("_live", "_by_key", "_fenwick", "_pending", "_next_seq", "_head_seq")

    def __init__(self) -> None:
        self._live: dict[int, tuple] = {}  # seq -> (key, entry), FIFO order
        #: key -> sequence number (single live candidate, the common case) or
        #: a FIFO deque of sequence numbers.  The bare-int representation
        #: avoids a deque allocation per key — in a uniform all-to-all every
        #: message carries a distinct (context, source, tag) key.
        self._by_key: dict[tuple, int | deque] = {}
        #: Order-statistics tree, materialised lazily: a queue whose matches
        #: all happen at the head (pairwise exchange) never builds one.
        self._fenwick: _Fenwick | None = None
        #: (seq, delta) updates not yet applied to the tree.
        self._pending: list[tuple[int, int]] = []
        self._next_seq = 0
        self._head_seq = 0

    def __len__(self) -> int:
        return len(self._live)

    def __bool__(self) -> bool:
        return bool(self._live)

    def append(self, key: tuple, entry) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        self._live[seq] = (key, entry)
        self._pending.append((seq, 1))
        by_key = self._by_key
        val = by_key.get(key)
        if val is None:
            by_key[key] = seq
        elif val.__class__ is int:
            by_key[key] = deque((val, seq))
        else:
            val.append(seq)

    def _clean_key(self, key: tuple, val) -> int | None:
        """Earliest live seq recorded under ``key`` (pruning stale records)."""
        live = self._live
        if val.__class__ is int:
            if val in live:
                return val
            del self._by_key[key]
            return None
        while val:
            head = val[0]
            if head in live:
                return head
            val.popleft()
        del self._by_key[key]
        return None

    def first_for_keys(self, keys: tuple) -> int | None:
        """Earliest live sequence number whose key is one of ``keys``."""
        by_key = self._by_key
        best = -1
        for key in keys:
            val = by_key.get(key)
            if val is None:
                continue
            head = self._clean_key(key, val)
            if head is not None and (best < 0 or head < best):
                best = head
        return best if best >= 0 else None

    def first_matching(self, predicate) -> int | None:
        """FIFO wildcard path: earliest live entry satisfying ``predicate``."""
        for seq, (_key, entry) in self._live.items():
            if predicate(entry):
                return seq
        return None

    def _position(self, seq: int) -> int:
        """Exact 1-based FIFO position of live entry ``seq`` (Fenwick query).

        The tree is (re)built from the live set — the ground truth every
        pending delta is already reflected in — whenever it is missing or
        the sequence space outgrew its capacity; otherwise the buffered
        deltas are applied first.
        """
        fenwick = self._fenwick
        pending = self._pending
        if fenwick is None or self._next_seq > fenwick._cap:
            cap = 64
            while cap < self._next_seq:
                cap *= 2
            self._fenwick = fenwick = _Fenwick(cap, self._live)
        elif pending:
            add = fenwick.add
            for update in pending:
                add(update[0], update[1])
        pending.clear()
        return fenwick.rank(seq)

    def _scanned_of(self, seq: int) -> int:
        """1-based FIFO position of live entry ``seq`` — what a linear scan
        would have counted.  The common head removal needs no
        order-statistics work at all."""
        live = self._live
        head = self._head_seq
        next_seq = self._next_seq
        while head < next_seq and head not in live:
            head += 1
        self._head_seq = head
        return 1 if seq == head else self._position(seq)

    def take(self, seq: int):
        """Remove entry ``seq``; returns ``(entry, scanned)``."""
        scanned = self._scanned_of(seq)
        self._pending.append((seq, -1))
        key, entry = self._live.pop(seq)
        by_key = self._by_key
        val = by_key.get(key)
        if val is not None:
            self._clean_key(key, val)
        return entry, scanned

    def take_for_key(self, key: tuple):
        """Remove the earliest entry carrying exactly ``key``.

        Returns ``(entry, scanned)`` or ``None``; the fused probe-and-remove
        of the fully-specified match, one dictionary walk instead of two.
        """
        by_key = self._by_key
        val = by_key.get(key)
        if val is None:
            return None
        live = self._live
        if val.__class__ is int:
            if val not in live:
                del by_key[key]
                return None
            seq = val
            del by_key[key]
        else:
            while val:
                seq = val[0]
                if seq in live:
                    break
                val.popleft()
            else:
                del by_key[key]
                return None
            val.popleft()
            if not val:
                del by_key[key]
        # Inlined _scanned_of (one call per fully-specified match).
        head = self._head_seq
        next_seq = self._next_seq
        while head < next_seq and head not in live:
            head += 1
        self._head_seq = head
        scanned = 1 if seq == head else self._position(seq)
        self._pending.append((seq, -1))
        return live.pop(seq)[1], scanned

    def entries(self):
        for _key, entry in self._live.values():
            yield entry


class _Mailbox:
    """Matching queues of a single rank."""

    __slots__ = ("posted", "unexpected", "wildcards_posted")

    def __init__(self) -> None:
        self.posted = _MatchQueue()
        self.unexpected = _MatchQueue()
        #: Whether a wildcard receive was ever posted to this mailbox; while
        #: false, an arriving message only probes its exact key.
        self.wildcards_posted = False


def _copy_payload(buffer: np.ndarray, payload: np.ndarray) -> None:
    """Byte-wise copy of ``payload`` into the start of ``buffer``."""
    nbytes = payload.nbytes
    if nbytes == 0:
        return
    if buffer.nbytes < nbytes:
        raise MatchingError(
            f"receive buffer of {buffer.nbytes} bytes is too small for a {nbytes}-byte message"
        )
    if buffer.dtype is payload.dtype and buffer.ndim == 1 and payload.ndim == 1:
        # Same element type, flat views (the all-to-all common case): one
        # strided element copy delivers the same bytes as the uint8 path.
        buffer[: payload.shape[0]] = payload
        return
    dst_bytes = buffer.reshape(-1).view(np.uint8)
    src_bytes = payload.reshape(-1).view(np.uint8)
    dst_bytes[:nbytes] = src_bytes
    # ``buffer`` is a view into the receiver's array, so the write above is
    # already visible to the receiving rank; nothing else to do.


def _matches(recv_source: int, recv_tag: int, recv_ctx: int, send: _InboundSend) -> bool:
    if recv_ctx != send.context_id:
        return False
    if recv_source != ANY_SOURCE and recv_source != send.src:
        return False
    if recv_tag != ANY_TAG and recv_tag != send.tag:
        return False
    return True


# ---------------------------------------------------------------------------
# Router
# ---------------------------------------------------------------------------


class MessageRouter:
    """Owns every rank's matching queues and applies the timing model."""

    def __init__(
        self,
        timing: TimingModel,
        *,
        traffic: ThroughputTracker | None = None,
        sink=None,
    ) -> None:
        self.timing = timing
        self.params = timing.params
        #: Optional :class:`repro.obs.sink.EventSink` receiving the matching
        #: lifecycle; ``None`` costs one pointer test per emission point.
        self.sink = sink
        self.traffic = traffic if traffic is not None else ThroughputTracker(name="p2p")
        pmap = timing.pmap
        #: The folded process map when the job is symmetry-folded, ``None``
        #: otherwise.  The unfolded hot path pays exactly one pointer test.
        self._fold = pmap if pmap.is_folded else None
        self._sim_nprocs = pmap.sim_nprocs
        self._mailboxes = [_Mailbox() for _ in range(pmap.sim_nprocs)]
        self._eager_limit = self.params.eager_limit
        self._match_overhead = self.params.match_overhead_per_entry
        self._recv_overhead = self.params.recv_overhead
        self._half_rendezvous = 0.5 * self.params.rendezvous_overhead
        # Direct probe into the process map's pair-locality memo (one lookup
        # per simulated message); misses fall back to the computing path.
        self._level_of = timing.pmap._pair_locality.get
        # Timing-model fields replicated for the inlined eager network path.
        self._nics = timing.nics
        self._node_of = timing._node_of
        self._nic_message_overhead = timing._nic_message_overhead
        self._injection_bandwidth = timing._injection_bandwidth
        self._nic_scale = timing._nic_scale
        self._net_latency = timing._latency[LocalityLevel.NETWORK]
        self._net_byte_time = timing._byte_time[LocalityLevel.NETWORK]
        #: Inter-node fabric state shared with the timing model (``None`` for
        #: the full-bisection default: one attribute test keeps the inlined
        #: eager path free of any fabric arithmetic).
        self._fabric = timing.fabric
        #: Matching statistics: total completed matches and the total number
        #: of queue entries charged to the matching-cost model.  Tests use
        #: them to pin the indexed scanned counts to the linear-scan oracle.
        self.matches = 0
        self.entries_scanned = 0
        #: Matching-lifecycle metrics (surfaced via ``JobResult.metrics``):
        #: a *fast-path* match found a posted receive waiting when the
        #: message arrived; a *queued* match had to sit in the unexpected
        #: queue until a later receive claimed it.
        self.fast_path_matches = 0
        self.queued_matches = 0
        self.unexpected_parked = 0
        self.max_unexpected_depth = 0
        self.wildcard_receives = 0
        #: Linear-scan lengths of wildcard receives that probed the
        #: unexpected queue (rare path; feeds the wildcard-scan histogram).
        self.wildcard_scan_lengths: list[int] = []

    # -- posting ------------------------------------------------------------
    def post_send(
        self,
        src: int,
        dst: int,
        payload: np.ndarray,
        tag: int,
        context_id: int,
        ready_time: float,
    ) -> Request:
        """Post a send whose data is ready at simulated ``ready_time``.

        Timing uses the original ``src -> dst`` pair: NIC injection, fabric
        traversal, the rendezvous control latency and the ``send_posted``
        event.  Delivery uses the *delivery pair*: the mailbox, every
        matching key, the receive's ``Status``, the in-flight record and the
        ``matched``/``parked`` events.  The delivery pair is ``(src, dst)``
        unless the job is folded and ``dst`` is a phantom rank; then it is
        the send's mirror
        (:meth:`repro.machine.folding.FoldedProcessMap.mirror_inbound`).
        Under node-rotation symmetry the mirror is the message a folded-out
        peer would have sent into node 0 at the same simulated times, so
        node 0's inbound stream — matching order, queue depths, scanned
        counts — is that of the full run.
        """
        request = Request("send", src)
        nbytes = payload.nbytes
        timing = self.timing
        fold = self._fold
        if fold is not None and dst >= self._sim_nprocs:
            # Phantom destinations are on other nodes by construction.
            level = LocalityLevel.NETWORK
            to_src, to_dst = fold.mirror_inbound(src, dst)
        else:
            level = self._level_of((src, dst))
            if level is None:
                level = timing.pmap.locality(src, dst)
            to_src = src
            to_dst = dst
        # Inlined ThroughputTracker.record (one call per simulated message);
        # the per-level counts are mutable pairs here so the steady state is
        # two in-place increments, consumers normalise with tuple().
        traffic = self.traffic
        traffic.messages += 1
        traffic.total_bytes += nbytes
        counts = traffic.per_key.get(level)
        if counts is None:
            traffic.per_key[level] = [1, nbytes]
        else:
            counts[0] += 1
            counts[1] += nbytes
        sink = self.sink
        if sink is not None:
            sink.send_posted(src, dst, nbytes, tag, ready_time)

        mailbox = self._mailboxes[to_dst]
        key = (context_id, to_src, tag)
        if nbytes <= self._eager_limit:
            if level is LocalityLevel.NETWORK:
                # Inlined TimingModel.transfer network path (the vast
                # majority of messages in a multi-node job): identical
                # arithmetic and NIC accounting, no call overhead.
                occupancy = self._nic_message_overhead + nbytes / self._injection_bandwidth
                nic_scale = self._nic_scale
                if nic_scale is not None:
                    occupancy *= nic_scale[self._node_of[src]]
                nic = self._nics[self._node_of[src]]
                available = nic.available_at
                start = ready_time if ready_time >= available else available
                sender_done = start + occupancy
                nic.available_at = sender_done
                nic.busy_time += occupancy
                nic.reservations += 1
                if sink is not None:
                    sink.nic(self._node_of[src], ready_time, start, sender_done, nbytes)
                fabric = self._fabric
                if fabric is None:
                    arrival = sender_done + self._net_latency + nbytes * self._net_byte_time
                else:
                    exit_time = fabric.traverse(
                        self._node_of[src], self._node_of[dst], nbytes, sender_done
                    )
                    arrival = exit_time + self._net_latency + nbytes * self._net_byte_time
            else:
                sender_done, arrival, level = timing.transfer(src, dst, nbytes, ready_time, level)
            # Inlined Request.complete: the request was created above, so no
            # waiter or callback can be registered yet and sender_done >= 0.
            request.completion_time = sender_done

            # Inlined _match_posted (one probe per simulated message).
            posted = mailbox.posted
            if not posted._live:
                found = None
            elif mailbox.wildcards_posted:
                seq = posted.first_for_keys((
                    key,
                    (context_id, ANY_SOURCE, tag),
                    (context_id, to_src, ANY_TAG),
                    (context_id, ANY_SOURCE, ANY_TAG),
                ))
                found = None if seq is None else posted.take(seq)
            else:
                found = posted.take_for_key(key)
            if found is not None:
                # Matched in the same event cascade as the send: the sending
                # rank is still suspended inside post_send, so its buffer
                # cannot have been reused yet — copy straight into the
                # receive buffer, the message's only copy.  No _InboundSend
                # record exists on this path; the whole eager completion of
                # _complete_match is inlined here, same order, same floats.
                recv = found[0]
                scanned = found[1]
                self.matches += 1
                self.fast_path_matches += 1
                self.entries_scanned += scanned
                post_time = recv.post_time
                later = arrival if arrival >= post_time else post_time  # max()
                completion = later + scanned * self._match_overhead + self._recv_overhead
                buffer = recv.buffer
                if buffer.dtype is payload.dtype and buffer.ndim == 1 \
                        and payload.ndim == 1 and buffer.nbytes >= nbytes:
                    n = payload.shape[0]
                    if n:
                        buffer[:n] = payload
                else:
                    _copy_payload(buffer, payload)
                recv_request = recv.request
                recv_request.completion_time = completion
                recv_request.status = Status(to_src, tag, nbytes)
                waiter = recv_request.waiter
                if waiter is not None:
                    recv_request.waiter = None
                    waiter.notify()
                callbacks = recv_request._callbacks
                if callbacks is not None:
                    recv_request._callbacks = None
                    for callback in callbacks:
                        callback(recv_request)
                if sink is not None:
                    sink.matched(to_src, to_dst, nbytes, tag, True, arrival, completion)
                return request
            # The message has to wait for a future receive; snapshot the
            # payload so the sender may reuse its buffer (buffered-send
            # semantics).
            unexpected = mailbox.unexpected
            unexpected.append(key, _InboundSend(
                request, to_src, to_dst, tag, context_id, nbytes,
                np.array(payload.reshape(-1), copy=True),
                "eager", arrival, ready_time, level,
            ))
            self.unexpected_parked += 1
            depth = len(unexpected._live)
            if depth > self.max_unexpected_depth:
                self.max_unexpected_depth = depth
            if sink is not None:
                sink.parked(to_src, to_dst, nbytes, tag, arrival, depth)
            return request

        # Rendezvous: the data transfer is priced at match time, so the
        # in-flight record is built either way.  A mirrored record is priced
        # on its original pair there (see _complete_match), so node 0's NIC
        # sees exactly the reservations of the full run.
        rts_arrival = ready_time + self._half_rendezvous + timing.control_latency(level)
        inbound = _InboundSend(
            request, to_src, to_dst, tag, context_id, nbytes, payload,
            "rndv", rts_arrival, ready_time, level,
        )
        found = self._match_posted(mailbox, key, context_id, to_src, tag)
        if found is not None:
            recv = found[0]
            self._complete_match(inbound, recv.request, recv.buffer,
                                 recv.post_time, found[1], fast_path=True)
            return request
        inbound.payload = np.array(payload.reshape(-1), copy=True)
        unexpected = mailbox.unexpected
        unexpected.append(key, inbound)
        self.unexpected_parked += 1
        depth = len(unexpected._live)
        if depth > self.max_unexpected_depth:
            self.max_unexpected_depth = depth
        if sink is not None:
            sink.parked(to_src, to_dst, nbytes, tag, rts_arrival, depth)
        return request

    def _match_posted(self, mailbox: _Mailbox, key: tuple, context_id: int,
                      src: int, tag: int):
        """Earliest posted receive matching an arriving message (or ``None``)."""
        posted = mailbox.posted
        if not posted._live:
            return None
        if mailbox.wildcards_posted:
            seq = posted.first_for_keys((
                key,
                (context_id, ANY_SOURCE, tag),
                (context_id, src, ANY_TAG),
                (context_id, ANY_SOURCE, ANY_TAG),
            ))
            return None if seq is None else posted.take(seq)
        return posted.take_for_key(key)

    def post_recv(
        self,
        owner: int,
        source_spec: int,
        buffer: np.ndarray,
        tag_spec: int,
        context_id: int,
        post_time: float,
    ) -> Request:
        """Post a receive at simulated ``post_time``."""
        request = Request("recv", owner)
        sink = self.sink
        if sink is not None:
            sink.recv_posted(owner, source_spec, tag_spec, post_time)
        mailbox = self._mailboxes[owner]
        unexpected = mailbox.unexpected
        wildcard = source_spec == ANY_SOURCE or tag_spec == ANY_TAG
        if wildcard:
            self.wildcard_receives += 1
        if unexpected._live:
            if not wildcard:
                found = unexpected.take_for_key((context_id, source_spec, tag_spec))
            else:
                seq = unexpected.first_matching(
                    lambda send: _matches(source_spec, tag_spec, context_id, send)
                )
                found = None if seq is None else unexpected.take(seq)
                if found is not None:
                    self.wildcard_scan_lengths.append(found[1])
            if found is not None:
                # No _PostedRecv record is needed: the receive never enters
                # a queue, its identity lives entirely in this match.
                self._complete_match(found[0], request, buffer, post_time, found[1],
                                     fast_path=False)
                return request
        if wildcard:
            mailbox.wildcards_posted = True
        mailbox.posted.append(
            (context_id, source_spec, tag_spec),
            _PostedRecv(request, owner, source_spec, tag_spec, context_id, buffer, post_time),
        )
        return request

    # -- internal ------------------------------------------------------------
    def _complete_match(self, inbound: _InboundSend, recv_request: Request,
                        buffer: np.ndarray, post_time: float, scanned: int,
                        *, fast_path: bool) -> None:
        self.matches += 1
        if fast_path:
            self.fast_path_matches += 1
        else:
            self.queued_matches += 1
        self.entries_scanned += scanned
        match_cost = scanned * self._match_overhead
        ready_time = inbound.ready_time
        later = ready_time if ready_time >= post_time else post_time  # max(), inlined
        if inbound.protocol == "eager":
            completion = later + match_cost + self._recv_overhead
            arrival = ready_time
        else:
            handshake = later + match_cost
            clear_to_send = handshake + self._half_rendezvous \
                + self.timing.control_latency(inbound.level)
            data_start = max(inbound.sender_ready, clear_to_send)
            src = inbound.src
            fold = self._fold
            if fold is not None and src >= self._sim_nprocs:
                # Mirrored rendezvous: price the data transfer as the
                # original representative send it stands in for.  Every
                # mirrored transfer corresponds 1:1 (at identical times,
                # by node-rotation symmetry) to one representative send,
                # so routing them all through node 0's NIC reproduces the
                # full run's NIC schedule exactly.
                src, dst = fold.mirror_outbound(src, inbound.dst)
            else:
                dst = inbound.dst
            sender_done, arrival, _ = self.timing.transfer(
                src, dst, inbound.nbytes, data_start, inbound.level
            )
            inbound.request.complete(sender_done)
            completion = arrival + self._recv_overhead
        payload = inbound.payload
        if buffer.dtype is payload.dtype and buffer.ndim == 1 and payload.ndim == 1 \
                and buffer.nbytes >= payload.nbytes:
            # Inlined _copy_payload fast path (flat views, same dtype).
            n = payload.shape[0]
            if n:
                buffer[:n] = payload
        else:
            _copy_payload(buffer, payload)
        # Inlined Request.complete for the receive: a matched posted receive
        # completes exactly once and completion >= 0 by construction; the
        # waiter (if the receiving rank is already blocked) fires first,
        # then any registered callbacks — the same order complete() keeps.
        recv_request.completion_time = completion
        recv_request.status = Status(inbound.src, inbound.tag, inbound.nbytes)
        waiter = recv_request.waiter
        if waiter is not None:
            recv_request.waiter = None
            waiter.notify()
        callbacks = recv_request._callbacks
        if callbacks is not None:
            recv_request._callbacks = None
            for callback in callbacks:
                callback(recv_request)
        sink = self.sink
        if sink is not None:
            sink.matched(inbound.src, inbound.dst, inbound.nbytes, inbound.tag,
                         fast_path, arrival, completion)

    # -- diagnostics -----------------------------------------------------------
    def pending_summary(self, max_per_rank: int = 8) -> list[str]:
        """Describe outstanding queue entries (used in deadlock reports).

        At most ``max_per_rank`` entries are described per rank — a deadlocked
        all-to-all can hold O(P) entries per mailbox, and the report exists to
        orient a human, not to dump the queues.
        """
        lines = []
        for rank, mailbox in enumerate(self._mailboxes):
            shown = 0
            for posted in mailbox.posted.entries():
                if shown < max_per_rank:
                    lines.append(
                        f"rank {rank}: posted recv waiting for source={posted.source_spec} "
                        f"tag={posted.tag_spec} ctx={posted.context_id}"
                    )
                shown += 1
            for inbound in mailbox.unexpected.entries():
                if shown < max_per_rank:
                    lines.append(
                        f"rank {rank}: unexpected message from {inbound.src} "
                        f"tag={inbound.tag} ctx={inbound.context_id} ({inbound.nbytes} bytes)"
                    )
                shown += 1
            if shown > max_per_rank:
                lines.append(f"rank {rank}: ... and {shown - max_per_rank} more queue entries")
        return lines
