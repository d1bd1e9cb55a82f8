"""Reference collective implementations built on simulated point-to-point.

These are the building blocks the paper's Algorithms 3–5 call into
(`MPI_Gather`, `MPI_Scatter`, `MPI_Alltoall` on sub-communicators, ...).
They use textbook algorithms:

* dissemination barrier,
* binomial-tree broadcast and reduce,
* linear (rooted) gather and scatter — which is what matters for the paper,
  because the gather/scatter bottleneck of the hierarchical algorithm is the
  serialization at the leader, and a linear rooted algorithm exposes it the
  same way the vendor implementations do for intra-node communicators,
* ring allgather,
* pairwise-exchange alltoall (the flat baseline; the configurable all-to-all
  family lives in :mod:`repro.core.alltoall`).

All functions are generator functions: call them with ``yield from``.
Every collective uses a tag above ``MAX_USER_TAG`` so collective traffic
never matches user point-to-point messages on the same communicator.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.errors import BufferSizeError, CommunicatorError
from repro.simmpi.datatypes import MAX_USER_TAG
from repro.simmpi.ops import LocalCopy, PostRecv, PostSend, Wait

__all__ = [
    "barrier",
    "bcast",
    "gather",
    "scatter",
    "allgather",
    "reduce",
    "allreduce",
    "alltoall",
    "alltoallv",
    "REDUCTION_OPS",
]

# Reserved tag block for collectives (one tag per collective kind).
TAG_BARRIER = MAX_USER_TAG + 1
TAG_BCAST = MAX_USER_TAG + 2
TAG_GATHER = MAX_USER_TAG + 3
TAG_SCATTER = MAX_USER_TAG + 4
TAG_ALLGATHER = MAX_USER_TAG + 5
TAG_REDUCE = MAX_USER_TAG + 6
TAG_ALLTOALL = MAX_USER_TAG + 7
TAG_ALLTOALLV = MAX_USER_TAG + 8

#: Reduction operators accepted by :func:`reduce` / :func:`allreduce`.
REDUCTION_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "sum": np.add,
    "prod": np.multiply,
    "max": np.maximum,
    "min": np.minimum,
}


def _check_root(comm, root: int) -> None:
    if not 0 <= root < comm.size:
        raise CommunicatorError(f"root {root} out of range for communicator of size {comm.size}")


def _block_items(sendbuf: np.ndarray, recvbuf: np.ndarray, size: int, op_name: str) -> int:
    """Common buffer validation for rooted/symmetric collectives."""
    if recvbuf.size != sendbuf.size * size:
        raise BufferSizeError(
            f"{op_name}: receive buffer must hold {size} blocks of {sendbuf.size} items, "
            f"got {recvbuf.size} items"
        )
    return sendbuf.size


# ---------------------------------------------------------------------------
# Barrier
# ---------------------------------------------------------------------------

def barrier(comm):
    """Dissemination barrier: ``ceil(log2(p))`` rounds of tiny sendrecvs."""
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    token = np.zeros(1, dtype=np.uint8)
    sink = np.zeros(1, dtype=np.uint8)
    distance = 1
    while distance < size:
        dest = (rank + distance) % size
        source = (rank - distance) % size
        yield from comm.sendrecv(token, dest, sink, source, sendtag=TAG_BARRIER, recvtag=TAG_BARRIER)
        distance *= 2


# ---------------------------------------------------------------------------
# Broadcast
# ---------------------------------------------------------------------------

def bcast(comm, buf: np.ndarray, root: int = 0):
    """Binomial-tree broadcast of ``buf`` from ``root`` to every rank."""
    _check_root(comm, root)
    size, rank = comm.size, comm.rank
    if size == 1:
        return
    vrank = (rank - root) % size

    # Receive from the parent (the rank that differs in the lowest set bit).
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % size
            yield from comm.recv(buf, source=parent, tag=TAG_BCAST)
            break
        mask <<= 1
    else:
        mask = 1
        while mask < size:
            mask <<= 1

    # Forward to children (higher bits below the bit we received on).
    mask >>= 1
    while mask > 0:
        if vrank & mask == 0 and vrank + mask < size:
            child = ((vrank + mask) + root) % size
            yield from comm.send(buf, dest=child, tag=TAG_BCAST)
        mask >>= 1


# ---------------------------------------------------------------------------
# Gather / Scatter
# ---------------------------------------------------------------------------

def gather(comm, sendbuf: np.ndarray, recvbuf: np.ndarray | None, root: int = 0):
    """Linear rooted gather: every rank's ``sendbuf`` ends up as block ``r`` of the root's ``recvbuf``."""
    _check_root(comm, root)
    size, rank = comm.size, comm.rank
    if rank != root:
        yield from comm.send(sendbuf, dest=root, tag=TAG_GATHER)
        return
    if recvbuf is None:
        raise BufferSizeError("gather: the root must supply a receive buffer")
    block = _block_items(sendbuf, recvbuf, size, "gather")
    recv_view = recvbuf.reshape(size, block) if block else recvbuf.reshape(size, 0)
    requests = []
    for src in range(size):
        if src == root:
            continue
        req = yield from comm.irecv(recv_view[src], source=src, tag=TAG_GATHER)
        requests.append(req)
    yield LocalCopy(dest=recv_view[root], source=sendbuf)
    yield from comm.waitall(requests)


def scatter(comm, sendbuf: np.ndarray | None, recvbuf: np.ndarray, root: int = 0):
    """Linear rooted scatter: block ``r`` of the root's ``sendbuf`` ends up in rank ``r``'s ``recvbuf``."""
    _check_root(comm, root)
    size, rank = comm.size, comm.rank
    if rank != root:
        yield from comm.recv(recvbuf, source=root, tag=TAG_SCATTER)
        return
    if sendbuf is None:
        raise BufferSizeError("scatter: the root must supply a send buffer")
    block = _block_items(recvbuf, sendbuf, size, "scatter")
    send_view = sendbuf.reshape(size, block) if block else sendbuf.reshape(size, 0)
    requests = []
    for dst in range(size):
        if dst == root:
            continue
        req = yield from comm.isend(send_view[dst], dest=dst, tag=TAG_SCATTER)
        requests.append(req)
    yield LocalCopy(dest=recvbuf, source=send_view[root])
    yield from comm.waitall(requests)


# ---------------------------------------------------------------------------
# Allgather
# ---------------------------------------------------------------------------

def allgather(comm, sendbuf: np.ndarray, recvbuf: np.ndarray):
    """Ring allgather: ``size - 1`` steps, each forwarding the previously received block."""
    size, rank = comm.size, comm.rank
    block = _block_items(sendbuf, recvbuf, size, "allgather")
    recv_view = recvbuf.reshape(size, block) if block else recvbuf.reshape(size, 0)
    yield LocalCopy(dest=recv_view[rank], source=sendbuf)
    if size == 1:
        return
    right = (rank + 1) % size
    left = (rank - 1) % size
    for step in range(size - 1):
        send_block = (rank - step) % size
        recv_block = (rank - step - 1) % size
        yield from comm.sendrecv(
            recv_view[send_block], right, recv_view[recv_block], left,
            sendtag=TAG_ALLGATHER, recvtag=TAG_ALLGATHER,
        )


# ---------------------------------------------------------------------------
# Reduce / Allreduce
# ---------------------------------------------------------------------------

def reduce(comm, sendbuf: np.ndarray, recvbuf: np.ndarray | None, op: str = "sum", root: int = 0):
    """Binomial-tree reduction of ``sendbuf`` into the root's ``recvbuf``."""
    _check_root(comm, root)
    if op not in REDUCTION_OPS:
        raise CommunicatorError(f"unknown reduction op {op!r}; choose from {sorted(REDUCTION_OPS)}")
    operator = REDUCTION_OPS[op]
    size, rank = comm.size, comm.rank
    if rank == root and recvbuf is None:
        raise BufferSizeError("reduce: the root must supply a receive buffer")
    if rank == root and recvbuf.size != sendbuf.size:
        raise BufferSizeError("reduce: send and receive buffers must have the same size")

    accumulator = np.array(sendbuf, copy=True)
    incoming = np.empty_like(sendbuf)
    vrank = (rank - root) % size
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % size
            yield from comm.send(accumulator, dest=parent, tag=TAG_REDUCE)
            break
        child_v = vrank | mask
        if child_v < size:
            child = (child_v + root) % size
            yield from comm.recv(incoming, source=child, tag=TAG_REDUCE)
            accumulator = operator(accumulator, incoming)
        mask <<= 1
    if rank == root:
        yield LocalCopy(dest=recvbuf, source=accumulator)


def allreduce(comm, sendbuf: np.ndarray, recvbuf: np.ndarray, op: str = "sum"):
    """Reduce to rank 0 followed by a broadcast (sufficient for this package's needs)."""
    if recvbuf.size != sendbuf.size:
        raise BufferSizeError("allreduce: send and receive buffers must have the same size")
    yield from reduce(comm, sendbuf, recvbuf, op=op, root=0)
    yield from bcast(comm, recvbuf, root=0)


# ---------------------------------------------------------------------------
# Alltoall (flat pairwise baseline)
# ---------------------------------------------------------------------------

def alltoall(comm, sendbuf: np.ndarray, recvbuf: np.ndarray):
    """Flat pairwise-exchange all-to-all (Algorithm 1 of the paper).

    Block ``d`` of ``sendbuf`` is delivered to rank ``d``; block ``s`` of
    ``recvbuf`` receives the data sent by rank ``s``.
    """
    size, rank = comm.size, comm.rank
    if sendbuf.size != recvbuf.size:
        raise BufferSizeError("alltoall: send and receive buffers must have the same size")
    if sendbuf.size % size != 0:
        raise BufferSizeError(
            f"alltoall: buffer of {sendbuf.size} items is not divisible into {size} blocks"
        )
    block = sendbuf.size // size
    send_view = sendbuf.reshape(size, block) if block else sendbuf.reshape(size, 0)
    recv_view = recvbuf.reshape(size, block) if block else recvbuf.reshape(size, 0)
    yield LocalCopy(dest=recv_view[rank], source=send_view[rank])
    for step in range(1, size):
        dest = (rank + step) % size
        source = (rank - step) % size
        yield from comm.sendrecv(
            send_view[dest], dest, recv_view[source], source,
            sendtag=TAG_ALLTOALL, recvtag=TAG_ALLTOALL,
        )


# ---------------------------------------------------------------------------
# Alltoallv (variable per-peer counts)
# ---------------------------------------------------------------------------

def _check_v_layout(buf: np.ndarray, counts: np.ndarray, displs: np.ndarray, name: str) -> None:
    if displs.size != counts.size:
        raise BufferSizeError(
            f"alltoallv: {name} needs {counts.size} displacements, got {displs.size}"
        )
    if counts.size and ((displs < 0).any() or (displs + counts > buf.size).any()):
        raise BufferSizeError(
            f"alltoallv: {name} blocks exceed the {buf.size}-item buffer"
        )


def alltoallv(comm, sendbuf, sendcounts, sdispls, recvbuf, recvcounts, rdispls):
    """Pairwise-exchange ``MPI_Alltoallv``: variable per-peer block sizes.

    Rank ``r`` sends ``sendcounts[d]`` items starting at ``sdispls[d]`` of
    ``sendbuf`` to every rank ``d`` and receives ``recvcounts[s]`` items into
    ``recvbuf`` at ``rdispls[s]`` from every rank ``s``.  Counts of zero skip
    the transfer entirely (both sides derive the schedule from the same count
    vectors, so no rank ever waits for a message that is never sent) — sparse
    traffic matrices therefore cost only the messages they actually contain.
    """
    from repro.utils.buffers import _as_item_array, check_v_counts

    size, rank = comm.size, comm.rank
    sendcounts = check_v_counts(sendcounts, size, name="sendcounts")
    recvcounts = check_v_counts(recvcounts, size, name="recvcounts")
    sdispls = _as_item_array(sdispls, name="sdispls")
    rdispls = _as_item_array(rdispls, name="rdispls")
    _check_v_layout(sendbuf, sendcounts, sdispls, "send")
    _check_v_layout(recvbuf, recvcounts, rdispls, "receive")
    if sendcounts[rank] != recvcounts[rank]:
        raise BufferSizeError(
            f"alltoallv: rank {rank} sends itself {sendcounts[rank]} items "
            f"but expects to receive {recvcounts[rank]}"
        )
    if sendcounts[rank]:
        yield LocalCopy(
            dest=recvbuf[rdispls[rank]: rdispls[rank] + recvcounts[rank]],
            source=sendbuf[sdispls[rank]: sdispls[rank] + sendcounts[rank]],
        )
    # The step loop yields the primitive operations directly (the op sequence
    # of the former irecv/isend/waitall calls): this is the hot path of every
    # non-uniform workload simulation, and the per-step buffer checks and
    # rank translation are loop-invariant.
    world = comm.group.world_ranks
    context_id = comm.context_id
    for step in range(1, size):
        dest = (rank + step) % size
        source = (rank - step) % size
        requests = []
        if recvcounts[source]:
            req = yield PostRecv(
                world[source],
                recvbuf[rdispls[source]: rdispls[source] + recvcounts[source]],
                TAG_ALLTOALLV, context_id,
            )
            requests.append(req)
        if sendcounts[dest]:
            req = yield PostSend(
                world[dest],
                sendbuf[sdispls[dest]: sdispls[dest] + sendcounts[dest]],
                TAG_ALLTOALLV, context_id,
            )
            requests.append(req)
        if requests:
            yield Wait(tuple(requests))
