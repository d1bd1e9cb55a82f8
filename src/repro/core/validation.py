"""Reference all-to-all results and result validation.

Every algorithm in :mod:`repro.core.alltoall` must produce exactly the same
receive buffers as the defining transposition: block ``s`` of rank ``r``'s
receive buffer equals block ``r`` of rank ``s``'s send buffer.  The helpers
here compute the expected buffers for the deterministic test pattern of
:func:`repro.utils.buffers.make_alltoall_sendbuf` and check whole-job
results, so the runner can validate every simulated exchange it performs.

The uniform references (plain and folded) are built by one helper: given a
source tag and a destination tag per block, it forms every item as one
int64 outer sum ``(src_tag * nprocs + dest_tag) * 1000 + ramp`` and casts
the grid once into the buffer dtype — the int64-then-wrap convention of the
send buffers, with no Python loop over sources.  A folded representative's
reference is therefore one NumPy pass even at paper scale (172,032 ranks).

The ``workload`` variants generalise all of this to non-uniform exchanges
driven by a per-pair count matrix (``alltoallv`` semantics): block sizes
vary per (source, destination) pair, but the deterministic tagging scheme —
``(source * nprocs + dest) * 1000`` plus an arithmetic ramp — is identical,
so uniform and non-uniform validation are directly comparable.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import BufferSizeError
from repro.utils.buffers import check_counts_matrix, make_alltoall_sendbuf

__all__ = [
    "expected_alltoall_result",
    "validate_alltoall_results",
    "alltoall_reference",
    "expected_folded_alltoall_result",
    "validate_folded_alltoall_results",
    "make_workload_sendbuf",
    "expected_workload_result",
    "validate_workload_results",
    "expected_folded_workload_result",
    "validate_folded_workload_results",
    "alltoallv_reference",
]


def _tagged_blocks(src_tags, dest_tags, nprocs: int, block_items: int, dtype) -> np.ndarray:
    """Blocks of the test pattern, one per ``(src_tags[i], dest_tags[i])`` pair.

    ``src_tags`` is an int64 array with one entry per block; ``dest_tags`` is
    a matching array or one scalar for every block.  Item ``j`` of block
    ``i`` is ``(src_tags[i] * nprocs + dest_tags[i]) * 1000 + j``, formed as
    one int64 outer sum and cast once into ``dtype`` (the int64-then-wrap
    convention of :func:`make_alltoall_sendbuf`, so small integer dtypes
    hold the wrapped pattern).
    """
    if block_items < 0:
        raise BufferSizeError("block_items must be non-negative")
    bases = (src_tags * nprocs + dest_tags) * 1000
    ramp = np.arange(block_items, dtype=np.int64)
    return (bases[:, None] + ramp[None, :]).astype(dtype).reshape(-1)


def expected_alltoall_result(rank: int, nprocs: int, block_items: int, dtype=np.int64) -> np.ndarray:
    """Expected receive buffer of ``rank`` when every rank sent the test pattern.

    Block ``s`` is block ``rank`` of source ``s``'s send buffer, so it is
    tagged ``(s, rank)``.  All ``nprocs`` blocks are built as one outer sum
    (see :func:`_tagged_blocks`) — the same bytes as building every rank's
    buffer with :func:`make_alltoall_sendbuf` and extracting block ``rank``
    of each.
    """
    return _tagged_blocks(np.arange(nprocs, dtype=np.int64), rank, nprocs, block_items, dtype)


def alltoall_reference(sendbufs: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Reference all-to-all on in-memory buffers (the defining transposition).

    ``sendbufs[r]`` is rank ``r``'s send buffer with ``len(sendbufs)`` equal
    blocks.  Returns the list of receive buffers.  Used by property-based
    tests to compare simulated algorithms against an independent oracle.
    """
    nprocs = len(sendbufs)
    if nprocs == 0:
        raise BufferSizeError("need at least one rank")
    size = sendbufs[0].size
    if size % nprocs != 0:
        raise BufferSizeError(f"buffer of {size} items does not divide into {nprocs} blocks")
    block = size // nprocs
    stacked = np.stack([np.asarray(b).reshape(nprocs, block) for b in sendbufs])
    # stacked[s, d] is the block source s sends to destination d; the result
    # for destination d is stacked[:, d] flattened in source order.
    return [np.ascontiguousarray(stacked[:, d]).reshape(-1) for d in range(nprocs)]


def _check_folded_rank(rank: int, nprocs: int, ppn: int) -> None:
    """Enforce the folded references' input contract.

    ``ppn`` must be at least 1 and divide ``nprocs``, and ``rank`` must be a
    representative, i.e. a local index in ``[0, ppn)``.  Without the check,
    ``ppn = 0`` would build a silently wrong reference (NumPy's ``// 0``
    only warns).
    """
    if ppn < 1:
        raise BufferSizeError(f"folded reference needs ppn >= 1, got {ppn}")
    if nprocs % ppn != 0:
        raise BufferSizeError(
            f"folded reference needs ppn dividing nprocs, got {nprocs} ranks at ppn {ppn}"
        )
    if not 0 <= rank < ppn:
        raise BufferSizeError(
            f"folded representative must be a local rank in [0, {ppn}), got {rank}"
        )


def expected_folded_alltoall_result(
    rank: int, nprocs: int, ppn: int, block_items: int, dtype=np.int64
) -> np.ndarray:
    """Expected receive buffer of representative ``rank`` in a *folded* job.

    A symmetry-folded run (:mod:`repro.machine.folding`) delivers, in place
    of the message a folded-out rank ``s`` would have sent, the mirror of a
    representative send — the same bytes the representative with local index
    ``s % ppn`` staged for the rotated destination.  Composing the rotation
    across however many hops an algorithm routes the data through, block
    ``s`` of representative ``rank`` ends up holding the sender pattern of
    source ``s % ppn`` for destination ``(rank - (s // ppn) * ppn) % nprocs``
    — the full run's content relabelled by the node rotation, exactly (this
    holds for every node-rotation-equivariant algorithm; the fold gate
    checks it across the registry).  Validating against this reference is
    therefore exact for folded jobs, complementing the unfolded content
    check of :func:`expected_alltoall_result`.

    Both tags are computed for all ``nprocs`` sources at once and the blocks
    built as one outer sum (see :func:`_tagged_blocks`).  ``ppn`` must be at
    least 1 and divide ``nprocs``, and ``rank`` must be a representative in
    ``[0, ppn)``; anything else raises :class:`BufferSizeError`.
    """
    _check_folded_rank(rank, nprocs, ppn)
    src = np.arange(nprocs, dtype=np.int64)
    shifted_dest = (rank - (src // ppn) * ppn) % nprocs
    return _tagged_blocks(src % ppn, shifted_dest, nprocs, block_items, dtype)


def validate_folded_alltoall_results(
    results: Sequence[np.ndarray],
    nprocs: int,
    ppn: int,
    block_items: int,
) -> bool:
    """Check a folded job's representative receive buffers (one per local rank).

    ``results`` holds the ``ppn`` representatives' buffers; each is compared
    against :func:`expected_folded_alltoall_result`.
    """
    if len(results) != ppn:
        raise BufferSizeError(
            f"folded job should produce {ppn} representative buffers, got {len(results)}"
        )
    for rank, buf in enumerate(results):
        if buf is None:
            return False
        arr = np.asarray(buf)
        if arr.size != nprocs * block_items:
            raise BufferSizeError(
                f"representative {rank} produced {arr.size} items, "
                f"expected {nprocs * block_items}"
            )
        expected = expected_folded_alltoall_result(
            rank, nprocs, ppn, block_items, dtype=arr.dtype
        )
        if not np.array_equal(arr.reshape(-1), expected):
            return False
    return True


def _workload_pattern(src: int, dest: int, nprocs: int, items: int, dtype) -> np.ndarray:
    # Same int64-then-wrap convention as make_alltoall_sendbuf.
    base = src * nprocs + dest
    return (base * 1000 + np.arange(items, dtype=np.int64)).astype(dtype)


def make_workload_sendbuf(rank: int, counts, dtype=np.int64) -> np.ndarray:
    """Build rank ``rank``'s deterministic packed send buffer for a count matrix.

    ``counts[s, d]`` is the number of items ``s`` sends to ``d``; the buffer
    concatenates the variable-size blocks for destinations ``0..p-1`` with
    the tagging scheme of :func:`repro.utils.buffers.make_alltoall_sendbuf`.
    """
    arr = check_counts_matrix(counts)
    nprocs = arr.shape[0]
    row = arr[rank]
    buf = np.empty(int(row.sum()), dtype=dtype)
    pos = 0
    for dest in range(nprocs):
        items = int(row[dest])
        buf[pos: pos + items] = _workload_pattern(rank, dest, nprocs, items, dtype)
        pos += items
    return buf


def expected_workload_result(rank: int, counts, dtype=np.int64) -> np.ndarray:
    """Expected packed receive buffer of ``rank`` for the workload test pattern."""
    arr = check_counts_matrix(counts)
    nprocs = arr.shape[0]
    col = arr[:, rank]
    out = np.empty(int(col.sum()), dtype=dtype)
    pos = 0
    for src in range(nprocs):
        items = int(col[src])
        out[pos: pos + items] = _workload_pattern(src, rank, nprocs, items, dtype)
        pos += items
    return out


def expected_folded_workload_result(rank: int, counts, ppn: int, dtype=np.int64) -> np.ndarray:
    """Expected packed receive buffer of representative ``rank`` in a folded job.

    The workload analogue of :func:`expected_folded_alltoall_result`: block
    ``s`` carries ``counts[s, rank]`` items tagged with source ``s % ppn``
    and the node-rotated destination.  Only meaningful for count matrices
    that passed the symmetry analyzer (rotation-invariant), which is the
    precondition for folding a workload at all.  Raises
    :class:`BufferSizeError` unless ``ppn`` is at least 1 and divides the
    matrix's rank count and ``rank`` is a representative in ``[0, ppn)``.
    """
    arr = check_counts_matrix(counts)
    nprocs = arr.shape[0]
    _check_folded_rank(rank, nprocs, ppn)
    col = arr[:, rank]
    out = np.empty(int(col.sum()), dtype=dtype)
    pos = 0
    for src in range(nprocs):
        items = int(col[src])
        shifted_dest = (rank - (src // ppn) * ppn) % nprocs
        out[pos: pos + items] = _workload_pattern(src % ppn, shifted_dest, nprocs, items, dtype)
        pos += items
    return out


def validate_folded_workload_results(results: Sequence[np.ndarray], counts, ppn: int) -> bool:
    """Check a folded workload job's representative packed receive buffers."""
    arr = check_counts_matrix(counts)
    if len(results) != ppn:
        raise BufferSizeError(
            f"folded job should produce {ppn} representative buffers, got {len(results)}"
        )
    for rank, buf in enumerate(results):
        if buf is None:
            return False
        got = np.asarray(buf)
        expected_items = int(arr[:, rank].sum())
        if got.size != expected_items:
            raise BufferSizeError(
                f"representative {rank} produced {got.size} items, expected {expected_items}"
            )
        expected = expected_folded_workload_result(rank, arr, ppn, dtype=got.dtype)
        if not np.array_equal(got.reshape(-1), expected):
            return False
    return True


def alltoallv_reference(sendbufs: Sequence[np.ndarray], counts) -> list[np.ndarray]:
    """Reference alltoallv on in-memory packed buffers (the defining transposition).

    ``sendbufs[s]`` holds rank ``s``'s packed send buffer with block sizes
    ``counts[s, :]``; the returned receive buffers concatenate, for each
    destination ``d``, the blocks ``counts[s, d]`` in source order.  Used by
    property-based tests as an independent oracle for the v-algorithms.
    """
    arr = check_counts_matrix(counts)
    nprocs = arr.shape[0]
    if len(sendbufs) != nprocs:
        raise BufferSizeError(f"expected {nprocs} send buffers, got {len(sendbufs)}")
    displs = np.zeros((nprocs, nprocs), dtype=np.int64)
    np.cumsum(arr[:, :-1], axis=1, out=displs[:, 1:])
    results = []
    for dest in range(nprocs):
        chunks = []
        for src in range(nprocs):
            buf = np.asarray(sendbufs[src])
            if buf.size != int(arr[src].sum()):
                raise BufferSizeError(
                    f"send buffer of rank {src} has {buf.size} items but its counts "
                    f"sum to {int(arr[src].sum())}"
                )
            start = displs[src, dest]
            chunks.append(buf[start: start + arr[src, dest]])
        results.append(np.concatenate(chunks) if chunks else np.empty(0))
    return results


def validate_workload_results(results: Sequence[np.ndarray], counts) -> bool:
    """Check a whole job's packed receive buffers against the workload test pattern.

    Returns ``True`` when every rank's buffer matches; raises
    :class:`BufferSizeError` on size mismatches (which would otherwise
    masquerade as value mismatches).
    """
    arr = check_counts_matrix(counts)
    nprocs = arr.shape[0]
    if len(results) != nprocs:
        raise BufferSizeError(f"expected {nprocs} result buffers, got {len(results)}")
    for rank, buf in enumerate(results):
        if buf is None:
            return False
        got = np.asarray(buf)
        expected_items = int(arr[:, rank].sum())
        if got.size != expected_items:
            raise BufferSizeError(
                f"rank {rank} produced {got.size} items, expected {expected_items}"
            )
        expected = expected_workload_result(rank, arr, dtype=got.dtype)
        if not np.array_equal(got.reshape(-1), expected):
            return False
    return True


def validate_alltoall_results(
    results: Sequence[np.ndarray],
    nprocs: int,
    block_items: int,
) -> bool:
    """Check a whole job's receive buffers against the expected test pattern.

    Returns ``True`` when every rank's buffer matches; raises
    :class:`BufferSizeError` when a buffer has the wrong size (which would
    otherwise masquerade as a value mismatch).
    """
    if len(results) != nprocs:
        raise BufferSizeError(f"expected {nprocs} result buffers, got {len(results)}")
    for rank, buf in enumerate(results):
        if buf is None:
            return False
        arr = np.asarray(buf)
        if arr.size != nprocs * block_items:
            raise BufferSizeError(
                f"rank {rank} produced {arr.size} items, expected {nprocs * block_items}"
            )
        expected = expected_alltoall_result(rank, nprocs, block_items, dtype=arr.dtype)
        if not np.array_equal(arr.reshape(-1), expected):
            return False
    return True
