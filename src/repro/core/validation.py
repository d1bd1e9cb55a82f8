"""Reference all-to-all results and result validation.

Every algorithm in :mod:`repro.core.alltoall` must produce exactly the same
receive buffers as the defining transposition: block ``s`` of rank ``r``'s
receive buffer equals block ``r`` of rank ``s``'s send buffer.  The helpers
here compute the expected buffers for the deterministic test pattern of
:func:`repro.utils.buffers.make_alltoall_sendbuf` and check whole-job
results, so the runner can validate every simulated exchange it performs.

Item ``j`` of the block source ``s`` sends to destination ``d`` is
``(s * nprocs + d) * 1000 + j``, wrapped into the buffer dtype exactly as
casting that int64 value would wrap it.  For an integer dtype of N bits the
builders form items in the dtype itself: they cast the small per-block base
vector and the ramp into it and add there.  Casting int64 into an N-bit
integer is reduction mod 2**N, and N-bit integer addition wraps mod 2**N;
reduction mod 2**N respects addition, so the sum of the reduced operands is
the reduced sum, byte for byte, and no int64 grid of items is ever built.
Float dtypes are excluded: a float add rounds instead of wrapping, so
adding separately cast operands could round twice (float32 holds integers
exactly only below 2**24).  Their items are formed in int64 and cast once.

The uniform references (plain and folded) are built by :func:`_tagged_blocks`
as one outer sum of per-block bases and the ramp, so a folded
representative's reference is one NumPy pass even at paper scale (172,032
ranks).  The ``workload`` variants generalise this to non-uniform exchanges
driven by a per-pair count matrix (``alltoallv`` semantics): block sizes
vary per (source, destination) pair, but the tagging scheme is identical,
so uniform and non-uniform validation are directly comparable.  Their
packed buffers are built by :func:`_tagged_runs` with one ``np.repeat`` of
per-run offsets plus one position ramp, with no loop over pairs.
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


#: Length of the ramp that :func:`_tagged_runs` offsets chunk by chunk to
#: form the position ramp of a packed buffer in an integer dtype.
_RAMP_CHUNK = 4096


def _tagged_blocks(src_tags, dest_tags, nprocs: int, block_items: int, dtype) -> np.ndarray:
    """Blocks of the test pattern, one per ``(src_tags[i], dest_tags[i])`` pair.

    ``src_tags`` is an int64 array with one entry per block; ``dest_tags`` is
    a matching array or one scalar for every block.  Item ``j`` of block
    ``i`` is ``(src_tags[i] * nprocs + dest_tags[i]) * 1000 + j``.  All
    blocks are one outer sum of the per-block bases and the ramp: for an
    integer ``dtype`` both are cast into it first and added there (see the
    module docstring); for a float ``dtype`` the int64 sum is cast once.
    """
    if block_items < 0:
        raise BufferSizeError("block_items must be non-negative")
    dtype = np.dtype(dtype)
    bases = (src_tags * nprocs + dest_tags) * 1000
    ramp = np.arange(block_items, dtype=np.int64)
    if dtype.kind in "iu":
        bases, ramp = bases.astype(dtype), ramp.astype(dtype)
    return (bases[:, None] + ramp).astype(dtype, copy=False).reshape(-1)


def _tagged_runs(src_tags, dest_tags, nprocs: int, lengths: np.ndarray, dtype) -> np.ndarray:
    """Packed runs of the test pattern, ``lengths[i]`` items for pair ``i``.

    The ``alltoallv`` analogue of :func:`_tagged_blocks`: the runs are laid
    end to end, and item ``j`` of run ``i`` is
    ``(src_tags[i] * nprocs + dest_tags[i]) * 1000 + j``.  A run that starts
    at position ``start`` holds ``(base - start) + k`` at position ``k``, so
    one ``np.repeat`` of the per-run offsets ``base - start`` plus the
    position ramp builds every run.  For an integer ``dtype`` both terms are
    formed in it (see the module docstring): the offsets are cast, and the
    position ramp is the outer sum of the chunk starts and a
    ``_RAMP_CHUNK``-item ramp, both cast, so no int64 array of items is
    built.  For a float ``dtype`` the int64 sum is cast once.
    """
    ends = np.add.accumulate(lengths)
    total = int(ends[-1]) if ends.size else 0
    offsets = (src_tags * nprocs + dest_tags) * 1000 - (ends - lengths)
    dtype = np.dtype(dtype)
    if dtype.kind not in "iu":
        return (np.repeat(offsets, lengths) + np.arange(total, dtype=np.int64)).astype(dtype)
    chunk = np.arange(min(total, _RAMP_CHUNK), dtype=np.int64).astype(dtype)
    starts = np.arange(0, total, _RAMP_CHUNK, dtype=np.int64).astype(dtype)
    runs = np.repeat(offsets.astype(dtype), lengths)
    runs += (starts[:, None] + chunk).reshape(-1)[:total]
    return runs


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


def make_workload_sendbuf(rank: int, counts, dtype=np.int64) -> np.ndarray:
    """Build rank ``rank``'s deterministic packed send buffer for a count matrix.

    ``counts[s, d]`` is the number of items ``s`` sends to ``d``; the buffer
    concatenates the variable-size blocks for destinations ``0..p-1`` with
    the tagging scheme of :func:`repro.utils.buffers.make_alltoall_sendbuf`,
    built in one pass (see :func:`_tagged_runs`).
    """
    arr = check_counts_matrix(counts)
    nprocs = arr.shape[0]
    return _tagged_runs(rank, np.arange(nprocs, dtype=np.int64), nprocs, arr[rank], dtype)


def expected_workload_result(rank: int, counts, dtype=np.int64) -> np.ndarray:
    """Expected packed receive buffer of ``rank`` for the workload test pattern."""
    arr = check_counts_matrix(counts)
    nprocs = arr.shape[0]
    return _tagged_runs(np.arange(nprocs, dtype=np.int64), rank, nprocs, arr[:, rank], dtype)


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
    src = np.arange(nprocs, dtype=np.int64)
    shifted_dest = (rank - (src // ppn) * ppn) % nprocs
    return _tagged_runs(src % ppn, shifted_dest, nprocs, arr[:, rank], dtype)


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
