"""Buffer helpers used by the all-to-all algorithms.

All collective algorithms in this package operate on flat, C-contiguous
NumPy arrays divided into equally sized *blocks*, one block per peer
process, mirroring the layout of ``MPI_Alltoall`` send/receive buffers.
These helpers centralise the block arithmetic so the algorithm modules can
stay close to the paper's pseudocode.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import BufferSizeError

__all__ = [
    "check_buffer",
    "block_slice",
    "as_block_view",
    "split_blocks",
    "concat_blocks",
    "make_alltoall_sendbuf",
    "displacements_from_counts",
    "check_v_counts",
    "check_counts_matrix",
]


def check_buffer(buf: np.ndarray, nblocks: int, block_items: int, *, name: str = "buffer") -> np.ndarray:
    """Validate that ``buf`` is a flat contiguous array of ``nblocks * block_items`` items.

    Returns the validated buffer (possibly the same object) so the call can
    be used inline.  Raises :class:`BufferSizeError` when the shape does not
    match and ``TypeError`` when the argument is not a NumPy array.
    """
    if not isinstance(buf, np.ndarray):
        raise TypeError(f"{name} must be a numpy.ndarray, got {type(buf).__name__}")
    if buf.ndim != 1:
        raise BufferSizeError(f"{name} must be one-dimensional, got shape {buf.shape}")
    if not buf.flags["C_CONTIGUOUS"]:
        raise BufferSizeError(f"{name} must be C-contiguous")
    expected = nblocks * block_items
    if buf.size != expected:
        raise BufferSizeError(
            f"{name} has {buf.size} items but the collective requires "
            f"{nblocks} blocks x {block_items} items = {expected}"
        )
    return buf


def block_slice(block: int, block_items: int) -> slice:
    """Return the slice selecting block ``block`` of a block-partitioned buffer."""
    if block < 0:
        raise ValueError(f"block index must be non-negative, got {block}")
    if block_items < 0:
        raise ValueError(f"block_items must be non-negative, got {block_items}")
    start = block * block_items
    return slice(start, start + block_items)


def as_block_view(buf: np.ndarray, nblocks: int, block_items: int) -> np.ndarray:
    """Return a 2-D view of ``buf`` with one row per block (no copy)."""
    check_buffer(buf, nblocks, block_items)
    return buf.reshape(nblocks, block_items)


def split_blocks(buf: np.ndarray, nblocks: int) -> list[np.ndarray]:
    """Split ``buf`` into ``nblocks`` equally sized contiguous views."""
    if nblocks <= 0:
        raise ValueError(f"nblocks must be positive, got {nblocks}")
    if buf.size % nblocks != 0:
        raise BufferSizeError(f"buffer of {buf.size} items cannot be split into {nblocks} equal blocks")
    block_items = buf.size // nblocks
    return [buf[block_slice(i, block_items)] for i in range(nblocks)]


def concat_blocks(blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate blocks into a single contiguous buffer (copies)."""
    if len(blocks) == 0:
        raise ValueError("cannot concatenate an empty sequence of blocks")
    return np.concatenate([np.asarray(b).ravel() for b in blocks])


def _as_item_array(values, *, name: str) -> np.ndarray:
    """Return item counts or displacements as an ``int64`` array.

    Whole-valued floats convert exactly; a non-finite or fractional entry
    raises :class:`BufferSizeError` instead of being truncated (a count of
    1.5 items would otherwise move one item without complaint).  Integer
    input skips the check, so the simulator's hot path pays nothing.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu":
        as_float = arr.astype(np.float64)
        if not np.isfinite(as_float).all() or (as_float != np.trunc(as_float)).any():
            raise BufferSizeError(f"{name} entries must be whole numbers of items")
    return np.asarray(arr, dtype=np.int64)


def displacements_from_counts(counts: Sequence[int] | np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of ``counts`` — the packed-layout displacements of ``MPI_Alltoallv``.

    ``displacements_from_counts([3, 0, 2])`` is ``[0, 3, 3]``: block ``i``
    occupies ``[displs[i], displs[i] + counts[i])`` of the flat buffer.
    """
    arr = _as_item_array(counts, name="counts")
    displs = np.zeros(arr.size, dtype=np.int64)
    if arr.size > 1:
        np.cumsum(arr[:-1], out=displs[1:])
    return displs


def check_v_counts(counts: Sequence[int] | np.ndarray, nblocks: int, *, name: str = "counts") -> np.ndarray:
    """Validate a per-peer count vector for a v-style (variable-size) collective.

    Returns the counts as an ``int64`` array; raises
    :class:`BufferSizeError` when the length does not match the peer count or
    any entry is negative, fractional or not finite.
    """
    arr = _as_item_array(counts, name=name)
    if arr.ndim != 1 or arr.size != nblocks:
        raise BufferSizeError(
            f"{name} must be a flat vector of {nblocks} entries, got shape {arr.shape}"
        )
    if (arr < 0).any():
        raise BufferSizeError(f"{name} entries must be non-negative")
    return arr


def check_counts_matrix(counts, nprocs: int | None = None, *, name: str = "count") -> np.ndarray:
    """Validate a square per-pair count matrix and return it as ``int64``.

    The single checker behind every alltoallv-style consumer (v-algorithms,
    workload validation).  When ``nprocs`` is given the shape must be exactly
    ``(nprocs, nprocs)``; otherwise any square matrix is accepted.  Entries
    must be non-negative whole numbers: whole-valued floats convert, while a
    fractional or non-finite entry raises :class:`BufferSizeError`.
    """
    arr = _as_item_array(counts, name=f"{name} matrix")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise BufferSizeError(f"the {name} matrix must be square, got shape {arr.shape}")
    if nprocs is not None and arr.shape[0] != nprocs:
        raise BufferSizeError(
            f"the {name} matrix must have shape ({nprocs}, {nprocs}), got {arr.shape}"
        )
    if (arr < 0).any():
        raise BufferSizeError(f"{name} matrix entries must be non-negative")
    return arr


def make_alltoall_sendbuf(rank: int, nprocs: int, block_items: int, dtype=np.int64) -> np.ndarray:
    """Build a deterministic all-to-all send buffer for testing and examples.

    Block ``d`` (destined for rank ``d``) of rank ``rank`` is filled with the
    values ``rank * nprocs + d`` followed by an arithmetic ramp, making every
    (source, destination, offset) triple uniquely identifiable.  The matching
    expected receive buffer can be produced with the same function by swapping
    the roles of source and destination (see
    :func:`repro.core.validation.expected_alltoall_result`).
    """
    if block_items < 0:
        raise ValueError("block_items must be non-negative")
    buf = np.empty(nprocs * block_items, dtype=dtype)
    if block_items:
        # The pattern wraps into small integer dtypes (e.g. uint8 payload
        # buffers) exactly as an int64 value cast into them would.  One
        # vectorised outer sum builds every block (the buffer build is part
        # of every simulated job's setup cost); block d's base is
        # (rank * nprocs + d) * 1000.
        bases = np.arange(rank * nprocs * 1000, (rank + 1) * nprocs * 1000, 1000, dtype=np.int64)
        ramp = np.arange(block_items, dtype=np.int64)
        if buf.dtype.kind in "iu":
            # The add runs in the dtype itself: casting int64 into an N-bit
            # integer reduces mod 2**N and the N-bit add wraps mod 2**N, so
            # narrowing the operands first gives the same bytes as the int64
            # sum cast afterwards, without an int64 pass over every item.
            bases = bases.astype(buf.dtype)
            ramp = ramp.astype(buf.dtype)
        # Float dtypes add in int64 and cast each sum on store (the same C
        # cast as astype) without materialising the int64 grid.
        np.add(bases[:, None], ramp, out=buf.reshape(nprocs, block_items), casting="unsafe")
    return buf
