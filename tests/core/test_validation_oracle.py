"""The test-pattern builders must reproduce their former loop bodies byte for byte.

Every send buffer and reference is now formed without a Python loop over
blocks, and for integer dtypes directly in the dtype (see
:mod:`repro.core.validation`).  The ``_reference_*`` functions below are
the bodies these builders had before, kept verbatim as oracles: the
per-source loops of the uniform references, the int64 ``np.add`` pass of
:func:`make_alltoall_sendbuf` and the per-pair loops of the ``alltoallv``
builders.  Every comparison demands the same ``dtype``, the same shape and
the same ``tobytes()``, so a wrap, a sign or a float rounding that differs
in any item fails, and so does a block or run in the wrong place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.validation import (
    expected_alltoall_result,
    expected_folded_alltoall_result,
    expected_folded_workload_result,
    expected_workload_result,
    make_workload_sendbuf,
)
from repro.errors import BufferSizeError
from repro.utils.buffers import check_counts_matrix, make_alltoall_sendbuf
from repro.workloads import TrafficMatrix, skewed_moe


# ---------------------------------------------------------------------------
# Oracles: the former loop bodies
# ---------------------------------------------------------------------------

def _reference_expected_alltoall_result(rank: int, nprocs: int, block_items: int, dtype=np.int64) -> np.ndarray:
    if block_items < 0:
        raise BufferSizeError("block_items must be non-negative")
    out = np.empty(nprocs * block_items, dtype=dtype)
    view = out.reshape(nprocs, block_items) if block_items else out.reshape(nprocs, 0)
    ramp = np.arange(block_items, dtype=np.int64)
    for src in range(nprocs):
        base = src * nprocs + rank
        if block_items:
            # Same int64-then-wrap convention as make_alltoall_sendbuf.
            view[src, :] = (base * 1000 + ramp).astype(dtype)
    return out


def _reference_expected_folded_alltoall_result(
    rank: int, nprocs: int, ppn: int, block_items: int, dtype=np.int64
) -> np.ndarray:
    if block_items < 0:
        raise BufferSizeError("block_items must be non-negative")
    out = np.empty(nprocs * block_items, dtype=dtype)
    view = out.reshape(nprocs, block_items) if block_items else out.reshape(nprocs, 0)
    ramp = np.arange(block_items, dtype=np.int64)
    for src in range(nprocs):
        shifted_dest = (rank - (src // ppn) * ppn) % nprocs
        base = (src % ppn) * nprocs + shifted_dest
        if block_items:
            # Same int64-then-wrap convention as make_alltoall_sendbuf.
            view[src, :] = (base * 1000 + ramp).astype(dtype)
    return out


def _reference_make_alltoall_sendbuf(rank: int, nprocs: int, block_items: int, dtype=np.int64) -> np.ndarray:
    if block_items < 0:
        raise ValueError("block_items must be non-negative")
    buf = np.empty(nprocs * block_items, dtype=dtype)
    if block_items:
        # Compute in int64 and wrap into the target dtype so small integer
        # dtypes (e.g. uint8 payload buffers) stay valid test patterns.  One
        # vectorised outer sum replaces the former per-destination loop (the
        # buffer build is part of every simulated job's setup cost).
        bases = (rank * nprocs + np.arange(nprocs, dtype=np.int64)) * 1000
        ramp = np.arange(block_items, dtype=np.int64)
        # One ufunc pass, casting each int64 sum into the target dtype on
        # store (same C cast as astype) without materialising the int64 grid.
        np.add(bases[:, None], ramp[None, :],
               out=buf.reshape(nprocs, block_items), casting="unsafe")
    return buf


def _workload_pattern(src: int, dest: int, nprocs: int, items: int, dtype) -> np.ndarray:
    # Same int64-then-wrap convention as make_alltoall_sendbuf.
    base = src * nprocs + dest
    return (base * 1000 + np.arange(items, dtype=np.int64)).astype(dtype)


def _reference_make_workload_sendbuf(rank: int, counts, dtype=np.int64) -> np.ndarray:
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


def _reference_expected_workload_result(rank: int, counts, dtype=np.int64) -> np.ndarray:
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


def _reference_expected_folded_workload_result(rank: int, counts, ppn: int, dtype=np.int64) -> np.ndarray:
    arr = check_counts_matrix(counts)
    nprocs = arr.shape[0]
    col = arr[:, rank]
    out = np.empty(int(col.sum()), dtype=dtype)
    pos = 0
    for src in range(nprocs):
        items = int(col[src])
        shifted_dest = (rank - (src // ppn) * ppn) % nprocs
        out[pos: pos + items] = _workload_pattern(src % ppn, shifted_dest, nprocs, items, dtype)
        pos += items
    return out


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

DTYPES = [
    np.uint8, np.int8, np.int16, np.uint16, np.int32,
    np.uint32, np.int64, np.uint64, np.float32, np.float64,
]

#: ``(nprocs, block_items)``: degenerate, odd, the verify sizes, CI's
#: 8 x 112 fold-scale shape, a 16384-rank folded machine and empty blocks.
SHAPES = [(1, 0), (1, 1), (2, 3), (7, 5), (32, 4), (32, 4096), (896, 64), (16384, 1), (4096, 0)]

PPNS = [1, 2, 4, 7, 16, 112]


def _random_counts(nprocs: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 64, size=(nprocs, nprocs))


def _sparse_counts(nprocs: int = 2048) -> np.ndarray:
    """A sparse matrix whose late sources and destinations tag past 2**31."""
    rng = np.random.default_rng(2048)
    counts = np.zeros((nprocs, nprocs), dtype=np.int64)
    counts[rng.integers(0, nprocs, 512), rng.integers(0, nprocs, 512)] = rng.integers(1, 64, 512)
    for rank in (0, nprocs // 2, nprocs - 1):
        counts[rank, [0, nprocs // 3, nprocs - 1]] = [5, 9, 17]
        counts[[1500, nprocs - 1], rank] = [11, 3]
    src, dest = np.nonzero(counts)
    assert ((src * nprocs + dest) * 1000).max() > 2**31
    return counts


def _wrapping_counts() -> np.ndarray:
    """Every row and column sums past 65,536 items, so 8- and 16-bit ramps wrap."""
    counts = np.random.default_rng(65536).integers(15000, 25000, size=(4, 4))
    assert counts.sum(axis=0).min() > 65536 and counts.sum(axis=1).min() > 65536
    return counts


def _zero_rows_and_columns() -> tuple[np.ndarray, np.ndarray]:
    full = TrafficMatrix(_random_counts(8, seed=8))
    zero_rows = full.with_zero_rows([0, 5]).bytes
    zero_cols = TrafficMatrix(full.bytes.T).with_zero_rows([3, 7]).bytes.T
    return zero_rows, zero_cols


_ZERO_ROWS, _ZERO_COLS = _zero_rows_and_columns()

#: Count matrices for the ``alltoallv`` builders: degenerate, sparse,
#: random, skewed, wrapping and tags past 2**31.
COUNT_MATRICES = {
    "1x1": np.array([[5]]),
    "all-zero": np.zeros((4, 4), dtype=np.int64),
    "diagonal": np.diag(np.arange(1, 8)),
    "zero-rows": _ZERO_ROWS,
    "zero-columns": _ZERO_COLS,
    "random-2": _random_counts(2, seed=2),
    "random-7": _random_counts(7, seed=7),
    "random-16": _random_counts(16, seed=16),
    "random-24": _random_counts(24, seed=24),
    "skewed-moe-32": skewed_moe(32, 4096, seed=0).bytes,
    "wrapping-rows": _wrapping_counts(),
    "sparse-2048": _sparse_counts(),
}

V_PPNS = [1, 2, 4, 8]


def _first_middle_last(count: int) -> list[int]:
    return sorted({0, count // 2, count - 1})


UNIFORM_CASES = [
    (nprocs, block, rank)
    for nprocs, block in SHAPES
    for rank in _first_middle_last(nprocs)
]

FOLDED_CASES = [
    (nprocs, block, ppn, rank)
    for nprocs, block in SHAPES
    for ppn in PPNS
    if nprocs % ppn == 0
    for rank in _first_middle_last(ppn)
]

V_CASES = [
    (name, rank)
    for name, counts in COUNT_MATRICES.items()
    for rank in _first_middle_last(counts.shape[0])
]

V_FOLDED_CASES = [
    (name, ppn, rank)
    for name, counts in COUNT_MATRICES.items()
    for ppn in V_PPNS
    if counts.shape[0] % ppn == 0
    for rank in _first_middle_last(ppn)
]


def _same(new: np.ndarray, old: np.ndarray) -> None:
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestUniformReference:
    @pytest.mark.parametrize("nprocs,block,rank", UNIFORM_CASES)
    def test_matches_per_source_loop(self, nprocs, block, rank):
        for dtype in DTYPES:
            _same(
                expected_alltoall_result(rank, nprocs, block, dtype=dtype),
                _reference_expected_alltoall_result(rank, nprocs, block, dtype=dtype),
            )

    def test_default_dtype_is_int64(self):
        _same(expected_alltoall_result(3, 7, 5), _reference_expected_alltoall_result(3, 7, 5))


class TestFoldedReference:
    @pytest.mark.parametrize("nprocs,block,ppn,rank", FOLDED_CASES)
    def test_matches_per_source_loop(self, nprocs, block, ppn, rank):
        for dtype in DTYPES:
            _same(
                expected_folded_alltoall_result(rank, nprocs, ppn, block, dtype=dtype),
                _reference_expected_folded_alltoall_result(rank, nprocs, ppn, block, dtype=dtype),
            )

    def test_default_dtype_is_int64(self):
        _same(
            expected_folded_alltoall_result(3, 28, 7, 5),
            _reference_expected_folded_alltoall_result(3, 28, 7, 5),
        )


class TestUniformSendbuf:
    @pytest.mark.parametrize("nprocs,block,rank", UNIFORM_CASES)
    def test_matches_int64_pass(self, nprocs, block, rank):
        for dtype in DTYPES:
            _same(
                make_alltoall_sendbuf(rank, nprocs, block, dtype=dtype),
                _reference_make_alltoall_sendbuf(rank, nprocs, block, dtype=dtype),
            )

    def test_default_dtype_is_int64(self):
        _same(make_alltoall_sendbuf(3, 7, 5), _reference_make_alltoall_sendbuf(3, 7, 5))


class TestWorkloadBuilders:
    @pytest.mark.parametrize("name,rank", V_CASES)
    def test_sendbuf_matches_per_pair_loop(self, name, rank):
        counts = COUNT_MATRICES[name]
        for dtype in DTYPES:
            _same(
                make_workload_sendbuf(rank, counts, dtype=dtype),
                _reference_make_workload_sendbuf(rank, counts, dtype=dtype),
            )

    @pytest.mark.parametrize("name,rank", V_CASES)
    def test_reference_matches_per_pair_loop(self, name, rank):
        counts = COUNT_MATRICES[name]
        for dtype in DTYPES:
            _same(
                expected_workload_result(rank, counts, dtype=dtype),
                _reference_expected_workload_result(rank, counts, dtype=dtype),
            )

    @pytest.mark.parametrize("name,ppn,rank", V_FOLDED_CASES)
    def test_folded_reference_matches_per_pair_loop(self, name, ppn, rank):
        counts = COUNT_MATRICES[name]
        for dtype in DTYPES:
            _same(
                expected_folded_workload_result(rank, counts, ppn, dtype=dtype),
                _reference_expected_folded_workload_result(rank, counts, ppn, dtype=dtype),
            )

    def test_default_dtype_is_int64(self):
        counts = COUNT_MATRICES["random-16"]
        _same(make_workload_sendbuf(5, counts), _reference_make_workload_sendbuf(5, counts))
        _same(expected_workload_result(5, counts), _reference_expected_workload_result(5, counts))
        _same(
            expected_folded_workload_result(3, counts, 4),
            _reference_expected_folded_workload_result(3, counts, 4),
        )
