"""The outer-sum validation references must reproduce the per-source loops byte for byte.

:func:`expected_alltoall_result` and :func:`expected_folded_alltoall_result`
build every block of a reference in one int64 outer sum that is cast once
into the buffer dtype.  The ``_reference_*`` functions below are the
per-source loop bodies those functions had before, kept verbatim as oracles.
Every comparison demands the same ``dtype`` and the same ``tobytes()``, so a
wrap, a sign or a float rounding that differs in any item fails, and so does
a block in the wrong place.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.validation import expected_alltoall_result, expected_folded_alltoall_result
from repro.errors import BufferSizeError


# ---------------------------------------------------------------------------
# Oracles: the per-source loop bodies
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
