"""Building a test pattern in a narrow integer dtype allocates no int64 item grid.

Every builder forms the items of an integer buffer in its own dtype (see
:mod:`repro.core.validation`), so building a 1 MiB ``uint8`` buffer should
peak at a small multiple of that buffer under ``tracemalloc``.  An int64
grid of the same items would cost eight times the buffer on its own.  This
pins the allocation without timing anything.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.validation import (
    expected_alltoall_result,
    expected_folded_alltoall_result,
    expected_folded_workload_result,
    expected_workload_result,
    make_workload_sendbuf,
)
from repro.utils.buffers import make_alltoall_sendbuf

NPROCS, ITEMS, PPN, RANK = 64, 16384, 8, 3
COUNTS = np.full((NPROCS, NPROCS), ITEMS, dtype=np.int64)

BUILDERS = {
    "make_alltoall_sendbuf": lambda: make_alltoall_sendbuf(RANK, NPROCS, ITEMS, np.uint8),
    "expected_alltoall_result": lambda: expected_alltoall_result(RANK, NPROCS, ITEMS, np.uint8),
    "expected_folded_alltoall_result": lambda: expected_folded_alltoall_result(
        RANK, NPROCS, PPN, ITEMS, np.uint8
    ),
    "make_workload_sendbuf": lambda: make_workload_sendbuf(RANK, COUNTS, np.uint8),
    "expected_workload_result": lambda: expected_workload_result(RANK, COUNTS, np.uint8),
    "expected_folded_workload_result": lambda: expected_folded_workload_result(
        RANK, COUNTS, PPN, np.uint8
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_peak_stays_below_three_buffers(name):
    build = BUILDERS[name]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        buf = build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert buf.dtype == np.uint8 and buf.nbytes == NPROCS * ITEMS
    assert peak - before < 3 * buf.nbytes, (
        f"{name} peaked at {(peak - before) / buf.nbytes:.2f}x its {buf.nbytes}-byte buffer"
    )
