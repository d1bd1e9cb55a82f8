"""Tests for repro.utils.buffers."""

import numpy as np
import pytest

from repro.errors import BufferSizeError
from repro.utils.buffers import (
    as_block_view,
    block_slice,
    check_buffer,
    check_counts_matrix,
    check_v_counts,
    concat_blocks,
    make_alltoall_sendbuf,
    split_blocks,
)


class TestCheckBuffer:
    def test_accepts_matching_buffer(self):
        buf = np.zeros(12, dtype=np.int32)
        assert check_buffer(buf, 3, 4) is buf

    def test_rejects_wrong_size(self):
        with pytest.raises(BufferSizeError, match="12"):
            check_buffer(np.zeros(10), 3, 4)

    def test_rejects_non_array(self):
        with pytest.raises(TypeError):
            check_buffer([0.0] * 12, 3, 4)

    def test_rejects_multidimensional(self):
        with pytest.raises(BufferSizeError, match="one-dimensional"):
            check_buffer(np.zeros((3, 4)), 3, 4)

    def test_rejects_non_contiguous(self):
        buf = np.zeros(24)[::2]
        with pytest.raises(BufferSizeError, match="contiguous"):
            check_buffer(buf, 3, 4)


class TestBlockSlice:
    def test_first_block(self):
        assert block_slice(0, 5) == slice(0, 5)

    def test_later_block(self):
        assert block_slice(3, 4) == slice(12, 16)

    def test_zero_items(self):
        assert block_slice(2, 0) == slice(0, 0)

    def test_negative_block_rejected(self):
        with pytest.raises(ValueError):
            block_slice(-1, 4)

    def test_negative_items_rejected(self):
        with pytest.raises(ValueError):
            block_slice(1, -4)


class TestAsBlockView:
    def test_view_shares_memory(self):
        buf = np.arange(12)
        view = as_block_view(buf, 3, 4)
        assert view.shape == (3, 4)
        view[1, 0] = 99
        assert buf[4] == 99

    def test_wrong_size_rejected(self):
        with pytest.raises(BufferSizeError):
            as_block_view(np.arange(10), 3, 4)


class TestSplitConcat:
    def test_split_blocks_roundtrip(self):
        buf = np.arange(20)
        blocks = split_blocks(buf, 5)
        assert len(blocks) == 5
        assert all(b.size == 4 for b in blocks)
        assert np.array_equal(concat_blocks(blocks), buf)

    def test_split_views_share_memory(self):
        buf = np.zeros(8)
        blocks = split_blocks(buf, 2)
        blocks[1][:] = 7
        assert np.array_equal(buf, [0, 0, 0, 0, 7, 7, 7, 7])

    def test_split_uneven_rejected(self):
        with pytest.raises(BufferSizeError):
            split_blocks(np.arange(10), 3)

    def test_split_zero_blocks_rejected(self):
        with pytest.raises(ValueError):
            split_blocks(np.arange(10), 0)

    def test_concat_empty_rejected(self):
        with pytest.raises(ValueError):
            concat_blocks([])


class TestMakeAlltoallSendbuf:
    def test_shape_and_dtype(self):
        buf = make_alltoall_sendbuf(2, 4, 3)
        assert buf.shape == (12,)
        assert buf.dtype == np.int64

    def test_blocks_unique_per_destination(self):
        buf = make_alltoall_sendbuf(1, 4, 2).reshape(4, 2)
        firsts = {int(buf[d, 0]) for d in range(4)}
        assert len(firsts) == 4

    def test_blocks_unique_per_source(self):
        a = make_alltoall_sendbuf(0, 4, 2)
        b = make_alltoall_sendbuf(1, 4, 2)
        assert not np.array_equal(a, b)

    def test_uint8_wraps_without_error(self):
        buf = make_alltoall_sendbuf(100, 64, 8, dtype=np.uint8)
        assert buf.dtype == np.uint8
        assert buf.size == 64 * 8

    def test_zero_block_items(self):
        buf = make_alltoall_sendbuf(0, 4, 0)
        assert buf.size == 0

    def test_negative_block_items_rejected(self):
        with pytest.raises(ValueError):
            make_alltoall_sendbuf(0, 4, -1)


class TestCountCoercion:
    def test_nan_count_is_a_buffer_size_error(self):
        with pytest.raises(BufferSizeError, match="whole numbers"):
            check_counts_matrix([[np.nan, 1.0], [1.0, 1.0]])
        with pytest.raises(BufferSizeError, match="whole numbers"):
            check_v_counts([np.inf, 1.0], 2)

    def test_fractional_count_rejected(self):
        with pytest.raises(BufferSizeError, match="sendcounts"):
            check_v_counts([1.5, 1.0], 2, name="sendcounts")

    def test_whole_valued_floats_convert(self):
        arr = check_counts_matrix(np.array([[1.0, 2.0], [3.0, 0.0]]))
        assert arr.dtype == np.int64
        assert arr.tolist() == [[1, 2], [3, 0]]
        assert check_v_counts([4.0, 0.0], 2).tolist() == [4, 0]
