"""Tests of the reference collectives against NumPy oracles."""

import numpy as np
import pytest

from repro.errors import BufferSizeError, CommunicatorError
from repro.machine import ProcessMap, tiny_cluster
from repro.simmpi import run_spmd


def _run(pmap, program, *args):
    return run_spmd(pmap, program, *args)


class TestBarrier:
    def test_all_ranks_pass(self, tiny_pmap):
        def program(ctx):
            yield from ctx.world.barrier()
            ctx.result = "done"

        result = _run(tiny_pmap, program)
        assert all(r == "done" for r in result.results)

    def test_barrier_synchronizes_clocks(self, two_node_pmap):
        """A rank that did extra work first still exits the barrier no earlier than the others enter it."""

        def program(ctx):
            from repro.simmpi.ops import Delay

            if ctx.rank == 0:
                yield Delay(1.0e-3)
            entry = ctx.now
            yield from ctx.world.barrier()
            ctx.result = (entry, ctx.now)

        result = _run(two_node_pmap, program)
        slowest_entry = max(entry for entry, _ in result.results)
        for _, exit_time in result.results:
            assert exit_time >= slowest_entry

    def test_single_rank_barrier(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=1), ppn=1)

        def program(ctx):
            yield from ctx.world.barrier()
            ctx.result = True

        assert _run(pmap, program).results == [True]


class TestBcast:
    @pytest.mark.parametrize("root", [0, 3, 7])
    def test_all_ranks_receive_root_data(self, tiny_pmap, root):
        def program(ctx):
            comm = ctx.world
            buf = np.full(16, ctx.rank, dtype=np.int64)
            if comm.rank == root:
                buf[:] = np.arange(16)
            yield from comm.bcast(buf, root=root)
            ctx.result = buf.copy()

        result = _run(tiny_pmap, program)
        for buf in result.results:
            assert np.array_equal(buf, np.arange(16))

    def test_invalid_root_rejected(self, tiny_pmap):
        def program(ctx):
            yield from ctx.world.bcast(np.zeros(1), root=99)

        with pytest.raises(CommunicatorError):
            _run(tiny_pmap, program)


class TestGatherScatter:
    @pytest.mark.parametrize("root", [0, 5])
    def test_gather_collects_in_rank_order(self, tiny_pmap, root):
        def program(ctx):
            comm = ctx.world
            mine = np.array([ctx.rank * 2, ctx.rank * 2 + 1], dtype=np.int64)
            recv = np.zeros(2 * comm.size, dtype=np.int64) if comm.rank == root else None
            yield from comm.gather(mine, recv, root=root)
            ctx.result = None if recv is None else recv.copy()

        result = _run(tiny_pmap, program)
        gathered = result.results[root]
        assert np.array_equal(gathered, np.arange(2 * tiny_pmap.nprocs))
        assert all(r is None for i, r in enumerate(result.results) if i != root)

    def test_gather_missing_root_buffer_rejected(self, two_node_pmap):
        def program(ctx):
            yield from ctx.world.gather(np.zeros(2), None, root=0)

        with pytest.raises(BufferSizeError):
            _run(two_node_pmap, program)

    def test_gather_wrong_buffer_size_rejected(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            recv = np.zeros(3, dtype=np.int64) if comm.rank == 0 else None
            yield from comm.gather(np.zeros(2, dtype=np.int64), recv, root=0)

        with pytest.raises(BufferSizeError):
            _run(two_node_pmap, program)

    @pytest.mark.parametrize("root", [0, 2])
    def test_scatter_distributes_blocks(self, two_node_pmap, root):
        def program(ctx):
            comm = ctx.world
            send = None
            if comm.rank == root:
                send = np.arange(3 * comm.size, dtype=np.int64)
            recv = np.zeros(3, dtype=np.int64)
            yield from comm.scatter(send, recv, root=root)
            ctx.result = recv.copy()

        result = _run(two_node_pmap, program)
        for rank, buf in enumerate(result.results):
            assert np.array_equal(buf, np.arange(3 * rank, 3 * rank + 3))

    def test_scatter_missing_root_buffer_rejected(self, two_node_pmap):
        def program(ctx):
            yield from ctx.world.scatter(None, np.zeros(2), root=0)

        with pytest.raises(BufferSizeError):
            _run(two_node_pmap, program)

    def test_gather_then_scatter_roundtrip(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            mine = np.array([ctx.rank + 100], dtype=np.int64)
            gathered = np.zeros(comm.size, dtype=np.int64) if comm.rank == 0 else None
            yield from comm.gather(mine, gathered, root=0)
            back = np.zeros(1, dtype=np.int64)
            yield from comm.scatter(gathered, back, root=0)
            ctx.result = int(back[0])

        result = _run(two_node_pmap, program)
        assert result.results == [r + 100 for r in range(two_node_pmap.nprocs)]


class TestAllgather:
    def test_every_rank_gets_everything(self, tiny_pmap):
        def program(ctx):
            comm = ctx.world
            mine = np.array([ctx.rank, ctx.rank], dtype=np.int64)
            recv = np.zeros(2 * comm.size, dtype=np.int64)
            yield from comm.allgather(mine, recv)
            ctx.result = recv.copy()

        result = _run(tiny_pmap, program)
        expected = np.repeat(np.arange(tiny_pmap.nprocs), 2)
        for buf in result.results:
            assert np.array_equal(buf, expected)

    def test_single_rank(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=1), ppn=1)

        def program(ctx):
            recv = np.zeros(4, dtype=np.int64)
            yield from ctx.world.allgather(np.arange(4, dtype=np.int64), recv)
            ctx.result = recv.copy()

        assert np.array_equal(_run(pmap, program).results[0], np.arange(4))


class TestReductions:
    @pytest.mark.parametrize("op,expected", [
        ("sum", sum(range(32))),
        ("max", 31),
        ("min", 0),
    ])
    def test_reduce_ops(self, tiny_pmap, op, expected):
        def program(ctx):
            comm = ctx.world
            mine = np.array([float(ctx.rank)])
            out = np.zeros(1) if comm.rank == 0 else None
            yield from comm.reduce(mine, out, op=op, root=0)
            ctx.result = None if out is None else float(out[0])

        result = _run(tiny_pmap, program)
        assert result.results[0] == pytest.approx(expected)

    def test_reduce_prod_non_power_of_two(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=1), ppn=5)

        def program(ctx):
            comm = ctx.world
            mine = np.array([float(ctx.rank + 1)])
            out = np.zeros(1) if comm.rank == 0 else None
            yield from comm.reduce(mine, out, op="prod", root=0)
            ctx.result = None if out is None else float(out[0])

        assert _run(pmap, program).results[0] == pytest.approx(120.0)

    def test_reduce_unknown_op_rejected(self, two_node_pmap):
        def program(ctx):
            yield from ctx.world.reduce(np.zeros(1), np.zeros(1), op="xor", root=0)

        with pytest.raises(CommunicatorError):
            _run(two_node_pmap, program)

    def test_allreduce_everyone_gets_result(self, tiny_pmap):
        def program(ctx):
            comm = ctx.world
            mine = np.array([float(ctx.rank), 1.0])
            out = np.zeros(2)
            yield from comm.allreduce(mine, out, op="sum")
            ctx.result = out.copy()

        result = _run(tiny_pmap, program)
        total = sum(range(tiny_pmap.nprocs))
        for buf in result.results:
            assert buf[0] == pytest.approx(total)
            assert buf[1] == pytest.approx(tiny_pmap.nprocs)

    def test_allreduce_size_mismatch_rejected(self, two_node_pmap):
        def program(ctx):
            yield from ctx.world.allreduce(np.zeros(2), np.zeros(3))

        with pytest.raises(BufferSizeError):
            _run(two_node_pmap, program)


class TestBasicAlltoall:
    def test_matches_transpose(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            p = comm.size
            send = np.arange(p, dtype=np.int64) + 100 * ctx.rank
            recv = np.zeros(p, dtype=np.int64)
            yield from comm.alltoall(send, recv)
            ctx.result = recv.copy()

        result = _run(two_node_pmap, program)
        p = two_node_pmap.nprocs
        for dest, buf in enumerate(result.results):
            expected = np.array([100 * src + dest for src in range(p)])
            assert np.array_equal(buf, expected)

    def test_buffer_size_mismatch_rejected(self, two_node_pmap):
        def program(ctx):
            yield from ctx.world.alltoall(np.zeros(8, dtype=np.int64), np.zeros(9, dtype=np.int64))

        with pytest.raises(BufferSizeError):
            _run(two_node_pmap, program)

    def test_indivisible_buffer_rejected(self, two_node_pmap):
        def program(ctx):
            n = ctx.world.size * 2 + 1
            yield from ctx.world.alltoall(np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64))

        with pytest.raises(BufferSizeError):
            _run(two_node_pmap, program)


def _two_rank_alltoallv(sendcounts, recvcounts, sdispls=None, rdispls=None):
    """One alltoallv on 2 ranks; rank ``r`` sends ``[10 * r, 10 * r + 1]``."""

    def program(ctx):
        send = np.array([10 * ctx.rank, 10 * ctx.rank + 1], dtype=np.int64)
        recv = np.zeros(2, dtype=np.int64)
        yield from ctx.world.alltoallv(send, sendcounts, recv, recvcounts, sdispls, rdispls)
        ctx.result = recv.copy()

    return _run(ProcessMap(tiny_cluster(num_nodes=1), ppn=2), program).results


class TestAlltoallv:
    def test_fractional_counts_rejected(self):
        # Truncated to one item per peer, these used to deliver [[0, 10], [1, 11]].
        with pytest.raises(BufferSizeError, match="whole numbers"):
            _two_rank_alltoallv([1.5, 1.5], [1.5, 1.5])

    def test_nan_count_rejected(self):
        with pytest.raises(BufferSizeError, match="whole numbers"):
            _two_rank_alltoallv([np.nan, 1.0], [np.nan, 1.0])

    def test_fractional_displacements_rejected(self):
        with pytest.raises(BufferSizeError, match="sdispls"):
            _two_rank_alltoallv([1, 1], [1, 1], [0, 0.5], [0, 1])
        with pytest.raises(BufferSizeError, match="rdispls"):
            _two_rank_alltoallv([1, 1], [1, 1], [0, 1], [0, 1.5])

    def test_whole_valued_float_counts_run(self):
        results = _two_rank_alltoallv([1.0, 1.0], [1.0, 1.0], [0.0, 1.0], [0.0, 1.0])
        assert [buf.tolist() for buf in results] == [[0, 10], [1, 11]]

    def test_matches_variable_transposition(self, two_node_pmap):
        """Ragged counts: rank s sends s+1 items to every destination."""
        p = two_node_pmap.nprocs
        counts = np.tile(np.arange(1, p + 1, dtype=np.int64)[:, None], (1, p))

        def program(ctx):
            mine = counts[ctx.rank]
            send = np.concatenate(
                [np.full(mine[d], 100 * ctx.rank + d, dtype=np.int64) for d in range(p)]
            )
            recv = np.zeros(int(counts[:, ctx.rank].sum()), dtype=np.int64)
            yield from ctx.world.alltoallv(send, mine, recv, counts[:, ctx.rank])
            ctx.result = recv.copy()

        result = _run(two_node_pmap, program)
        for dest, buf in enumerate(result.results):
            expected = np.concatenate(
                [np.full(src + 1, 100 * src + dest, dtype=np.int64) for src in range(p)]
            )
            assert np.array_equal(buf, expected)

    def test_zero_counts_skip_messages(self, two_node_pmap):
        """A diagonal-plus-one-pair matrix exchanges only that single message."""
        p = two_node_pmap.nprocs
        counts = np.zeros((p, p), dtype=np.int64)
        counts[0, p - 1] = 3

        def program(ctx):
            send = np.full(int(counts[ctx.rank].sum()), 42, dtype=np.int64)
            recv = np.zeros(int(counts[:, ctx.rank].sum()), dtype=np.int64)
            yield from ctx.world.alltoallv(send, counts[ctx.rank], recv, counts[:, ctx.rank])
            ctx.result = recv.copy()

        result = _run(two_node_pmap, program)
        assert np.array_equal(result.results[p - 1], np.full(3, 42))
        assert all(buf.size == 0 for buf in result.results[:-1])

    def test_explicit_displacements(self, two_node_pmap):
        """Non-packed layouts: blocks laid out in reverse peer order."""
        p = two_node_pmap.nprocs

        def program(ctx):
            counts = np.full(p, 2, dtype=np.int64)
            displs = np.array([(p - 1 - i) * 2 for i in range(p)], dtype=np.int64)
            send = np.zeros(2 * p, dtype=np.int64)
            for d in range(p):
                send[displs[d]: displs[d] + 2] = 100 * ctx.rank + d
            recv = np.zeros(2 * p, dtype=np.int64)
            yield from ctx.world.alltoallv(send, counts, recv, counts, displs, displs)
            ctx.result = recv.copy()

        result = _run(two_node_pmap, program)
        for dest, buf in enumerate(result.results):
            for src in range(p):
                start = (p - 1 - src) * 2
                assert np.array_equal(buf[start: start + 2], np.full(2, 100 * src + dest))

    def test_count_vector_length_checked(self, two_node_pmap):
        def program(ctx):
            p = ctx.world.size
            yield from ctx.world.alltoallv(
                np.zeros(p, dtype=np.int64), np.ones(p - 1, dtype=np.int64),
                np.zeros(p, dtype=np.int64), np.ones(p, dtype=np.int64),
            )

        with pytest.raises(BufferSizeError):
            _run(two_node_pmap, program)

    def test_self_count_mismatch_rejected(self, two_node_pmap):
        def program(ctx):
            p = ctx.world.size
            sendcounts = np.ones(p, dtype=np.int64)
            recvcounts = np.ones(p, dtype=np.int64)
            recvcounts[ctx.world.rank] = 2
            yield from ctx.world.alltoallv(
                np.ones(p, dtype=np.int64), sendcounts,
                np.zeros(p + 1, dtype=np.int64), recvcounts,
            )

        with pytest.raises(BufferSizeError):
            _run(two_node_pmap, program)

    def test_blocks_beyond_buffer_rejected(self, two_node_pmap):
        def program(ctx):
            p = ctx.world.size
            counts = np.full(p, 4, dtype=np.int64)
            yield from ctx.world.alltoallv(
                np.zeros(2, dtype=np.int64), counts,
                np.zeros(4 * p, dtype=np.int64), counts,
            )

        with pytest.raises(BufferSizeError):
            _run(two_node_pmap, program)
