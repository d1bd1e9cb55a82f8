"""Tests of the locality-aware extension collectives (the paper's Section 5 future work)."""

import numpy as np
import pytest

from repro.core.extensions import (
    locality_aware_allgather,
    locality_aware_allreduce,
    locality_aware_bcast,
    locality_aware_reduce_scatter,
)
from repro.errors import BufferSizeError, CommunicatorError, ConfigurationError
from repro.machine import ProcessMap, tiny_cluster
from repro.machine.hierarchy import LocalityLevel
from repro.machine.systems import dane
from repro.simmpi import run_spmd


@pytest.fixture(scope="module")
def pmap():
    return ProcessMap(tiny_cluster(num_nodes=4), ppn=8)


GROUPS = [None, 1, 2, 4, 8]


class TestLocalityAwareAllgather:
    @pytest.mark.parametrize("group", GROUPS)
    def test_matches_flat_allgather(self, pmap, group):
        def program(ctx):
            block = 3
            mine = np.arange(block, dtype=np.int64) + 100 * ctx.rank
            recv = np.zeros(block * ctx.nprocs, dtype=np.int64)
            yield from locality_aware_allgather(ctx, mine, recv, procs_per_group=group)
            ctx.result = recv.copy()

        results = run_spmd(pmap, program).results
        expected = np.concatenate([np.arange(3, dtype=np.int64) + 100 * r for r in range(pmap.nprocs)])
        for buf in results:
            assert np.array_equal(buf, expected)

    def test_reduces_inter_node_messages(self, pmap):
        def program(ctx, group):
            mine = np.zeros(4, dtype=np.int64)
            recv = np.zeros(4 * ctx.nprocs, dtype=np.int64)
            yield from locality_aware_allgather(ctx, mine, recv, procs_per_group=group)

        flat = run_spmd(pmap, program, 1)       # groups of one rank: every rank talks remotely
        grouped = run_spmd(pmap, program, 8)    # whole-node groups
        flat_msgs = flat.traffic_by_level.get(LocalityLevel.NETWORK, (0, 0))[0]
        grouped_msgs = grouped.traffic_by_level.get(LocalityLevel.NETWORK, (0, 0))[0]
        assert grouped_msgs < flat_msgs

    def test_fewer_inter_node_messages_than_flat_ring(self):
        """Default grouping on dane(8) x 8, 64 items: 448 inter-node messages against the ring's 504."""
        dane_pmap = ProcessMap(dane(8), ppn=8, num_nodes=8)

        def grouped(ctx):
            recv = np.zeros(64 * ctx.nprocs, dtype=np.int64)
            yield from locality_aware_allgather(ctx, np.full(64, ctx.rank, dtype=np.int64), recv)

        def flat(ctx):
            recv = np.zeros(64 * ctx.nprocs, dtype=np.int64)
            yield from ctx.world.allgather(np.full(64, ctx.rank, dtype=np.int64), recv)

        grouped_msgs = run_spmd(dane_pmap, grouped).traffic_by_level[LocalityLevel.NETWORK][0]
        flat_msgs = run_spmd(dane_pmap, flat).traffic_by_level[LocalityLevel.NETWORK][0]
        assert grouped_msgs < flat_msgs

    def test_wrong_buffer_size_rejected(self, pmap):
        def program(ctx):
            yield from locality_aware_allgather(
                ctx, np.zeros(3, dtype=np.int64), np.zeros(5, dtype=np.int64)
            )

        with pytest.raises(BufferSizeError):
            run_spmd(pmap, program)


class TestLocalityAwareBcast:
    @pytest.mark.parametrize("group", [None, 2, 4])
    @pytest.mark.parametrize("root", [0, 5, 17])
    def test_all_ranks_receive(self, pmap, group, root):
        def program(ctx):
            buf = np.zeros(8, dtype=np.int64)
            if ctx.rank == root:
                buf[:] = np.arange(8) + 1000
            yield from locality_aware_bcast(ctx, buf, root=root, procs_per_group=group)
            ctx.result = buf.copy()

        results = run_spmd(pmap, program).results
        for buf in results:
            assert np.array_equal(buf, np.arange(8) + 1000)

    def test_invalid_group_rejected(self, pmap):
        def program(ctx):
            yield from locality_aware_bcast(ctx, np.zeros(2), root=0, procs_per_group=3)

        with pytest.raises(ConfigurationError):
            run_spmd(pmap, program)


class TestLocalityAwareAllreduce:
    @pytest.mark.parametrize("group", GROUPS)
    @pytest.mark.parametrize("op,reference", [("sum", np.sum), ("max", np.max), ("min", np.min)])
    def test_matches_numpy_reduction(self, pmap, group, op, reference):
        contributions = {r: np.array([r * 1.0, -r * 2.0, 1.0]) for r in range(pmap.nprocs)}

        def program(ctx):
            recv = np.zeros(3)
            yield from locality_aware_allreduce(
                ctx, contributions[ctx.rank], recv, op=op, procs_per_group=group
            )
            ctx.result = recv.copy()

        results = run_spmd(pmap, program).results
        stacked = np.stack([contributions[r] for r in range(pmap.nprocs)])
        expected = reference(stacked, axis=0)
        for buf in results:
            assert np.allclose(buf, expected)

    def test_unknown_op_rejected(self, pmap):
        def program(ctx):
            yield from locality_aware_allreduce(ctx, np.zeros(2), np.zeros(2), op="xor")

        with pytest.raises(CommunicatorError):
            run_spmd(pmap, program)

    def test_mismatched_buffers_rejected(self, pmap):
        def program(ctx):
            yield from locality_aware_allreduce(ctx, np.zeros(2), np.zeros(3))

        with pytest.raises(BufferSizeError):
            run_spmd(pmap, program)

    def test_fewer_inter_node_messages_than_flat_allreduce(self, pmap):
        def grouped(ctx):
            out = np.zeros(4)
            yield from locality_aware_allreduce(ctx, np.ones(4), out, procs_per_group=None)

        def flat(ctx):
            out = np.zeros(4)
            yield from ctx.world.allreduce(np.ones(4), out)

        grouped_msgs = run_spmd(pmap, grouped).traffic_by_level[LocalityLevel.NETWORK][0]
        flat_msgs = run_spmd(pmap, flat).traffic_by_level[LocalityLevel.NETWORK][0]
        assert grouped_msgs <= flat_msgs


class TestLocalityAwareReduceScatter:
    @pytest.mark.parametrize("group", GROUPS)
    def test_matches_numpy_reference(self, pmap, group):
        block = 2
        rng = np.random.default_rng(3)
        vectors = {r: rng.integers(-50, 50, size=block * pmap.nprocs).astype(np.int64)
                   for r in range(pmap.nprocs)}

        def program(ctx):
            recv = np.zeros(block, dtype=np.int64)
            yield from locality_aware_reduce_scatter(
                ctx, vectors[ctx.rank], recv, procs_per_group=group
            )
            ctx.result = recv.copy()

        results = run_spmd(pmap, program).results
        total = np.sum(np.stack([vectors[r] for r in range(pmap.nprocs)]), axis=0)
        for rank, buf in enumerate(results):
            assert np.array_equal(buf, total[rank * block : (rank + 1) * block]), rank

    def test_max_reduction(self, pmap):
        def program(ctx):
            send = np.full(pmap.nprocs, ctx.rank, dtype=np.int64)
            recv = np.zeros(1, dtype=np.int64)
            yield from locality_aware_reduce_scatter(ctx, send, recv, op="max")
            ctx.result = int(recv[0])

        results = run_spmd(pmap, program).results
        assert results == [pmap.nprocs - 1] * pmap.nprocs

    def test_indivisible_buffer_rejected(self, pmap):
        def program(ctx):
            yield from locality_aware_reduce_scatter(
                ctx, np.zeros(pmap.nprocs + 1, dtype=np.int64), np.zeros(1, dtype=np.int64)
            )

        with pytest.raises(BufferSizeError):
            run_spmd(pmap, program)

    def test_wrong_recv_size_rejected(self, pmap):
        def program(ctx):
            yield from locality_aware_reduce_scatter(
                ctx, np.zeros(2 * pmap.nprocs, dtype=np.int64), np.zeros(3, dtype=np.int64)
            )

        with pytest.raises(BufferSizeError):
            run_spmd(pmap, program)
