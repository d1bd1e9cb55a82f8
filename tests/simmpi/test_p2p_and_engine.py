"""Tests of the point-to-point layer and SPMD engine semantics."""

import numpy as np
import pytest

from repro.errors import DeadlockError, SimulationError
from repro.machine import ProcessMap, tiny_cluster
from repro.machine.hierarchy import LocalityLevel
from repro.obs import RecordingSink
from repro.simmpi import run_spmd
from repro.simmpi.datatypes import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.simmpi.engine import SpmdEngine


class TestBasicMessaging:
    def test_blocking_send_recv(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                data = np.arange(10, dtype=np.int64)
                yield from comm.send(data, dest=1, tag=7)
            elif ctx.rank == 1:
                buf = np.zeros(10, dtype=np.int64)
                status = yield from comm.recv(buf, source=0, tag=7)
                ctx.result = (buf.copy(), status.source, status.tag, status.nbytes)

        result = run_spmd(two_node_pmap, program)
        buf, source, tag, nbytes = result.results[1]
        assert np.array_equal(buf, np.arange(10))
        assert (source, tag, nbytes) == (0, 7, 80)

    def test_nonblocking_roundtrip(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            partner = ctx.rank ^ 1
            if partner >= comm.size:
                return
            send = np.full(4, ctx.rank, dtype=np.int32)
            recv = np.zeros(4, dtype=np.int32)
            rreq = yield from comm.irecv(recv, source=partner, tag=1)
            sreq = yield from comm.isend(send, dest=partner, tag=1)
            yield from comm.waitall([rreq, sreq])
            ctx.result = int(recv[0])

        result = run_spmd(two_node_pmap, program)
        assert result.results[0] == 1
        assert result.results[1] == 0

    def test_wildcard_source_and_tag(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            if ctx.rank == 2:
                yield from comm.send(np.array([42], dtype=np.int64), dest=0, tag=9)
            elif ctx.rank == 0:
                buf = np.zeros(1, dtype=np.int64)
                status = yield from comm.recv(buf, source=ANY_SOURCE, tag=ANY_TAG)
                ctx.result = (int(buf[0]), status.source, status.tag)

        result = run_spmd(two_node_pmap, program)
        assert result.results[0] == (42, 2, 9)

    def test_proc_null_completes_immediately(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            buf = np.zeros(4, dtype=np.int64)
            yield from comm.send(buf, dest=PROC_NULL)
            status = yield from comm.recv(buf, source=PROC_NULL)
            ctx.result = status.nbytes

        result = run_spmd(two_node_pmap, program)
        assert all(r == 0 for r in result.results)

    def test_self_message(self, single_node_pmap):
        def program(ctx):
            comm = ctx.world
            send = np.array([ctx.rank * 10], dtype=np.int64)
            recv = np.zeros(1, dtype=np.int64)
            rreq = yield from comm.irecv(recv, source=ctx.rank, tag=3)
            yield from comm.send(send, dest=ctx.rank, tag=3)
            yield from comm.wait(rreq)
            ctx.result = int(recv[0])

        result = run_spmd(single_node_pmap, program)
        assert result.results == [r * 10 for r in range(single_node_pmap.nprocs)]

    def test_message_ordering_same_pair(self, two_node_pmap):
        """Two same-tag messages between the same pair arrive in posting order."""

        def program(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from comm.send(np.array([1], dtype=np.int64), dest=1, tag=5)
                yield from comm.send(np.array([2], dtype=np.int64), dest=1, tag=5)
            elif ctx.rank == 1:
                first = np.zeros(1, dtype=np.int64)
                second = np.zeros(1, dtype=np.int64)
                yield from comm.recv(first, source=0, tag=5)
                yield from comm.recv(second, source=0, tag=5)
                ctx.result = (int(first[0]), int(second[0]))

        result = run_spmd(two_node_pmap, program)
        assert result.results[1] == (1, 2)

    def test_tag_selectivity(self, two_node_pmap):
        """A receive with a specific tag skips earlier messages with other tags."""

        def program(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                yield from comm.send(np.array([10], dtype=np.int64), dest=1, tag=1)
                yield from comm.send(np.array([20], dtype=np.int64), dest=1, tag=2)
            elif ctx.rank == 1:
                want_two = np.zeros(1, dtype=np.int64)
                want_one = np.zeros(1, dtype=np.int64)
                yield from comm.recv(want_two, source=0, tag=2)
                yield from comm.recv(want_one, source=0, tag=1)
                ctx.result = (int(want_two[0]), int(want_one[0]))

        result = run_spmd(two_node_pmap, program)
        assert result.results[1] == (20, 10)

    def test_rendezvous_large_message(self, two_node_pmap):
        """Messages above the eager limit still deliver correctly."""
        eager = two_node_pmap.params.eager_limit

        def program(ctx):
            comm = ctx.world
            n = (eager // 8) * 4  # four times the eager limit in bytes
            if ctx.rank == 0:
                yield from comm.send(np.arange(n, dtype=np.int64), dest=1)
            elif ctx.rank == 1:
                buf = np.zeros(n, dtype=np.int64)
                yield from comm.recv(buf, source=0)
                ctx.result = bool(np.array_equal(buf, np.arange(n)))

        result = run_spmd(two_node_pmap, program)
        assert result.results[1] is True


class TestTiming:
    def test_inter_node_slower_than_intra_node(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=4)

        def program(ctx, partner):
            comm = ctx.world
            buf = np.zeros(128, dtype=np.uint8)
            if ctx.rank == 0:
                yield from comm.send(buf, dest=partner)
            elif ctx.rank == partner:
                yield from comm.recv(buf, source=0)

        intra = run_spmd(pmap, program, 1).elapsed
        inter = run_spmd(pmap, program, 4).elapsed
        assert inter > intra

    def test_larger_messages_take_longer(self, two_node_pmap):
        def program(ctx, nbytes):
            comm = ctx.world
            buf = np.zeros(nbytes, dtype=np.uint8)
            if ctx.rank == 0:
                yield from comm.send(buf, dest=4)
            elif ctx.rank == 4:
                yield from comm.recv(buf, source=0)

        small = run_spmd(two_node_pmap, program, 64).elapsed
        large = run_spmd(two_node_pmap, program, 65536).elapsed
        assert large > small

    def test_nic_serializes_concurrent_senders(self):
        """Many ranks of one node sending off-node at once are injection-limited."""
        pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=8)

        def program(ctx, senders):
            comm = ctx.world
            nbytes = 32768
            buf = np.zeros(nbytes, dtype=np.uint8)
            if ctx.node == 0 and ctx.local_rank < senders:
                yield from comm.send(buf, dest=8 + ctx.local_rank)
            elif ctx.node == 1 and ctx.local_rank < senders:
                yield from comm.recv(buf, source=ctx.local_rank)

        one = run_spmd(pmap, program, 1).elapsed
        eight = run_spmd(pmap, program, 8).elapsed
        # Eight concurrent senders share the NIC, so the job takes noticeably
        # longer than a single sender (but less than 8x because latencies and
        # fixed per-message costs overlap across senders).
        assert eight > 2.0 * one
        assert eight < 8.0 * one

    def test_elapsed_is_max_of_finish_times(self, two_node_pmap):
        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.world.send(np.zeros(8, dtype=np.uint8), dest=1)
            elif ctx.rank == 1:
                buf = np.zeros(8, dtype=np.uint8)
                yield from ctx.world.recv(buf, source=0)

        result = run_spmd(two_node_pmap, program)
        assert result.elapsed == pytest.approx(max(result.finish_times))

    def test_traffic_accounting(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            buf = np.zeros(100, dtype=np.uint8)
            if ctx.rank == 0:
                yield from comm.send(buf, dest=4)   # other node
                yield from comm.send(buf, dest=1)   # same NUMA
            elif ctx.rank == 4:
                yield from comm.recv(buf, source=0)
            elif ctx.rank == 1:
                yield from comm.recv(buf, source=0)

        result = run_spmd(two_node_pmap, program)
        assert result.traffic_by_level[LocalityLevel.NETWORK] == (1, 100)
        assert result.traffic_by_level[LocalityLevel.NUMA] == (1, 100)

    def test_sink_records_matched_messages(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            buf = np.zeros(16, dtype=np.uint8)
            if ctx.rank == 0:
                yield from comm.send(buf, dest=7)
            elif ctx.rank == 7:
                yield from comm.recv(buf, source=0)

        sink = RecordingSink()
        run_spmd(two_node_pmap, program, sink=sink)
        [send] = sink.of_kind("send")
        [match] = sink.of_kind("match")
        _, src, dst, nbytes, _, _, arrival, completion = match
        assert (src, dst, nbytes) == (0, 7, 16)
        assert completion >= arrival >= send[-1]


class TestEngineErrors:
    def test_deadlock_detection(self, two_node_pmap):
        def program(ctx):
            comm = ctx.world
            if ctx.rank == 0:
                buf = np.zeros(4, dtype=np.uint8)
                yield from comm.recv(buf, source=1, tag=99)  # nobody ever sends this

        with pytest.raises(DeadlockError, match="never finished"):
            run_spmd(two_node_pmap, program)

    def test_non_generator_program_rejected(self, two_node_pmap):
        def program(ctx):
            return 42

        with pytest.raises(SimulationError, match="generator"):
            run_spmd(two_node_pmap, program)

    def test_unknown_yield_rejected(self, two_node_pmap):
        def program(ctx):
            yield "not an operation"

        with pytest.raises(SimulationError, match="unknown operation"):
            run_spmd(two_node_pmap, program)

    def test_engine_is_single_use(self, two_node_pmap):
        def program(ctx):
            return
            yield  # pragma: no cover - makes this a generator function

        engine = SpmdEngine(two_node_pmap)
        engine.run(program)
        with pytest.raises(SimulationError, match="single job"):
            engine.run(program)

    def test_phase_timings_collected(self, two_node_pmap):
        def program(ctx):
            start = ctx.now
            yield from ctx.world.barrier()
            ctx.add_timing("barrier", ctx.now - start)

        result = run_spmd(two_node_pmap, program)
        assert result.phases() == ["barrier"]
        assert result.phase_time("barrier") > 0.0
        assert result.phase_time("barrier", reduce=min) <= result.phase_time("barrier")
