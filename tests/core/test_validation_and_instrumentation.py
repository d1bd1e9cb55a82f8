"""Tests for repro.core.validation and repro.core.instrumentation."""

import numpy as np
import pytest

from repro.core.instrumentation import PHASE_GATHER, PHASE_INTER, PhaseRecorder
from repro.core.validation import (
    alltoall_reference,
    expected_alltoall_result,
    expected_folded_alltoall_result,
    expected_folded_workload_result,
    expected_workload_result,
    validate_alltoall_results,
    validate_folded_alltoall_results,
    validate_folded_workload_results,
    validate_workload_results,
)
from repro.errors import AlgorithmError, BufferSizeError
from repro.machine import ProcessMap, tiny_cluster
from repro.simmpi import run_spmd
from repro.utils.buffers import make_alltoall_sendbuf


class TestExpectedResult:
    def test_matches_bruteforce_construction(self):
        nprocs, block = 5, 3
        for rank in range(nprocs):
            expected = expected_alltoall_result(rank, nprocs, block)
            brute = np.concatenate(
                [make_alltoall_sendbuf(src, nprocs, block).reshape(nprocs, block)[rank]
                 for src in range(nprocs)]
            )
            assert np.array_equal(expected, brute)

    def test_uint8_consistency_with_sendbuf(self):
        nprocs, block = 9, 4
        expected = expected_alltoall_result(2, nprocs, block, dtype=np.uint8)
        brute = np.concatenate(
            [make_alltoall_sendbuf(src, nprocs, block, dtype=np.uint8).reshape(nprocs, block)[2]
             for src in range(nprocs)]
        )
        assert np.array_equal(expected, brute)

    def test_negative_block_rejected(self):
        with pytest.raises(BufferSizeError):
            expected_alltoall_result(0, 4, -1)


class TestAlltoallReference:
    def test_transposition(self):
        sendbufs = [make_alltoall_sendbuf(r, 4, 2) for r in range(4)]
        recvbufs = alltoall_reference(sendbufs)
        for rank, buf in enumerate(recvbufs):
            assert np.array_equal(buf, expected_alltoall_result(rank, 4, 2))

    def test_double_application_is_identity_for_symmetric_layout(self):
        rng = np.random.default_rng(0)
        sendbufs = [rng.integers(0, 100, size=12) for _ in range(4)]
        once = alltoall_reference(sendbufs)
        twice = alltoall_reference(once)
        # Applying the block transposition twice returns the original data.
        for original, roundtrip in zip(sendbufs, twice):
            assert np.array_equal(original, roundtrip)

    def test_empty_rejected(self):
        with pytest.raises(BufferSizeError):
            alltoall_reference([])

    def test_indivisible_rejected(self):
        with pytest.raises(BufferSizeError):
            alltoall_reference([np.zeros(5), np.zeros(5)])


def _uniform_job():
    nprocs, block = 6, 2
    results = [expected_alltoall_result(r, nprocs, block) for r in range(nprocs)]
    return results, lambda res: validate_alltoall_results(res, nprocs, block)


def _folded_job():
    nprocs, ppn, block = 12, 3, 2
    results = [expected_folded_alltoall_result(r, nprocs, ppn, block) for r in range(ppn)]
    return results, lambda res: validate_folded_alltoall_results(res, nprocs, ppn, block)


def _workload_job():
    counts = np.array([[0, 1, 2, 3], [4, 0, 1, 2], [3, 4, 0, 1], [2, 3, 4, 1]])
    results = [expected_workload_result(r, counts) for r in range(len(counts))]
    return results, lambda res: validate_workload_results(res, counts)


def _folded_workload_job():
    # Rotation-invariant, as folding requires: counts depend only on the two
    # local indices and the node distance.
    nodes, ppn = 3, 2
    counts = np.array([
        [1 + s % ppn + 2 * (d % ppn) + (d // ppn - s // ppn) % nodes for d in range(nodes * ppn)]
        for s in range(nodes * ppn)
    ])
    results = [expected_folded_workload_result(r, counts, ppn) for r in range(ppn)]
    return results, lambda res: validate_folded_workload_results(res, counts, ppn)


JOBS = {
    "alltoall": _uniform_job,
    "folded-alltoall": _folded_job,
    "workload": _workload_job,
    "folded-workload": _folded_workload_job,
}


@pytest.mark.parametrize("job", sorted(JOBS))
class TestValidateResults:
    def test_accepts_correct_results(self, job):
        results, validate = JOBS[job]()
        assert validate(results)

    def test_rejects_corrupted_value(self, job):
        results, validate = JOBS[job]()
        results[-1][results[-1].size // 2] += 1
        assert not validate(results)

    def test_rejects_missing_rank(self, job):
        results, validate = JOBS[job]()
        results[1] = None
        assert not validate(results)

    def test_wrong_count_rejected(self, job):
        results, validate = JOBS[job]()
        with pytest.raises(BufferSizeError):
            validate(results[:-1])

    def test_wrong_size_rejected(self, job):
        results, validate = JOBS[job]()
        results[0] = np.append(results[0], 0)
        with pytest.raises(BufferSizeError):
            validate(results)


FOLDED_REFERENCES = {
    "alltoall": lambda rank, nprocs, ppn: expected_folded_alltoall_result(rank, nprocs, ppn, 2),
    "workload": lambda rank, nprocs, ppn: expected_folded_workload_result(
        rank, np.full((nprocs, nprocs), 2), ppn
    ),
}


@pytest.mark.parametrize("reference", sorted(FOLDED_REFERENCES))
class TestFoldedReferenceInputs:
    """Both folded references refuse a ``ppn`` or ``rank`` outside their contract."""

    def test_accepts_every_representative(self, reference):
        for rank in range(4):
            assert FOLDED_REFERENCES[reference](rank, 8, 4).size == 16

    @pytest.mark.parametrize("ppn", [0, -2])
    def test_ppn_below_one_rejected(self, reference, ppn):
        with pytest.raises(BufferSizeError, match="ppn >= 1"):
            FOLDED_REFERENCES[reference](0, 8, ppn)

    def test_ppn_not_dividing_nprocs_rejected(self, reference):
        with pytest.raises(BufferSizeError, match="dividing"):
            FOLDED_REFERENCES[reference](0, 8, 3)

    @pytest.mark.parametrize("rank", [-1, 4, 7])
    def test_rank_outside_representatives_rejected(self, reference, rank):
        with pytest.raises(BufferSizeError, match="representative"):
            FOLDED_REFERENCES[reference](rank, 8, 4)


class TestPhaseRecorder:
    def test_records_elapsed_time(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=2)

        def program(ctx):
            from repro.simmpi.ops import Delay

            phases = PhaseRecorder(ctx)
            phases.start(PHASE_GATHER)
            yield Delay(1.0e-4)
            phases.stop(PHASE_GATHER)
            phases.start(PHASE_INTER)
            yield Delay(2.0e-4)
            phases.stop(PHASE_INTER)

        result = run_spmd(pmap, program)
        assert result.phase_time(PHASE_GATHER) == pytest.approx(1.0e-4, rel=1e-6)
        assert result.phase_time(PHASE_INTER) == pytest.approx(2.0e-4, rel=1e-6)

    def test_phases_accumulate(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=1), ppn=1)

        def program(ctx):
            from repro.simmpi.ops import Delay

            phases = PhaseRecorder(ctx)
            for _ in range(3):
                phases.start("work")
                yield Delay(1.0e-5)
                phases.stop("work")

        result = run_spmd(pmap, program)
        assert result.phase_time("work") == pytest.approx(3.0e-5, rel=1e-6)

    def test_nested_phases_rejected(self, two_node_pmap):
        def program(ctx):
            phases = PhaseRecorder(ctx)
            phases.start("a")
            phases.start("b")
            return
            yield  # pragma: no cover

        with pytest.raises(AlgorithmError):
            run_spmd(two_node_pmap, program)

    def test_stopping_wrong_phase_rejected(self, two_node_pmap):
        def program(ctx):
            phases = PhaseRecorder(ctx)
            phases.start("a")
            phases.stop("b")
            return
            yield  # pragma: no cover

        with pytest.raises(AlgorithmError):
            run_spmd(two_node_pmap, program)


class TestPhaseContextManager:
    def test_with_block_records_like_start_stop(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=2)

        def program(ctx):
            from repro.simmpi.ops import Delay

            phases = PhaseRecorder(ctx)
            with phases.phase(PHASE_GATHER):
                yield Delay(1.0e-4)
            with phases.phase(PHASE_INTER):
                yield Delay(2.0e-4)

        result = run_spmd(pmap, program)
        assert result.phase_time(PHASE_GATHER) == pytest.approx(1.0e-4, rel=1e-6)
        assert result.phase_time(PHASE_INTER) == pytest.approx(2.0e-4, rel=1e-6)

    def test_with_blocks_accumulate_and_mix_with_start_stop(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=1), ppn=1)

        def program(ctx):
            from repro.simmpi.ops import Delay

            phases = PhaseRecorder(ctx)
            with phases.phase("work"):
                yield Delay(1.0e-5)
            phases.start("work")          # legacy API still composes
            yield Delay(1.0e-5)
            phases.stop("work")
            with phases.phase("work"):
                yield Delay(1.0e-5)

        result = run_spmd(pmap, program)
        assert result.phase_time("work") == pytest.approx(3.0e-5, rel=1e-6)

    def test_nested_with_blocks_rejected(self, two_node_pmap):
        def program(ctx):
            phases = PhaseRecorder(ctx)
            with phases.phase("a"):
                with phases.phase("b"):
                    pass
            return
            yield  # pragma: no cover

        with pytest.raises(AlgorithmError):
            run_spmd(two_node_pmap, program)

    def test_raising_block_discards_open_phase(self):
        recorded = []

        class Ctx:
            rank = 0
            now = 0.0

            class _engine:
                sink = None

            def add_timing(self, phase, seconds):
                recorded.append((phase, seconds))

        phases = PhaseRecorder(Ctx())
        with pytest.raises(RuntimeError):
            with phases.phase("a"):
                raise RuntimeError("boom")
        # The failed phase recorded nothing and the recorder stays usable.
        assert recorded == []
        assert phases.open_phase is None
        with phases.phase("b"):
            pass
        assert [name for name, _ in recorded] == ["b"]
