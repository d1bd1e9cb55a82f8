"""The symmetry-folding differential gate: folded timings must be bit-exact.

These tests are the acceptance criterion of the folding refactor: at scales
the full engine can still simulate, a folded run must reproduce the full
run's elapsed time, per-representative finish times and (multiplicity-
scaled) traffic exactly — not approximately — on contention-free fabrics,
and within the documented tolerance on contended ones.
"""

import numpy as np
import pytest

from repro.core.runner import run_alltoall, run_workload
from repro.errors import ConfigurationError
from repro.machine import ProcessMap, tiny_cluster
from repro.machine.folding import fold_process_map
from repro.netsim.fabric import FatTreeFabric, parse_fabric
from repro.simmpi.datatypes import ANY_SOURCE, ANY_TAG
from repro.simmpi.engine import run_spmd
from repro.verify.folding import (
    FABRIC_REL_TOL,
    compare_alltoall_fold,
    model_crosscheck,
    run_fold_gate,
)
from repro.workloads.generators import skewed_moe, uniform


@pytest.fixture
def pmap():
    return ProcessMap(tiny_cluster(num_nodes=4), ppn=4)


# -- the gate itself ---------------------------------------------------------


def test_fold_gate_passes_across_the_registry():
    """Every algorithm, eager + rendezvous, uniform + symmetric workloads."""
    report = run_fold_gate(num_nodes=4, ppn=4)
    assert report.ok, report.describe()
    exact = [r for r in report.records if r.equivalence == "exact"]
    assert len(exact) >= 20  # 10 algorithms x 2 sizes + 3 workloads
    for record in exact:
        assert record.full_elapsed == record.folded_elapsed
        assert record.multiplicity == 4


def test_fold_gate_rejects_unfoldable_scale():
    with pytest.raises(ValueError):
        run_fold_gate(num_nodes=128)


def test_contended_fabric_within_documented_tolerance():
    fabric = FatTreeFabric(hosts_per_switch=2, oversubscription=2.0)
    pmap = ProcessMap(tiny_cluster(num_nodes=8, fabric=fabric), ppn=4)
    record = compare_alltoall_fold("pairwise", pmap, 32768, equivalence="aggregate")
    assert record.ok
    scale = max(record.full_elapsed, record.folded_elapsed)
    assert abs(record.full_elapsed - record.folded_elapsed) <= FABRIC_REL_TOL * scale


def test_contended_fabric_aggregate_accounting_is_exact():
    """Folded per-link busy_time/bytes must equal the full run's exactly."""
    fabric = FatTreeFabric(hosts_per_switch=2, oversubscription=2.0)
    pmap = ProcessMap(tiny_cluster(num_nodes=8, fabric=fabric), ppn=4)
    full = run_alltoall("pairwise", pmap, 32768, fold="off")
    folded = run_alltoall("pairwise", pmap, 32768, fold="on")
    full_stats = {s["link"]: s for s in full.job.fabric_statistics}
    folded_stats = {s["link"]: s for s in folded.job.fabric_statistics}
    # The representative node's uplink carries, weighted, the whole fabric's
    # load pattern: its aggregate accounting matches the full run bit-exact.
    assert folded_stats["ft-up0"]["busy_time"] == pytest.approx(
        full_stats["ft-up0"]["busy_time"], rel=1e-12
    )
    assert folded_stats["ft-up0"]["bytes"] == full_stats["ft-up0"]["bytes"]


def test_model_crosscheck_agrees_at_scale():
    points = model_crosscheck(node_counts=(256,), algorithms=("pairwise",))
    assert points and all(p.ok for p in points)
    # Measured agreement is ~1.15x; anything past 2x would signal a folded
    # timeline silently dropping the absent nodes' serialization.
    assert all(0.5 <= p.ratio <= 2.0 for p in points)


# -- runner-level fold modes -------------------------------------------------


def test_fold_on_unfoldable_workload_raises(pmap):
    matrix = skewed_moe(16, 64, concentration=8.0)
    with pytest.raises(ConfigurationError):
        run_workload("pairwise", pmap, matrix, fold="on")


def test_fold_auto_falls_back_to_full_width(pmap):
    matrix = skewed_moe(16, 64, concentration=8.0)
    outcome = run_workload("pairwise", pmap, matrix, fold="auto")
    assert outcome.fold is None
    assert outcome.correct


def test_fold_auto_folds_symmetric_workload(pmap):
    outcome = run_workload("pairwise", pmap, uniform(16, 64), fold="auto")
    assert outcome.fold is not None
    assert outcome.fold["multiplicity"] == 4
    assert outcome.fold["kind"] == "uniform"
    assert outcome.correct


@pytest.fixture
def dragonfly_pmap():
    return ProcessMap(tiny_cluster(num_nodes=4, fabric=parse_fabric("dragonfly:1,2,2")), ppn=4)


def test_fold_on_dragonfly_refused(dragonfly_pmap):
    """Dragonfly is outside the certified envelope: 'on' must not fold."""
    with pytest.raises(ConfigurationError, match="dragonfly"):
        run_alltoall("pairwise", dragonfly_pmap, 64, fold="on")
    with pytest.raises(ConfigurationError, match="dragonfly"):
        run_workload("pairwise", dragonfly_pmap, uniform(16, 64), fold="on")


def test_fold_auto_on_dragonfly_runs_full_width(dragonfly_pmap):
    full = run_alltoall("pairwise", dragonfly_pmap, 64, fold="off")
    auto = run_alltoall("pairwise", dragonfly_pmap, 64, fold="auto")
    assert auto.fold is None
    assert auto.elapsed == full.elapsed
    matrix = uniform(16, 64)
    full = run_workload("pairwise", dragonfly_pmap, matrix, fold="off")
    auto = run_workload("pairwise", dragonfly_pmap, matrix, fold="auto")
    assert auto.fold is None
    assert auto.elapsed == full.elapsed


def test_invalid_fold_mode_rejected(pmap):
    with pytest.raises(ConfigurationError):
        run_alltoall("pairwise", pmap, 64, fold="sometimes")


def test_folded_traffic_matches_full_run_totals(pmap):
    full = run_alltoall("node-aware", pmap, 256, fold="off")
    folded = run_alltoall("node-aware", pmap, 256, fold="on")
    assert folded.traffic_by_level == full.traffic_by_level
    assert folded.elapsed == full.elapsed
    # Folded runs process roughly 1/multiplicity of the events.
    assert folded.job.events_processed < full.job.events_processed


def test_folded_contents_validate_against_closed_form(pmap):
    """The folded receive buffers equal the rotated closed-form reference."""
    from repro.core.validation import expected_folded_alltoall_result

    outcome = run_alltoall("bruck", pmap, 64, fold="on", dtype=np.int64)
    assert outcome.correct
    for rank, got in enumerate(outcome.job.results):
        expected = expected_folded_alltoall_result(rank, 16, 4, 8, dtype=np.int64)
        assert np.array_equal(got, expected)


#: Receive kinds of the wildcard program: the ``(source, tag)`` a rank posts
#: for the message from ``src``, which is sent with tag ``distance``.
_WILDCARD_RECEIVES = {
    "any-source": lambda src, distance: (ANY_SOURCE, distance),
    "any-tag": lambda src, distance: (src, ANY_TAG),
    "both": lambda src, distance: (ANY_SOURCE, ANY_TAG),
}


def _wildcard_program(ctx, kind, msg_bytes):
    """Post ``n - 1`` wildcard receives, then send to every peer.

    The tag of each message is its rotation-invariant rank distance, so the
    traffic stays foldable while every status says which peer it came from.
    """
    comm, n, rank = ctx.world, ctx.nprocs, ctx.rank
    receive = _WILDCARD_RECEIVES[kind]
    recvs = []
    for distance in range(1, n):
        source, tag = receive((rank - distance) % n, distance)
        buf = np.zeros(msg_bytes, dtype=np.uint8)
        recvs.append((yield from comm.irecv(buf, source=source, tag=tag)))
    payload = np.full(msg_bytes, rank % 251, dtype=np.uint8)
    sends = []
    for distance in range(1, n):
        sends.append((yield from comm.isend(payload, (rank + distance) % n, tag=distance)))
    statuses = yield from comm.waitall(recvs + sends)
    ctx.result = [(s.source, s.tag, s.nbytes) for s in statuses[: n - 1]]


@pytest.mark.parametrize("msg_bytes", [64, 16384], ids=["eager", "rendezvous"])
@pytest.mark.parametrize("kind", sorted(_WILDCARD_RECEIVES))
def test_folded_wildcard_receives_match_full_run(pmap, kind, msg_bytes):
    """Wildcard receives on representatives see the mirrors' identities:
    the same statuses and finish times as node 0 of the full run."""
    assert 64 <= pmap.params.eager_limit < 16384  # one size per protocol
    full = run_spmd(pmap, _wildcard_program, kind, msg_bytes)
    folded = run_spmd(fold_process_map(pmap), _wildcard_program, kind, msg_bytes)
    ppn = pmap.ppn
    assert folded.fold is not None
    assert folded.results == full.results[:ppn]
    assert folded.finish_times == full.finish_times[:ppn]
    assert any(src >= ppn for src, _, _ in folded.results[0])


def test_paper_scale_headroom_smoke():
    """A 64k-rank machine simulates folded in interactive time.

    The unfolded engine's O(P^2) message count makes this shape unreachable
    (the committed 64-node/512-rank headline job takes seconds); folded it
    is one rank's timeline.  This is the issue's >= 100x rank-count headroom
    gate at smoke scale.
    """
    pmap = ProcessMap(tiny_cluster(num_nodes=65536), ppn=1)
    outcome = run_alltoall("pairwise", pmap, 64, fold="on", validate=False,
                           keep_job=False)
    assert outcome.fold["logical_ranks"] == 65536
    assert outcome.fold["simulated_ranks"] == 1
    assert outcome.elapsed > 0.0
