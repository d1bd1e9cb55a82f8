"""The bulk locality path must reproduce the per-peer model bit for bit.

:meth:`ProcessMap.locality_codes` resolves a whole peer set against
:attr:`NodeArchitecture.level_table`, and the ``model.loggp`` estimators and
the ``workload_cost`` fabric helpers are built on it.  The ``_reference_*``
functions below are the per-peer bodies those functions had before, kept
verbatim as oracles.  Every comparison is exact (``==`` plus ``repr``, which
also catches a NumPy scalar leaking into a result), never approximate: the
oracle runs on the same interpreter, so its float sums round the same way on
every Python version, while a literal float pinned here would not.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Sequence

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.machine import Cluster, NodeArchitecture, ProcessMap
from repro.machine.hierarchy import LocalityLevel
from repro.machine.systems import SYSTEM_PRESETS, get_system, tiny_cluster
from repro.model.loggp import (
    ExchangeEstimate,
    _per_message_time,
    cross_numa_bytes,
    cross_numa_bytes_v,
    exchange_estimate,
    exchange_estimate_v,
    linear_rooted_cost,
)
from repro.model.workload_cost import _intra_fabric_load, _max_fabric_load


# ---------------------------------------------------------------------------
# Oracles: the per-pair locality rule and the per-peer estimator bodies
# ---------------------------------------------------------------------------

def _reference_core_locality(arch: NodeArchitecture, core_a: int, core_b: int) -> LocalityLevel:
    if core_a == core_b:
        return LocalityLevel.SELF
    if arch.numa_of_core(core_a) == arch.numa_of_core(core_b):
        return LocalityLevel.NUMA
    if arch.socket_of_core(core_a) == arch.socket_of_core(core_b):
        return LocalityLevel.SOCKET
    return LocalityLevel.NODE


def _reference_locality(pmap: ProcessMap, rank_a: int, rank_b: int) -> LocalityLevel:
    ppn = pmap.ppn
    if rank_a == rank_b:
        return LocalityLevel.SELF
    if rank_a // ppn != rank_b // ppn:
        return LocalityLevel.NETWORK
    return _reference_core_locality(pmap.node_arch, rank_a % ppn, rank_b % ppn)


def _reference_exchange_estimate(
    pmap: ProcessMap,
    me: int,
    peers: Sequence[int],
    msg_bytes: int,
    kind: str,
) -> ExchangeEstimate:
    params = pmap.params
    npeers = len(peers)
    if npeers == 0:
        return ExchangeEstimate(0.0, 0, 0)
    levels = [pmap.locality(me, peer) for peer in peers]
    inter = [lvl == LocalityLevel.NETWORK for lvl in levels]
    inter_msgs = sum(inter)
    inter_bytes = inter_msgs * msg_bytes
    overhead = params.send_overhead + params.recv_overhead

    if kind == "pairwise":
        wire = sum(_per_message_time(params, lvl, msg_bytes) for lvl in levels)
        cpu = npeers * (overhead + params.match_overhead_per_entry)
        return ExchangeEstimate(wire + cpu, inter_msgs, inter_bytes)

    if kind in ("nonblocking", "batched"):
        # One exposed latency, transfers serialized at the sender's port,
        # matching cost proportional to the average posted-queue length.
        worst_latency = max(params.latency(lvl) for lvl in levels)
        serialized = sum(msg_bytes * params.byte_time(lvl) for lvl in levels)
        rendezvous = 0.0 if params.is_eager(msg_bytes) else params.rendezvous_overhead
        matching = params.match_overhead_per_entry * npeers * (npeers + 1) / 2.0
        cpu = npeers * overhead
        return ExchangeEstimate(
            worst_latency + serialized + rendezvous + matching + cpu, inter_msgs, inter_bytes
        )

    if kind == "bruck":
        n = npeers + 1
        steps = max(1, math.ceil(math.log2(n)))
        step_bytes = (n // 2) * msg_bytes if n > 1 else 0
        worst = max(levels)
        per_step = (
            _per_message_time(params, worst, step_bytes)
            + 2.0 * params.copy_time(step_bytes)
            + overhead
            + params.match_overhead_per_entry
        )
        spans_network = worst == LocalityLevel.NETWORK
        step_inter_msgs = steps if spans_network else 0
        return ExchangeEstimate(steps * per_step, step_inter_msgs, step_inter_msgs * step_bytes)

    raise ConfigurationError(f"unknown exchange kind {kind!r}")


def _reference_exchange_estimate_v(
    pmap: ProcessMap,
    me: int,
    peers: Sequence[int],
    peer_bytes: Sequence[int],
    kind: str,
) -> ExchangeEstimate:
    params = pmap.params
    if len(peers) != len(peer_bytes):
        raise ConfigurationError(
            f"got {len(peers)} peers but {len(peer_bytes)} byte counts"
        )
    live = [(peer, int(nbytes)) for peer, nbytes in zip(peers, peer_bytes) if nbytes > 0]
    if not live:
        return ExchangeEstimate(0.0, 0, 0)
    levels = [pmap.locality(me, peer) for peer, _ in live]
    sizes = [nbytes for _, nbytes in live]
    inter = [lvl == LocalityLevel.NETWORK for lvl in levels]
    inter_msgs = sum(inter)
    inter_bytes = sum(n for n, crossing in zip(sizes, inter) if crossing)
    npeers = len(live)
    overhead = params.send_overhead + params.recv_overhead

    if kind == "pairwise":
        wire = sum(_per_message_time(params, lvl, n) for lvl, n in zip(levels, sizes))
        cpu = npeers * (overhead + params.match_overhead_per_entry)
        return ExchangeEstimate(wire + cpu, inter_msgs, inter_bytes)

    if kind in ("nonblocking", "batched"):
        worst_latency = max(params.latency(lvl) for lvl in levels)
        serialized = sum(n * params.byte_time(lvl) for lvl, n in zip(levels, sizes))
        rendezvous = 0.0 if params.is_eager(max(sizes)) else params.rendezvous_overhead
        matching = params.match_overhead_per_entry * npeers * (npeers + 1) / 2.0
        cpu = npeers * overhead
        return ExchangeEstimate(
            worst_latency + serialized + rendezvous + matching + cpu, inter_msgs, inter_bytes
        )

    raise ConfigurationError(
        f"unknown v-exchange kind {kind!r}; only 'pairwise' and 'nonblocking' have v-forms"
    )


def _reference_cross_numa_bytes(
    pmap: ProcessMap, me: int, peers: Sequence[int], bytes_per_peer: int
) -> int:
    total = 0
    for peer in peers:
        level = pmap.locality(me, peer)
        if level in (LocalityLevel.SOCKET, LocalityLevel.NODE):
            total += bytes_per_peer
    return total


def _reference_cross_numa_bytes_v(
    pmap: ProcessMap, me: int, peers: Sequence[int], peer_bytes: Sequence[int]
) -> int:
    total = 0
    for peer, nbytes in zip(peers, peer_bytes):
        level = pmap.locality(me, peer)
        if level in (LocalityLevel.SOCKET, LocalityLevel.NODE):
            total += int(nbytes)
    return total


def _reference_linear_rooted_cost(
    pmap: ProcessMap,
    root: int,
    members: Sequence[int],
    bytes_per_member: int,
) -> float:
    params = pmap.params
    others = [m for m in members if m != root]
    if not others:
        return params.copy_time(bytes_per_member)
    worst_latency = max(params.latency(pmap.locality(root, m)) for m in others)
    serialized = sum(bytes_per_member * params.byte_time(pmap.locality(root, m)) for m in others)
    rendezvous = 0.0 if params.is_eager(bytes_per_member) else params.rendezvous_overhead
    cpu = len(others) * (params.send_overhead + params.recv_overhead)
    matching = params.match_overhead_per_entry * len(others)
    return worst_latency + serialized + rendezvous + cpu + matching + params.copy_time(bytes_per_member)


def _reference_max_fabric_load(pmap: ProcessMap, matrix_bytes: np.ndarray) -> int:
    ppn = pmap.ppn
    numa = np.array([pmap.numa_of(r) for r in range(ppn)])
    cross = numa[:, None] != numa[None, :]
    blocks = matrix_bytes.reshape(pmap.num_nodes, ppn, pmap.num_nodes, ppn)
    worst = 0
    for node in range(pmap.num_nodes):
        worst = max(worst, int((blocks[node, :, node, :] * cross).sum()))
    return worst


def _reference_intra_fabric_load(pmap: ProcessMap, bytes_matrix: np.ndarray, group: int) -> int:
    nprocs = pmap.nprocs
    ppn = pmap.ppn
    ngroups = nprocs // group
    groups_per_node = ppn // group
    # position_cols[k, d]: bytes every position-k source addressed to rank d.
    position_cols = bytes_matrix.reshape(ngroups, group, nprocs).sum(axis=0)
    # numa_by_pos[k, g_local]: NUMA domain of the member at position k of the
    # node-local group g_local (identical layout on every node).
    numa = np.array([pmap.numa_of(r) for r in range(ppn)])
    numa_by_pos = numa.reshape(groups_per_node, group).T
    # crossing[k, g_local, m]: relay k -> m within group g_local spans NUMA domains.
    crossing = numa_by_pos[:, :, None] != numa_by_pos.T[None, :, :]
    crossing &= ~np.eye(group, dtype=bool)[:, None, :]
    worst = 0
    for node in range(pmap.num_nodes):
        relayed = position_cols[:, node * ppn: (node + 1) * ppn].reshape(
            group, groups_per_node, group
        )
        worst = max(worst, int(relayed[crossing].sum()))
    return worst


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

def _odd_cluster(name: str, sockets: int, numa_per_socket: int, cores_per_numa: int) -> Cluster:
    node = NodeArchitecture(name, sockets, numa_per_socket, cores_per_numa)
    return dataclasses.replace(tiny_cluster(num_nodes=3), name=name, node=node)


#: (label, process map): every preset at full ppn, the odd shapes, and
#: ``ppn`` below the cores per node (on presets and on odd shapes).
MAPS = {
    **{
        f"{name}-full": ProcessMap(get_system(name, 3), ppn=get_system(name, 3).cores_per_node)
        for name in sorted(SYSTEM_PRESETS)
    },
    "one-socket": ProcessMap(_odd_cluster("one-socket", 1, 2, 3), ppn=6),
    "three-numa-one-core": ProcessMap(_odd_cluster("three-numa-one-core", 1, 3, 1), ppn=3),
    "three-sockets": ProcessMap(_odd_cluster("three-sockets", 3, 2, 2), ppn=12),
    "dane-ppn20": ProcessMap(get_system("dane", 3), ppn=20),
    "tuolomne-ppn30": ProcessMap(get_system("tuolomne", 3), ppn=30),
    "tiny-ppn6": ProcessMap(tiny_cluster(num_nodes=3), ppn=6),
    "one-socket-ppn4": ProcessMap(_odd_cluster("one-socket", 1, 2, 3), ppn=4),
}

KINDS = ("pairwise", "nonblocking", "batched", "bruck")
V_KINDS = ("pairwise", "nonblocking", "batched")


def _mes(pmap: ProcessMap) -> list[int]:
    """Rank 0, and ranks on a non-zero node and a non-zero core."""
    ppn = pmap.ppn
    last = pmap.nprocs - 1
    return sorted({0, ppn + ppn // 2, last, ppn + min(ppn - 1, 5)})


def _peer_sets(pmap: ProcessMap, me: int, seed: int) -> list:
    """Sorted, unsorted and repeated peers as list, ``range`` and ndarray; and none."""
    rng = random.Random(seed)
    nprocs = pmap.nprocs
    everyone = [r for r in range(nprocs) if r != me]
    shuffled = everyone[:]
    rng.shuffle(shuffled)
    repeated = [rng.randrange(nprocs) for _ in range(2 * pmap.ppn + 3)]
    on_node = list(range(me - me % pmap.ppn, me - me % pmap.ppn + pmap.ppn))
    return [
        everyone,
        shuffled,
        repeated,
        repeated + [me, me],
        on_node[::-1],
        range(nprocs),
        range(1, nprocs, 3),
        np.array(shuffled, dtype=np.int64),
        np.array(repeated, dtype=np.int32),
        [me],
        [],
        range(0),
        np.array([], dtype=np.int64),
    ]


def _sizes(pmap: ProcessMap) -> list[int]:
    limit = pmap.params.eager_limit
    return [1, 7, limit - 1, limit, limit + 1, 3 * limit + 5]


def _v_bytes(pmap: ProcessMap, count: int, seed: int) -> list[list[int]]:
    """Byte vectors with zeros, straddling the eager limit."""
    rng = random.Random(seed)
    limit = pmap.params.eager_limit
    choices = [0, 0, 1, 13, limit - 1, limit, limit + 1, 5 * limit + 3]
    mixed = [rng.choice(choices) for _ in range(count)]
    spread = [rng.randrange(0, 4 * limit) if rng.random() < 0.7 else 0 for _ in range(count)]
    return [mixed, spread, [0] * count, [limit] * count]


def _same(new, old) -> None:
    assert new == old
    assert repr(new) == repr(old)


def _cases(label: str):
    """(me, peers) pairs of one process map, seeded by the map's position."""
    pmap = MAPS[label]
    seed = sorted(MAPS).index(label)
    for me in _mes(pmap):
        for peers in _peer_sets(pmap, me, seed=1000 * seed + me):
            yield me, peers


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestLevelTable:
    @pytest.mark.parametrize("name", sorted(SYSTEM_PRESETS))
    def test_matches_core_locality_for_every_core_pair(self, name):
        arch = get_system(name, 2).node
        table = arch.level_table
        cores = arch.cores_per_node
        assert table.shape == (cores, cores) and table.dtype == np.int8
        for a in range(cores):
            for b in range(cores):
                expected = _reference_core_locality(arch, a, b)
                assert table[a, b] == expected
                assert arch.core_locality(a, b) is expected

    @pytest.mark.parametrize("label", ["one-socket", "three-numa-one-core", "three-sockets"])
    def test_odd_shapes_match_the_rule(self, label):
        arch = MAPS[label].node_arch
        cores = arch.cores_per_node
        expected = [[_reference_core_locality(arch, a, b) for b in range(cores)] for a in range(cores)]
        assert arch.level_table.tolist() == expected

    def test_is_read_only_shared_and_not_a_field(self):
        arch = get_system("dane", 2).node
        with pytest.raises(ValueError):
            arch.level_table[0, 1] = LocalityLevel.NETWORK
        assert get_system("amber", 4).node.level_table is arch.level_table
        assert {f.name for f in dataclasses.fields(NodeArchitecture)} == {
            "name", "sockets", "numa_per_socket", "cores_per_numa"
        }

    def test_core_locality_still_checks_range(self):
        arch = get_system("tiny", 2).node
        with pytest.raises(TopologyError):
            arch.core_locality(0, arch.cores_per_node)
        with pytest.raises(TopologyError):
            arch.core_locality(-1, 0)


class TestLocalityCodes:
    @pytest.mark.parametrize("label", sorted(MAPS))
    def test_single_pair_locality_matches_the_rule(self, label):
        pmap = MAPS[label]
        fresh = ProcessMap(pmap.cluster, ppn=pmap.ppn, num_nodes=pmap.num_nodes)
        for a in range(0, pmap.nprocs, max(1, pmap.nprocs // 40)):
            for b in range(pmap.nprocs):
                assert fresh.locality(a, b) is _reference_locality(pmap, a, b)

    @pytest.mark.parametrize("label", sorted(MAPS))
    def test_codes_equal_per_pair_locality(self, label):
        pmap = MAPS[label]
        for me, peers in _cases(label):
            codes = pmap.locality_codes(me, peers)
            assert codes.dtype == np.int8
            assert codes.tolist() == [pmap.locality(me, int(p)) for p in peers]
            assert codes.tolist() == [_reference_locality(pmap, me, int(p)) for p in peers]

    @pytest.mark.parametrize("label", ["tiny-full", "dane-ppn20", "three-numa-one-core"])
    def test_out_of_range_raises_like_locality(self, label):
        pmap = MAPS[label]
        n = pmap.nprocs
        for me, peers in ((n, [0]), (-1, [0]), (0, [1, n]), (0, [-1]), (1, np.array([2, n + 7]))):
            with pytest.raises(TopologyError) as bulk:
                pmap.locality_codes(me, peers)
            bad_peer = next((int(p) for p in peers if not 0 <= p < n), 0)
            with pytest.raises(TopologyError) as single:
                pmap.locality(me, bad_peer)
            assert str(bulk.value) == str(single.value)

    def test_out_of_range_peer_raises_in_every_estimator(self):
        pmap = MAPS["tiny-full"]
        bad = [1, pmap.nprocs]
        with pytest.raises(TopologyError):
            exchange_estimate(pmap, 0, bad, 8, "pairwise")
        with pytest.raises(TopologyError):
            exchange_estimate_v(pmap, 0, bad, [8, 8], "pairwise")
        with pytest.raises(TopologyError):
            cross_numa_bytes(pmap, 0, bad, 8)
        with pytest.raises(TopologyError):
            cross_numa_bytes_v(pmap, 0, bad, [0, 8])
        with pytest.raises(TopologyError):
            linear_rooted_cost(pmap, 0, bad, 8)


@pytest.mark.parametrize("label", sorted(MAPS))
class TestEstimatorsMatchOracle:
    def test_exchange_estimate(self, label):
        pmap = MAPS[label]
        for me, peers in _cases(label):
            for msg_bytes in _sizes(pmap):
                for kind in KINDS:
                    _same(
                        exchange_estimate(pmap, me, peers, msg_bytes, kind),
                        _reference_exchange_estimate(pmap, me, peers, msg_bytes, kind),
                    )

    def test_exchange_estimate_v(self, label):
        pmap = MAPS[label]
        for me, peers in _cases(label):
            for peer_bytes in _v_bytes(pmap, len(peers), seed=len(peers) + me):
                for as_array in (False, True):
                    given = np.array(peer_bytes, dtype=np.int64) if as_array else peer_bytes
                    for kind in V_KINDS:
                        _same(
                            exchange_estimate_v(pmap, me, peers, given, kind),
                            _reference_exchange_estimate_v(pmap, me, peers, given, kind),
                        )

    def test_cross_numa_bytes(self, label):
        pmap = MAPS[label]
        for me, peers in _cases(label):
            for msg_bytes in _sizes(pmap):
                _same(
                    cross_numa_bytes(pmap, me, peers, msg_bytes),
                    _reference_cross_numa_bytes(pmap, me, peers, msg_bytes),
                )
            for peer_bytes in _v_bytes(pmap, len(peers), seed=me):
                _same(
                    cross_numa_bytes_v(pmap, me, peers, peer_bytes),
                    _reference_cross_numa_bytes_v(pmap, me, peers, peer_bytes),
                )

    def test_linear_rooted_cost(self, label):
        pmap = MAPS[label]
        for root, members in _cases(label):
            for nbytes in _sizes(pmap) + [0]:
                _same(
                    linear_rooted_cost(pmap, root, members, nbytes),
                    _reference_linear_rooted_cost(pmap, root, members, nbytes),
                )


class TestEstimatorErrors:
    def test_unknown_kinds_raise_the_same_error(self):
        pmap = MAPS["tiny-full"]
        for new, old, args in (
            (exchange_estimate, _reference_exchange_estimate, (pmap, 0, [1, 9], 8, "telepathy")),
            (exchange_estimate_v, _reference_exchange_estimate_v, (pmap, 0, [1, 9], [8, 8], "bruck")),
            (exchange_estimate_v, _reference_exchange_estimate_v, (pmap, 0, [1, 9], [8], "pairwise")),
        ):
            with pytest.raises(ConfigurationError) as bulk:
                new(*args)
            with pytest.raises(ConfigurationError) as single:
                old(*args)
            assert str(bulk.value) == str(single.value)

    def test_model_queries_leave_the_simulator_memo_empty(self):
        pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=8)
        exchange_estimate(pmap, 0, range(1, 16), 64, "pairwise")
        linear_rooted_cost(pmap, 0, range(4), 64)
        assert pmap._pair_locality == {}


class TestWorkloadFabricLoads:
    @pytest.mark.parametrize("label", sorted(MAPS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_max_fabric_load(self, label, seed):
        pmap = MAPS[label]
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 5000, size=(pmap.nprocs, pmap.nprocs))
        matrix[rng.random(matrix.shape) < 0.4] = 0
        _same(_max_fabric_load(pmap, matrix), _reference_max_fabric_load(pmap, matrix))

    @pytest.mark.parametrize("label", sorted(MAPS))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_intra_fabric_load(self, label, seed):
        pmap = MAPS[label]
        rng = np.random.default_rng(seed)
        matrix = rng.integers(0, 5000, size=(pmap.nprocs, pmap.nprocs))
        matrix[rng.random(matrix.shape) < 0.4] = 0
        for group in (g for g in range(1, pmap.ppn + 1) if pmap.ppn % g == 0):
            _same(
                _intra_fabric_load(pmap, matrix, group),
                _reference_intra_fabric_load(pmap, matrix, group),
            )

