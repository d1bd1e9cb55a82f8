"""The matched-message stream and the traffic counters tell one story.

Every message the router delivers is counted twice: once in the router's
``traffic`` counters (reported as ``outcome.traffic_by_level`` and
``job.metrics["traffic"]``) and once as a ``match`` event on an attached
:class:`RecordingSink`.  This suite reruns every job pinned by the golden
timing fixture with a sink attached and checks that the two agree message
for message and byte for byte at every locality level, that each message's
timestamps are causally ordered, and that a repeat run in the same process
reproduces the whole event stream exactly.  A symmetry-folded run must
deliver, event for event, what node 0 of the full run receives.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from repro.core.alltoall.registry import ALGORITHM_NAMES
from repro.core.runner import run_alltoall, run_workload
from repro.machine.hierarchy import LocalityLevel
from repro.machine.process_map import ProcessMap
from repro.machine.systems import get_system
from repro.netsim.fabric import parse_fabric
from repro.obs import RecordingSink
from repro.workloads import make_pattern


def _load_fixture_module():
    path = Path(__file__).resolve().parents[1] / "integration" / "test_timing_fixture.py"
    spec = importlib.util.spec_from_file_location("_timing_fixture_defs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_fixture = _load_fixture_module()
JOBS = _fixture.JOBS
_PATTERN_SEED = _fixture._PATTERN_SEED
KEYS = [job[0] for job in JOBS]


def _run_recorded(key):
    kind, algorithm, nodes, ppn, msg_bytes, pattern, options, *rest = next(
        job[1:] for job in JOBS if job[0] == key
    )
    fabric = parse_fabric(rest[0]) if rest else None
    cluster = get_system("dane", nodes, fabric=fabric)
    pmap = ProcessMap(cluster, ppn=ppn, num_nodes=nodes)
    sink = RecordingSink()
    if kind == "workload":
        matrix = make_pattern(pattern, pmap.nprocs, msg_bytes, seed=_PATTERN_SEED)
        outcome = run_workload(algorithm, pmap, matrix, validate=False, sink=sink,
                               **options)
    else:
        outcome = run_alltoall(algorithm, pmap, msg_bytes, validate=False, sink=sink,
                               **options)
    return pmap, sink, outcome


@pytest.mark.parametrize("key", KEYS)
def test_match_stream_reconciles_with_traffic_counters(key):
    pmap, sink, outcome = _run_recorded(key)
    matches = sink.of_kind("match")
    assert matches, f"{key}: no matches recorded"

    by_level: dict[LocalityLevel, list[int]] = {}
    for _, src, dst, nbytes, *_ in matches:
        counts = by_level.setdefault(pmap.locality(src, dst), [0, 0])
        counts[0] += 1
        counts[1] += nbytes
    assert {level: tuple(c) for level, c in by_level.items()} == {
        level: tuple(c) for level, c in outcome.traffic_by_level.items()
    }

    traffic = outcome.job.metrics["traffic"]
    assert traffic["messages"] == len(matches)
    assert traffic["bytes"] == sum(event[3] for event in matches)
    inter_node = by_level.get(LocalityLevel.NETWORK, [0, 0])
    assert inter_node == [outcome.inter_node_messages, outcome.inter_node_bytes]


@pytest.mark.parametrize("key", KEYS)
def test_every_message_is_causally_ordered(key):
    _, sink, outcome = _run_recorded(key)
    sends = sink.of_kind("send")
    matches = sink.of_kind("match")
    # One posted send per delivered message, with the same endpoints and size.
    assert Counter((s[1], s[2], s[3], s[4]) for s in sends) == Counter(
        (m[1], m[2], m[3], m[4]) for m in matches
    )
    first_post = min(s[5] for s in sends)
    finish_times = outcome.job.finish_times
    for _, src, dst, nbytes, tag, _, arrival, completion in matches:
        assert first_post <= arrival <= completion, (src, dst, tag)
        assert completion <= finish_times[dst], (src, dst, tag)
    assert max(m[7] for m in matches) <= outcome.elapsed


@pytest.mark.parametrize("key", KEYS)
def test_repeat_run_reproduces_the_event_stream(key):
    _, first_sink, first = _run_recorded(key)
    _, second_sink, second = _run_recorded(key)
    assert second_sink.events == first_sink.events
    assert second.elapsed == first.elapsed
    assert second.job.finish_times == first.job.finish_times
    assert second.job.events_processed == first.job.events_processed
    assert second.job.metrics == first.job.metrics


@pytest.mark.parametrize("msg_bytes", [64, 16384], ids=["eager", "rendezvous"])
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_folded_delivery_matches_node_zero_of_the_full_run(algorithm, msg_bytes):
    """Folded sends are delivered as their mirrors: the folded run's match and
    park events are exactly the full run's events into node 0's ranks."""
    ppn = 4
    pmap = ProcessMap(get_system("dane", 4), ppn=ppn, num_nodes=4)
    assert 64 <= pmap.params.eager_limit < 16384  # one size per protocol
    full_sink, folded_sink = RecordingSink(), RecordingSink()
    run_alltoall(algorithm, pmap, msg_bytes, validate=False, sink=full_sink)
    folded = run_alltoall(algorithm, pmap, msg_bytes, validate=False, sink=folded_sink,
                          fold="on")
    assert folded.fold is not None
    for kind in ("match", "park"):
        node_zero = Counter(e for e in full_sink.of_kind(kind) if e[2] < ppn)
        assert Counter(folded_sink.of_kind(kind)) == node_zero, kind
    assert folded_sink.of_kind("match")
