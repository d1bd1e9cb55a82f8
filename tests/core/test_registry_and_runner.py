"""Tests for the algorithm registry and the high-level runner."""

import numpy as np
import pytest

from repro.core import get_algorithm, list_algorithms, run_alltoall
from repro.core.alltoall import (
    ALGORITHM_NAMES,
    HierarchicalAlltoall,
    NodeAwareAlltoall,
    get_inner_exchange,
)
from repro.errors import ConfigurationError
from repro.machine import ProcessMap, tiny_cluster
from repro.machine.hierarchy import LocalityLevel
from repro.obs import RecordingSink


class TestRegistry:
    def test_all_paper_algorithms_registered(self):
        names = set(list_algorithms())
        assert {
            "pairwise", "nonblocking", "bruck", "batched", "system-mpi",
            "hierarchical", "multileader", "node-aware", "locality-aware",
            "multileader-node-aware",
        } <= names

    def test_names_match_classes(self):
        for name in ALGORITHM_NAMES:
            assert get_algorithm(name).name == name

    def test_options_forwarded(self):
        algo = get_algorithm("locality-aware", procs_per_group=8, inner="nonblocking")
        assert algo.options() == {"procs_per_group": 8, "inner": "nonblocking"}

    def test_case_insensitive(self):
        assert isinstance(get_algorithm("Node-Aware"), NodeAwareAlltoall)

    def test_instance_passthrough(self):
        algo = HierarchicalAlltoall(procs_per_leader=2)
        assert get_algorithm(algo) is algo

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown all-to-all algorithm"):
            get_algorithm("magic")

    def test_invalid_options_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid options"):
            get_algorithm("pairwise", procs_per_leader=4)

    def test_unknown_inner_exchange_rejected(self):
        with pytest.raises(ConfigurationError):
            get_inner_exchange("quantum")

    def test_describe_includes_options(self):
        text = get_algorithm("multileader-node-aware", procs_per_leader=8).describe()
        assert "multileader-node-aware" in text and "8" in text


class TestRunner:
    @pytest.fixture(scope="class")
    def pmap(self):
        return ProcessMap(tiny_cluster(num_nodes=2), ppn=4)

    def test_outcome_fields(self, pmap):
        outcome = run_alltoall("pairwise", pmap, msg_bytes=16)
        assert outcome.correct
        assert outcome.elapsed > 0.0
        assert outcome.num_nodes == 2 and outcome.ppn == 4 and outcome.nprocs == 8
        assert outcome.msg_bytes == 16
        assert LocalityLevel.NETWORK in outcome.traffic_by_level
        assert "pairwise" in outcome.summary()

    def test_validation_can_be_disabled(self, pmap):
        outcome = run_alltoall("pairwise", pmap, msg_bytes=16, validate=False)
        assert outcome.correct  # reported as correct because it was not checked
        assert outcome.elapsed > 0.0

    def test_keep_job_false_drops_engine_state(self, pmap):
        outcome = run_alltoall("pairwise", pmap, msg_bytes=16, keep_job=False)
        assert outcome.job is None

    def test_matched_messages_agree_with_traffic(self, pmap):
        sink = RecordingSink()
        outcome = run_alltoall("node-aware", pmap, msg_bytes=16, sink=sink)
        inter_node = [event for event in sink.of_kind("match")
                      if pmap.locality(event[1], event[2]) == LocalityLevel.NETWORK]
        assert inter_node
        assert len(inter_node) == outcome.inter_node_messages

    def test_dtype_item_size_respected(self, pmap):
        outcome = run_alltoall("pairwise", pmap, msg_bytes=32, dtype=np.int64)
        assert outcome.correct

    def test_msg_bytes_not_multiple_of_itemsize_rejected(self, pmap):
        with pytest.raises(ConfigurationError):
            run_alltoall("pairwise", pmap, msg_bytes=10, dtype=np.int64)

    def test_non_positive_msg_bytes_rejected(self, pmap):
        with pytest.raises(ConfigurationError):
            run_alltoall("pairwise", pmap, msg_bytes=0)

    def test_options_with_instance_rejected(self, pmap):
        algo = HierarchicalAlltoall()
        with pytest.raises(ConfigurationError):
            run_alltoall(algo, pmap, msg_bytes=16, inner="bruck")

    def test_algorithm_validate_called(self, pmap):
        # procs_per_leader=3 does not divide ppn=4 and must fail before simulation.
        with pytest.raises(ConfigurationError):
            run_alltoall("multileader-node-aware", pmap, msg_bytes=16, procs_per_leader=3)

    def test_elapsed_scales_with_message_size(self, pmap):
        small = run_alltoall("pairwise", pmap, msg_bytes=8)
        large = run_alltoall("pairwise", pmap, msg_bytes=4096)
        assert large.elapsed > small.elapsed
