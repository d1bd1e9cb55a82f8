"""Property-based tests of fault-injection determinism.

The contract that makes faulted sweeps cacheable and reproducible: every
fault draw is a pure function of ``(FaultSpec, seed, rank/link)``.  Nothing
may depend on wall clock, process identity, dict ordering, or how many
worker threads/processes happen to execute the simulation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import run_alltoall
from repro.faults import (
    DegradedLink,
    FaultSpec,
    FlappingLink,
    OsNoise,
    StragglerNode,
    faults_from_payload,
)
from repro.faults.apply import OsNoiseState, nic_scale_vector
from repro.faults.spec import noise_stream_seed
from repro.machine.process_map import ProcessMap
from repro.machine.systems import tiny_cluster

amplitudes = st.floats(min_value=1e-9, max_value=1e-5, allow_nan=False)
seeds = st.integers(min_value=-(2**31), max_value=2**31)
ranks = st.integers(min_value=0, max_value=63)


@settings(max_examples=50, deadline=None)
@given(seed=seeds, rank=ranks)
def test_noise_stream_seed_is_pure(seed, rank):
    assert noise_stream_seed(seed, rank) == noise_stream_seed(seed, rank)


@settings(max_examples=25, deadline=None)
@given(amplitude=amplitudes, seed=seeds, rank=ranks, draws=st.integers(1, 20))
def test_noise_draws_are_pure_functions_of_spec_seed_rank(amplitude, seed, rank, draws):
    """The i-th draw of a rank is identical across independent states."""
    first = OsNoiseState(amplitude, seed)
    second = OsNoiseState(amplitude, seed)
    assert [first.draw(rank) for _ in range(draws)] == \
        [second.draw(rank) for _ in range(draws)]


@settings(max_examples=25, deadline=None)
@given(amplitude=amplitudes, seed=seeds, draws=st.integers(1, 10))
def test_noise_streams_are_independent_of_interleaving(amplitude, seed, draws):
    """Interleaving ranks A and B cannot change either rank's stream.

    This is exactly the property that makes the draws independent of how
    the engine interleaves rank programs: each rank consumes only its own
    stream.
    """
    interleaved = OsNoiseState(amplitude, seed)
    sequential = OsNoiseState(amplitude, seed)
    got_a, got_b = [], []
    for _ in range(draws):
        got_a.append(interleaved.draw(0))
        got_b.append(interleaved.draw(1))
    want_a = [sequential.draw(0) for _ in range(draws)]
    want_b = [sequential.draw(1) for _ in range(draws)]
    assert got_a == want_a and got_b == want_b


@settings(max_examples=50, deadline=None)
@given(
    nodes=st.integers(1, 8),
    stragglers=st.lists(
        st.tuples(st.integers(0, 9), st.floats(1.0, 8.0, allow_nan=False)),
        max_size=4,
    ),
    seed=seeds,
)
def test_nic_scale_vector_is_pure_and_one_sided(nodes, stragglers, seed):
    spec = FaultSpec(
        seed=seed,
        faults=tuple(StragglerNode(node=n, factor=f) for n, f in stragglers),
    )
    vector = nic_scale_vector(spec, nodes)
    assert vector == nic_scale_vector(spec, nodes)
    if vector is not None:
        assert len(vector) == nodes
        assert all(scale >= 1.0 for scale in vector)


link_faults = st.one_of(
    st.builds(DegradedLink,
              link=st.sampled_from(["*", "df-*", "none-*"]),
              factor=st.floats(0.05, 1.0, allow_nan=False)),
    st.builds(FlappingLink,
              link=st.sampled_from(["*", "df-*"]),
              period=st.floats(1e-7, 1e-5, allow_nan=False),
              duty=st.floats(0.1, 1.0, allow_nan=False)),
)
any_fault = st.one_of(
    link_faults,
    st.builds(StragglerNode, node=st.integers(0, 3),
              factor=st.floats(1.0, 4.0, allow_nan=False)),
    st.builds(OsNoise, amplitude=st.floats(0.0, 2e-6, allow_nan=False)),
)
fault_specs = st.builds(FaultSpec,
                        faults=st.lists(any_fault, max_size=3).map(tuple),
                        seed=st.integers(0, 2**16))


@settings(max_examples=50, deadline=None)
@given(spec=fault_specs)
def test_payload_roundtrip_is_lossless(spec):
    assert faults_from_payload(spec.payload()) == spec


@settings(max_examples=8, deadline=None)
@given(spec=fault_specs, msg_bytes=st.sampled_from([16, 64]))
def test_faulted_simulation_is_deterministic(spec, msg_bytes):
    """Any fault load: two runs agree bit for bit."""
    pmap = ProcessMap(tiny_cluster(num_nodes=2), ppn=4)
    faults = spec if spec else None
    serial = run_alltoall("pairwise", pmap, msg_bytes, keep_job=False,
                          faults=faults).elapsed
    rerun = run_alltoall("pairwise", pmap, msg_bytes, keep_job=False,
                         faults=faults).elapsed
    assert serial == rerun
