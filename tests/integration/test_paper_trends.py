"""Qualitative reproduction checks of the paper's findings.

These tests assert the *shape* of the paper's results — which algorithm wins
in which regime — rather than absolute times.  The full-scale checks use the
analytic model on the Dane/Amber/Tuolomne presets (32 nodes, all cores per
node), including the one-parameter ablation sweeps on Dane; the
reduced-scale checks rerun key comparisons through the discrete-event
simulator to confirm the trends are not an artefact of the closed forms.

Flake-risk policy: every input is deterministic — fixed system presets,
fixed message sizes and node counts, and a deterministic model/simulator
(any randomness in the stack is behind fixed seeds).  The only residual
nondeterminism is floating-point jitter when a refactor reorders
mathematically-equivalent arithmetic (e.g. the summation order inside a
cost model), which moves results by ULPs, not percents.  Comparisons
therefore go through the tolerance helpers below instead of raw
``<``/``==`` on floats; each tolerance documents what it absorbs.
"""

import pytest

from repro.bench.figures import figure07, figure08, figure09, figure10, figure11, figure12, figure13, figure14, figure15, figure16, figure17, figure18, headline_speedup
from repro.bench.harness import PAPER_MESSAGE_SIZES, PAPER_NODE_COUNTS, BenchmarkHarness
from repro.core import run_alltoall
from repro.core.instrumentation import PHASE_INTER, PHASE_INTRA
from repro.machine import ProcessMap
from repro.machine.systems import dane


SIZES = (4, 64, 1024, 4096)

#: Relative slack for strict-trend comparisons (a beats b).  The winning
#: margins in the paper's regimes are tens of percent; 1e-9 only absorbs
#: reordered-arithmetic jitter and can never flip a real trend.
REL_EPS = 1e-9

#: Relative slack for threshold claims (speedup >= 3x).  The modelled
#: headline speedup clears 3x with margin; the slack again only covers
#: float jitter, not modelling drift.
THRESHOLD_EPS = 1e-9


def assert_faster(fast: float, slow: float, label: str = "") -> None:
    """``fast`` beats ``slow`` up to float jitter (strict in exact arithmetic)."""
    assert fast < slow * (1.0 + REL_EPS), (
        f"{label}: expected {fast:.6e} s to beat {slow:.6e} s"
    )


def assert_nondecreasing(values, label: str = "") -> None:
    """Each step may dip below its predecessor only by float jitter."""
    for i in range(len(values) - 1):
        assert values[i + 1] >= values[i] * (1.0 - REL_EPS), (
            f"{label}: value {i + 1} ({values[i + 1]:.6e}) dropped below "
            f"value {i} ({values[i]:.6e})"
        )


class TestDaneFullScaleTrends:
    """Figures 7-12 on the modelled 32-node, 112-rank Dane machine."""

    def test_fig07_multileader_beats_hierarchical_at_large_sizes(self):
        fig = figure07(msg_sizes=SIZES)
        hierarchical = fig.get("Hierarchical")
        for label in fig.labels():
            if "Processes Per Leader" in label:
                assert_faster(fig.get(label).at(4096).seconds,
                              hierarchical.at(4096).seconds, label)

    def test_fig07_more_leaders_help_large_messages(self):
        """'For large data sizes, performance increases with the number of leaders per node.'"""
        fig = figure07(msg_sizes=SIZES)
        assert_faster(
            fig.get("4 Processes Per Leader").at(4096).seconds,
            fig.get("16 Processes Per Leader").at(4096).seconds,
            "fig07 large-message leader trend",
        )

    def test_fig07_fewer_leaders_help_small_messages(self):
        """'For smaller data sizes ... fewer leaders are beneficial.'"""
        fig = figure07(msg_sizes=SIZES)
        assert_faster(
            fig.get("16 Processes Per Leader").at(4).seconds,
            fig.get("4 Processes Per Leader").at(4).seconds,
            "fig07 small-message leader trend",
        )

    def test_fig08_node_aware_best_at_small_and_mid_sizes(self):
        fig = figure08(msg_sizes=SIZES)
        node_aware = fig.get("Node-Aware")
        for size in (4, 64):
            for label in fig.labels():
                if "Processes Per Group" in label:
                    assert_faster(node_aware.at(size).seconds,
                                  fig.get(label).at(size).seconds,
                                  f"fig08 @ {size} B vs {label}")

    def test_fig08_locality_aware_wins_at_largest_size(self):
        """The paper's first novel result: locality-aware aggregation wins at 4096 B."""
        fig = figure08(msg_sizes=SIZES)
        node_aware = fig.get("Node-Aware").at(4096).seconds
        best_locality = min(
            fig.get(label).at(4096).seconds
            for label in fig.labels()
            if "Processes Per Group" in label
        )
        assert_faster(best_locality, node_aware, "fig08 locality-aware @ 4096 B")

    def test_fig09_mlna_best_at_small_sizes_with_intermediate_leader_count(self):
        """Algorithm 5 beats both of its limits (hierarchical, node-aware) at 4 bytes."""
        fig = figure09(msg_sizes=SIZES)
        best_mlna = min(
            fig.get(label).at(4).seconds for label in fig.labels() if "Processes Per Leader" in label
        )
        assert_faster(best_mlna, fig.get("Hierarchical").at(4).seconds, "fig09 vs hierarchical")
        assert_faster(best_mlna, fig.get("Node-Aware").at(4).seconds, "fig09 vs node-aware")
        assert_faster(best_mlna, fig.get("System MPI").at(4).seconds, "fig09 vs system MPI")

    def test_fig10_multileader_node_aware_best_at_small_sizes(self):
        fig = figure10(msg_sizes=SIZES)
        assert fig.best_at(4)[0] == "Multileader + Locality"

    def test_fig10_aggregating_algorithms_best_at_large_sizes(self):
        fig = figure10(msg_sizes=SIZES)
        assert fig.best_at(1024)[0] in ("Node-Aware", "Locality-Aware", "Multileader")
        assert fig.best_at(4096)[0] in ("Node-Aware", "Locality-Aware")

    def test_fig10_novel_algorithms_beat_system_mpi_at_every_size(self):
        fig = figure10()
        for size in PAPER_MESSAGE_SIZES:
            # The observed speedups are 1.45x-5.3x; the epsilon only guards the
            # ratio computation's float jitter, never a real 1.0x tie.
            assert fig.speedup_over("System MPI", size) > 1.0 * (1.0 - REL_EPS), size

    def test_headline_up_to_3x_speedup(self):
        """Abstract: 'achieving up to 3x speedup over system MPI at 32 nodes'."""
        summary = headline_speedup(msg_sizes=SIZES)
        assert summary["best_speedup"] >= 3.0 * (1.0 - THRESHOLD_EPS)

    def test_headline_advantage_at_every_paper_size(self):
        """The best novel algorithm beats system MPI at all six sizes (1.45x-5.2x), not only at its best."""
        summary = headline_speedup()
        assert sorted(summary["per_size"]) == list(PAPER_MESSAGE_SIZES)
        for size, value in summary["per_size"].items():
            assert value > 1.0 * (1.0 - REL_EPS), f"headline @ {size} B: {value:.3f}x"

    def test_fig11_fig12_times_grow_with_node_count(self):
        for fig in (figure11(), figure12()):
            for label in fig.labels():
                assert_nondecreasing(fig.get(label).ys(), f"{fig.figure_id} {label}")

    def test_fig11_multileader_node_aware_beats_system_mpi_at_every_node_count(self):
        """Figure 11 (4 B): Algorithm 5 stays ahead of system MPI from 2 to 32 nodes (2.2x-3.7x)."""
        fig = figure11()
        for nodes in PAPER_NODE_COUNTS:
            assert_faster(fig.get("Multileader + Locality").at(nodes).seconds,
                          fig.get("System MPI").at(nodes).seconds, f"fig11 @ {nodes} nodes")

    def test_fig12_node_aware_family_beats_system_mpi_when_scaled(self):
        fig = figure12(node_counts=(2, 8, 32))
        system = fig.get("System MPI").at(32).seconds
        assert_faster(fig.get("Node-Aware").at(32).seconds, system, "fig12 node-aware")
        assert_faster(fig.get("Locality-Aware").at(32).seconds, system, "fig12 locality-aware")


class TestBreakdownTrends:
    """Figures 13-16: intra- vs inter-node decomposition."""

    def test_fig13_gather_outweighs_leader_exchange_at_large_sizes(self):
        """The intra-node gather, not the leaders' exchange, limits hierarchical at 4096 B (2.25x)."""
        fig = figure13(msg_sizes=SIZES)
        assert_faster(fig.get("Alltoall (Pairwise)").at(4096).seconds,
                      fig.get("MPI Gather").at(4096).seconds, "fig13 @ 4096 B")

    def test_fig13_nonblocking_leader_exchange_helps_small_messages(self):
        fig = figure13(msg_sizes=SIZES)
        assert_faster(fig.get("Alltoall (Nonblocking)").at(4).seconds,
                      fig.get("Alltoall (Pairwise)").at(4).seconds, "fig13 @ 4 B")

    def test_fig14_inter_node_dominates_node_aware_at_all_sizes(self):
        fig = figure14()
        for size in PAPER_MESSAGE_SIZES:
            inter = fig.get("Inter-Node (Pairwise)").at(size).seconds
            intra = fig.get("Intra-Node (Pairwise)").at(size).seconds
            assert_faster(intra, inter, f"fig14 breakdown @ {size} B")

    def test_fig15_inter_node_dominates_at_every_node_count(self):
        fig = figure15()
        for nodes in PAPER_NODE_COUNTS:
            assert_faster(
                fig.get("Intra-Node Alltoall").at(nodes).seconds,
                fig.get("Inter-Node Alltoall").at(nodes).seconds,
                f"fig15 @ {nodes} nodes",
            )

    def test_fig14_intra_node_scales_with_inter_node(self):
        """Section 4.1: 'intra-node communication scales with internode communication'."""
        fig = figure14(msg_sizes=SIZES)
        intra = fig.get("Intra-Node (Pairwise)")
        assert_faster(intra.at(4).seconds, intra.at(4096).seconds, "fig14 intra scaling")

    def test_fig16_inter_node_dominates_every_group_size(self):
        fig = figure16()
        inter, intra = fig.get("Inter-Node Alltoall"), fig.get("Intra-Node Alltoall")
        for group in inter.xs():
            assert_faster(intra.at(group).seconds, inter.at(group).seconds,
                          f"fig16 @ {group} processes per group")

    def test_fig16_smaller_groups_cut_intra_node_cost(self):
        """Locality-aware aggregation's mechanism: a 4-rank group redistributes far less than the whole node."""
        intra = figure16().get("Intra-Node Alltoall")
        assert_faster(intra.at(min(intra.xs())).seconds, intra.at(max(intra.xs())).seconds,
                      "fig16 smallest group vs whole node")


class TestAblations:
    """One-parameter sweeps on the modelled 32-node, 112-rank Dane machine."""

    @pytest.fixture(scope="class")
    def harness(self):
        return BenchmarkHarness(dane(32), 112)

    def test_sec43_group_size_optimum_is_interior(self, harness):
        """Section 4.3: both extremes (1 rank per group, the whole node) lose to a group of 4-28."""
        times = {
            group: harness.time_point("locality-aware", 4096, 32, procs_per_group=group).seconds
            for group in (1, 4, 8, 16, 28, 56, 112)
        }
        assert all(seconds > 0 for seconds in times.values())
        best_grouped = min(times[group] for group in (4, 8, 16, 28))
        assert_faster(best_grouped, times[1], "best of groups 4-28 vs group 1")
        assert_faster(best_grouped, times[112], "best of groups 4-28 vs group 112")

    def test_bruck_inner_exchange_crossover(self, harness):
        """Bruck inside node-aware: no slower at 4 B, the slowest inner exchange at 4096 B."""
        def inner(kind, msg_bytes):
            return harness.time_point("node-aware", msg_bytes, 32, inner=kind).seconds

        assert_faster(inner("bruck", 4), inner("pairwise", 4), "bruck vs pairwise @ 4 B")
        for kind in ("pairwise", "nonblocking"):
            assert_faster(inner(kind, 4096), inner("bruck", 4096), f"{kind} vs bruck @ 4096 B")

    def test_injection_bandwidth_sensitivity(self):
        """Large node-aware exchanges are injection-bound, as the max-rate model predicts."""
        cluster = dane(32)
        bandwidth = cluster.params.injection_bandwidth
        factors = (4.0, 2.0, 1.0, 0.5)  # falling injection bandwidth
        times = {
            factor: BenchmarkHarness(
                cluster.with_params(cluster.params.with_overrides(
                    injection_bandwidth=bandwidth * factor)), 112,
            ).time_point("node-aware", 4096, 32).seconds
            for factor in factors
        }
        assert_nondecreasing([times[factor] for factor in factors],
                             "node-aware @ 4096 B vs falling injection bandwidth")
        assert_faster(1.5 * times[1.0], times[0.5], "0.5x bandwidth vs 1.5 x the 1x time")

    def test_matching_cost_sensitivity(self):
        """Thousands of posted receives per rank make the flat non-blocking exchange matching-bound."""
        cluster = dane(32)
        cost = cluster.params.match_overhead_per_entry
        factors = (0.0, 1.0, 4.0, 8.0, 16.0)
        times = {
            factor: BenchmarkHarness(
                cluster.with_params(cluster.params.with_overrides(
                    match_overhead_per_entry=cost * factor)), 112,
            ).time_point("nonblocking", 1024, 32).seconds
            for factor in factors
        }
        assert_nondecreasing([times[factor] for factor in factors],
                             "nonblocking @ 1024 B vs matching cost")
        assert_faster(2.0 * times[0.0], times[16.0], "16x matching cost vs 2 x the zero-cost time")


class TestOtherSystems:
    def test_fig17_amber_matches_dane_trends(self):
        fig = figure17(msg_sizes=SIZES)
        assert fig.best_at(4)[0] == "Multileader + Locality"
        assert fig.best_at(4096)[0] in ("Node-Aware", "Locality-Aware")
        assert_faster(fig.get("Node-Aware").at(1024).seconds,
                      fig.get("System MPI").at(1024).seconds, "fig17 @ 1024 B")

    def test_fig18_tuolomne_system_mpi_is_competitive(self):
        """On Tuolomne the Cray MPICH baseline is much harder to beat (Figure 18)."""
        fig = figure18(msg_sizes=SIZES)
        system = fig.get("System MPI")
        node_aware = fig.get("Node-Aware")
        # The factor-2 headroom *is* the tolerance here: the claim is "within
        # ~2x of the best novel algorithm, unlike the ~5x gaps on Dane", so
        # the bound itself carries the slack and needs no extra epsilon.
        best = fig.best_at(4096)[1]
        assert system.at(4096).seconds < 2.0 * best
        # Node-aware remains the best of the novel algorithms at small sizes.
        assert_faster(node_aware.at(4).seconds,
                      fig.get("Locality-Aware").at(4).seconds, "fig18 @ 4 B")


class TestReducedScaleSimulation:
    """The same qualitative findings, observed in the event-driven simulation.

    The simulator cannot run 3 584 ranks in reasonable time, so these checks
    use the Dane cost parameters at 8 nodes x 16 ranks — small enough to
    simulate, large enough that the many-core effects (per-node NIC
    serialization, message-count reduction from aggregation) are visible.
    The simulator is deterministic (no seeds involved), so the REL_EPS
    helpers cover these comparisons too.
    """

    @pytest.fixture(scope="class")
    def pmap(self):
        from repro.machine.systems import dane

        return ProcessMap(dane(8), ppn=16, num_nodes=8)

    def test_node_aware_beats_flat_pairwise_for_small_messages(self, pmap):
        """Aggregation removes most per-message overheads of the flat exchange."""
        flat = run_alltoall("pairwise", pmap, msg_bytes=8, keep_job=False, validate=False)
        node_aware = run_alltoall("node-aware", pmap, msg_bytes=8, keep_job=False, validate=False)
        assert_faster(node_aware.elapsed, flat.elapsed, "node-aware vs pairwise @ 8 B")

    def test_bruck_loses_to_pairwise_for_large_messages(self, pmap):
        """Bruck's extra forwarded volume makes it uncompetitive at 2 KiB (Section 2)."""
        bruck = run_alltoall("bruck", pmap, msg_bytes=2048, keep_job=False, validate=False)
        pairwise = run_alltoall("pairwise", pmap, msg_bytes=2048, keep_job=False, validate=False)
        assert_faster(pairwise.elapsed, bruck.elapsed, "pairwise vs bruck @ 2 KiB")

    def test_mlna_beats_hierarchical_for_small_messages(self, pmap):
        hierarchical = run_alltoall("hierarchical", pmap, msg_bytes=8, keep_job=False, validate=False)
        mlna = run_alltoall("multileader-node-aware", pmap, msg_bytes=8, procs_per_leader=4,
                            keep_job=False, validate=False)
        assert_faster(mlna.elapsed, hierarchical.elapsed, "mlna vs hierarchical @ 8 B")

    def test_multileader_beats_single_leader_for_large_messages(self, pmap):
        """Figure 7's large-message trend: more leaders per node help."""
        hierarchical = run_alltoall("hierarchical", pmap, msg_bytes=2048, keep_job=False,
                                    validate=False)
        multileader = run_alltoall("multileader", pmap, msg_bytes=2048, procs_per_leader=4,
                                   keep_job=False, validate=False)
        node_aware = run_alltoall("node-aware", pmap, msg_bytes=2048, keep_job=False, validate=False)
        assert_faster(multileader.elapsed, hierarchical.elapsed, "multileader vs hierarchical")
        assert_faster(node_aware.elapsed, hierarchical.elapsed, "node-aware vs hierarchical")

    def test_node_aware_inter_node_phase_dominates(self, pmap):
        outcome = run_alltoall("node-aware", pmap, msg_bytes=1024, keep_job=False, validate=False)
        assert_faster(outcome.phase_times[PHASE_INTRA], outcome.phase_times[PHASE_INTER],
                      "node-aware phase breakdown")
