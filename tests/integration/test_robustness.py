"""Integration pin of the robustness figure: the fault-induced winner flip.

The figure's claim is operational, not cosmetic: an algorithm selection
tuned on the healthy machine is *wrong* on the degraded one.  This test
pins the flip itself — healthy, the flat non-blocking exchange wins the
skewed MoE shuffle on the tapered dragonfly; with one global link degraded
and flapping, node-aware aggregation wins — and the determinism that makes
the figure reproducible.
"""

from repro.bench.figures import ROBUSTNESS_FAULTS, figure_robustness
from repro.faults import parse_faults


def _winners(fig):
    """(healthy winner label, faulted winner label) of the figure."""
    by_state = {0: {}, 1: {}}
    for series in fig.series:
        for point in series.points:
            by_state[int(point.x)][series.label] = point.seconds
    return (min(by_state[0], key=by_state[0].get),
            min(by_state[1], key=by_state[1].get))


class TestWinnerFlip:
    def test_one_degraded_global_link_flips_the_winner(self):
        healthy_winner, faulted_winner = _winners(figure_robustness())
        assert healthy_winner == "Nonblocking"
        assert faulted_winner == "Node-Aware"

    def test_figure_is_deterministic(self):
        first = figure_robustness()
        second = figure_robustness()
        for a, b in zip(first.series, second.series):
            assert a.label == b.label
            assert [p.seconds for p in a.points] == [p.seconds for p in b.points]

    def test_default_fault_spec_parses_and_names_one_link(self):
        spec = parse_faults(ROBUSTNESS_FAULTS)
        assert spec
        assert {f.link for f in spec.link_faults()} == {"df-g0-1"}
