"""Tests for the benchmark data containers and report rendering."""

import pytest

from repro.bench.datasets import DataSeries, FigureResult
from repro.bench.reporting import format_figure, format_speedup_summary, format_table1, to_csv
from repro.bench.figures import table1
from repro.errors import ConfigurationError


def _sample_figure() -> FigureResult:
    fig = FigureResult("figX", "Sample", "message size (bytes)", configuration="test rig")
    fast = DataSeries("fast")
    slow = DataSeries("slow")
    for x, f, s in [(4, 1.0e-5, 3.0e-5), (64, 2.0e-5, 8.0e-5)]:
        fast.add(x, f)
        slow.add(x, s)
    fig.add_series(fast)
    fig.add_series(slow)
    return fig


class TestDataSeries:
    def test_add_and_access(self):
        series = DataSeries("s")
        series.add(4, 1.5e-6, phases={"inter": 1e-6})
        assert series.xs() == [4]
        assert series.ys() == [1.5e-6]
        assert series.at(4).details["phases"]["inter"] == 1e-6
        assert len(series) == 1

    def test_missing_point_rejected(self):
        with pytest.raises(ConfigurationError):
            DataSeries("s").at(4)


class TestFigureResult:
    def test_labels_and_get(self):
        fig = _sample_figure()
        assert fig.labels() == ["fast", "slow"]
        assert fig.get("slow").at(4).seconds == 3.0e-5
        with pytest.raises(ConfigurationError):
            fig.get("missing")

    def test_xs_union(self):
        fig = _sample_figure()
        extra = DataSeries("extra")
        extra.add(256, 1.0e-4)
        fig.add_series(extra)
        assert fig.xs() == [4, 64, 256]

    def test_best_at(self):
        fig = _sample_figure()
        assert fig.best_at(4) == ("fast", 1.0e-5)

    def test_best_at_missing_x_rejected(self):
        with pytest.raises(ConfigurationError):
            _sample_figure().best_at(9999)

    def test_speedup_over(self):
        fig = _sample_figure()
        assert fig.speedup_over("slow", 4) == pytest.approx(3.0)
        # The baseline is never its own competitor: a fastest baseline reads below 1.
        assert fig.speedup_over("fast", 4) == pytest.approx(1 / 3)

    def test_speedup_over_needs_another_series_at_x(self):
        fig = _sample_figure()
        extra = DataSeries("extra")
        extra.add(256, 1.0e-4)
        fig.add_series(extra)
        with pytest.raises(ConfigurationError, match="without 'extra'"):
            fig.speedup_over("extra", 256)


class TestReporting:
    def test_format_figure_contains_all_series_and_sizes(self):
        text = format_figure(_sample_figure())
        assert "fast" in text and "slow" in text
        assert "figX" in text and "test rig" in text
        assert "64" in text

    def test_format_figure_handles_missing_points(self):
        fig = _sample_figure()
        sparse = DataSeries("sparse")
        sparse.add(4, 5.0e-5)
        fig.add_series(sparse)
        text = format_figure(fig)
        assert "-" in text  # the missing 64-byte point renders as a dash

    def test_format_figure_propagates_real_defects(self):
        """Only missing points render as '-'; other errors are real defects."""

        class BrokenSeries(DataSeries):
            def at(self, x):
                raise RuntimeError("broken cost model")

        fig = _sample_figure()
        broken = BrokenSeries("broken")
        broken.add(4, 1.0)
        fig.add_series(broken)
        with pytest.raises(RuntimeError, match="broken cost model"):
            format_figure(fig)
        with pytest.raises(RuntimeError, match="broken cost model"):
            to_csv(fig)

    def test_to_csv_missing_points_render_empty(self):
        fig = _sample_figure()
        sparse = DataSeries("sparse")
        sparse.add(4, 5.0e-5)
        fig.add_series(sparse)
        lines = to_csv(fig).strip().splitlines()
        assert lines[2].endswith(",")  # the missing 64-byte point is empty

    def test_to_csv_roundtrip(self):
        csv = to_csv(_sample_figure())
        lines = csv.strip().splitlines()
        assert lines[0] == "message size (bytes),fast,slow"
        assert len(lines) == 3
        assert lines[1].startswith("4,")

    def test_format_table1_lists_all_systems(self):
        text = format_table1(table1())
        for name in ("dane", "amber", "tuolomne"):
            assert name in text
        assert "112" in text and "96" in text

    def test_format_speedup_summary(self):
        summary = {
            "per_size": {4: 3.0, 4096: 1.2},
            "best_size": 4,
            "best_speedup": 3.0,
            "configuration": "rig",
        }
        text = format_speedup_summary(summary)
        assert "3.00x" in text and "4096" in text and "rig" in text
