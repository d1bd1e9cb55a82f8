"""Data containers produced by the benchmark harness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError

__all__ = ["TimedPoint", "SeriesPoint", "DataSeries", "FigureResult"]


@dataclass
class TimedPoint:
    """Result of timing one benchmark configuration."""

    seconds: float
    phases: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SeriesPoint:
    """One measured or modelled data point of a series."""

    #: Independent variable (message size in bytes, or node count).
    x: float
    #: Execution time in seconds.
    seconds: float
    #: Optional extra information (per-phase breakdown, configuration, ...).
    details: dict = field(default_factory=dict)


@dataclass
class DataSeries:
    """One line of a figure: a labelled sequence of points."""

    label: str
    points: list[SeriesPoint] = field(default_factory=list)

    def add(self, x: float, seconds: float, **details) -> None:
        self.points.append(SeriesPoint(x=x, seconds=seconds, details=dict(details)))

    def xs(self) -> list[float]:
        return [p.x for p in self.points]

    def ys(self) -> list[float]:
        return [p.seconds for p in self.points]

    def at(self, x: float) -> SeriesPoint:
        for point in self.points:
            if point.x == x:
                return point
        raise ConfigurationError(f"series {self.label!r} has no point at x={x}")

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class FigureResult:
    """A regenerated figure: several series over a common x axis."""

    figure_id: str
    title: str
    xlabel: str
    series: list[DataSeries] = field(default_factory=list)
    #: Description of the machine / engine the data was produced on.
    configuration: str = ""
    notes: str = ""

    def add_series(self, series: DataSeries) -> None:
        self.series.append(series)

    def labels(self) -> list[str]:
        return [s.label for s in self.series]

    def get(self, label: str) -> DataSeries:
        for series in self.series:
            if series.label == label:
                return series
        raise ConfigurationError(
            f"figure {self.figure_id} has no series {label!r}; available: {self.labels()}"
        )

    def xs(self) -> list[float]:
        """Union of x values across series, sorted."""
        values: set[float] = set()
        for series in self.series:
            values.update(series.xs())
        return sorted(values)

    def best_at(self, x: float) -> tuple[str, float]:
        """Label and time of the fastest series at ``x`` (ignoring series without that point)."""
        best: tuple[str, float] | None = None
        for series in self.series:
            try:
                point = series.at(x)
            except ConfigurationError:
                continue
            if best is None or point.seconds < best[1]:
                best = (series.label, point.seconds)
        if best is None:
            raise ConfigurationError(f"figure {self.figure_id} has no data at x={x}")
        return best

    def speedup_over(self, baseline_label: str, x: float) -> float:
        """Speedup of the fastest *other* series over the named baseline at ``x``.

        Below 1.0 when the baseline is the fastest series at ``x``.
        """
        baseline = self.get(baseline_label).at(x).seconds
        others = replace(self, figure_id=f"{self.figure_id} without {baseline_label!r}",
                         series=[s for s in self.series if s.label != baseline_label])
        _, best = others.best_at(x)
        return baseline / best if best > 0 else float("inf")
