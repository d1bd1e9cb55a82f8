"""Benchmark harness: regenerate every table and figure of the paper's evaluation.

The harness has four layers:

* :mod:`repro.bench.datasets` — plain dataclasses for series and figures;
* :mod:`repro.bench.harness` — :class:`BenchmarkHarness`, which times one
  (algorithm, message size, node count) point either through the
  discrete-event simulator (exact, reduced scale) or through the analytic
  model (instant, full paper scale);
* :mod:`repro.bench.figures` — one function per table/figure of the paper
  (:func:`figure07` ... :func:`figure18`, :func:`table1`,
  :func:`headline_speedup`), each returning a
  :class:`~repro.bench.datasets.FigureResult` whose rows mirror the series
  the paper plots;
* :mod:`repro.bench.reporting` — ASCII/CSV rendering of those results.

``repro-bench figures`` prints the regenerated figures, and
``tests/integration/test_paper_trends.py`` checks the paper's claims on
them.  Host-time performance of the simulator itself is measured by
``benchmarks/perf/`` (declared in ``BENCHMARK.json``).
"""

from repro.bench.datasets import DataSeries, FigureResult, SeriesPoint
from repro.bench.harness import BenchmarkHarness, PAPER_MESSAGE_SIZES, PAPER_NODE_COUNTS
from repro.bench.figures import (
    FIGURES,
    figure07,
    figure08,
    figure09,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure16,
    figure17,
    figure18,
    headline_speedup,
    table1,
)
from repro.bench.reporting import format_figure, format_table1, to_csv

__all__ = [
    "DataSeries",
    "FigureResult",
    "SeriesPoint",
    "BenchmarkHarness",
    "PAPER_MESSAGE_SIZES",
    "PAPER_NODE_COUNTS",
    "FIGURES",
    "figure07",
    "figure08",
    "figure09",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "figure16",
    "figure17",
    "figure18",
    "headline_speedup",
    "table1",
    "format_figure",
    "format_table1",
    "to_csv",
]
