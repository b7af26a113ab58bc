"""Unit tests for ASCII rendering."""

import pytest

from repro.analysis.ascii_plots import render_panels, render_series, sparkline
from repro.core.metrics import TimeSeries


class TestSparkline:
    def test_length_bounded(self):
        line = sparkline(list(range(500)), width=40)
        assert len(line) <= 40

    def test_empty(self):
        assert sparkline([]) == "(empty)"

    def test_flat_series(self):
        line = sparkline([2.0, 2.0, 2.0])
        assert len(set(line)) == 1

    def test_monotone_shape(self):
        line = sparkline([0, 1, 2, 3, 4, 5, 6, 7], width=8)
        assert line[0] <= line[-1]


class TestRenderSeries:
    def test_contains_bounds_and_samples(self):
        ts = TimeSeries(times=[0.0, 10.0], values=[1.0, 9.0])
        text = render_series(ts, title="latency")
        assert "latency" in text
        assert "9.000" in text
        assert "2 samples" in text

    def test_empty_series(self):
        assert "(empty series)" in render_series(TimeSeries())


class TestRenderPanels:
    def test_one_line_per_panel(self):
        panels = {
            "storm 2w": TimeSeries(times=[0.0, 1.0], values=[1.0, 2.0]),
            "flink 2w": TimeSeries(times=[0.0, 1.0], values=[0.1, 0.2]),
        }
        text = render_panels(panels)
        assert len(text.splitlines()) == 2
        assert "storm 2w" in text
