"""Unit tests for the driver-side latency collector."""

import pytest

from repro.core.latency import EVENT_TIME, PROCESSING_TIME, LatencyCollector
from repro.core.records import OutputRecord


def out(emit, event, proc, weight=1.0):
    return OutputRecord(
        key=0,
        value=0.0,
        event_time=event,
        processing_time=proc,
        emit_time=emit,
        weight=weight,
    )


class TestCollection:
    def test_collect_counts(self):
        c = LatencyCollector()
        c.collect([out(10.0, 9.0, 9.5), out(11.0, 9.0, 10.0)])
        assert len(c) == 2

    def test_event_summary(self):
        c = LatencyCollector()
        c.collect([out(10.0, 9.0, 9.5)])  # event latency 1.0
        c.collect([out(20.0, 17.0, 19.0)])  # event latency 3.0
        s = c.summary(EVENT_TIME)
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == pytest.approx(1.0)
        assert s.maximum == pytest.approx(3.0)

    def test_processing_summary_differs(self):
        c = LatencyCollector()
        c.collect([out(10.0, 5.0, 9.5)])
        assert c.summary(EVENT_TIME).mean == pytest.approx(5.0)
        assert c.summary(PROCESSING_TIME).mean == pytest.approx(0.5)

    def test_unknown_kind_rejected(self):
        c = LatencyCollector()
        with pytest.raises(ValueError):
            c.summary("wall_clock")

    def test_warmup_exclusion(self):
        c = LatencyCollector()
        c.collect([out(5.0, 0.0, 0.0)])  # during warmup
        c.collect([out(50.0, 49.0, 49.0)])  # after warmup
        s = c.summary(EVENT_TIME, start_time=10.0)
        assert s.count == 1
        assert s.mean == pytest.approx(1.0)

    def test_weighted_samples(self):
        c = LatencyCollector()
        c.collect([out(10.0, 9.0, 9.0, weight=9.0), out(10.0, 0.0, 0.0, weight=1.0)])
        s = c.summary(EVENT_TIME)
        assert s.mean == pytest.approx(0.9 * 1.0 + 0.1 * 10.0)


class TestSeries:
    def test_series_ordered_by_emit_time(self):
        c = LatencyCollector()
        c.collect([out(10.0, 9.0, 9.0)])
        c.collect([out(20.0, 15.0, 15.0)])
        series = c.series(EVENT_TIME)
        assert series.times.tolist() == [10.0, 20.0]
        assert series.values.tolist() == [1.0, 5.0]

    def test_binned_series(self):
        c = LatencyCollector()
        c.collect([out(1.0, 0.0, 0.0), out(2.0, 0.0, 0.0)])
        c.collect([out(11.0, 10.0, 10.0)])
        binned = c.binned_series(EVENT_TIME, bin_s=10.0)
        assert len(binned) == 2

    def test_trend_slope_detects_growth(self):
        c = LatencyCollector()
        # Latency grows 1 second per second of emission time: overload.
        for t in range(0, 100, 5):
            c.collect([out(float(t), 0.0, 0.0)])
        assert c.trend_slope(EVENT_TIME) == pytest.approx(1.0, rel=0.05)

    def test_trend_slope_flat_when_stable(self):
        c = LatencyCollector()
        for t in range(0, 100, 5):
            c.collect([out(float(t), t - 2.0, t - 1.0)])
        assert abs(c.trend_slope(EVENT_TIME)) < 0.01

    def test_binned_series_is_weight_aware(self):
        """Regression: a heavy join cohort must dominate its bin's mean,
        consistent with the weight-aware summary()."""
        c = LatencyCollector()
        # Same bin: latency 1.0 with weight 9, latency 11.0 with weight 1.
        c.collect(
            [out(10.0, 9.0, 9.0, weight=9.0), out(11.0, 0.0, 0.0, weight=1.0)]
        )
        binned = c.binned_series(EVENT_TIME, bin_s=5.0)
        assert len(binned) == 1
        # Weighted mean (9*1 + 1*11)/10 = 2.0; the old unweighted mean
        # was (1 + 11)/2 = 6.0.
        assert binned.values[0] == pytest.approx(2.0)
        assert binned.values[0] == pytest.approx(
            c.summary(EVENT_TIME).mean
        )

    def test_binned_series_max_agg_still_supported(self):
        import numpy as np

        c = LatencyCollector()
        c.collect([out(1.0, 0.0, 0.0), out(2.0, 0.5, 0.5)])
        binned = c.binned_series(EVENT_TIME, bin_s=5.0, agg=np.max)
        assert binned.values[0] == pytest.approx(1.5)

    def test_non_monotonic_emit_times_still_correct(self):
        c = LatencyCollector()
        c.collect([out(20.0, 19.0, 19.0)])
        c.collect([out(10.0, 9.0, 9.0)])  # out-of-order emission
        s = c.summary(EVENT_TIME, start_time=15.0)
        assert s.count == 1
        assert s.mean == pytest.approx(1.0)


class TestHotPath:
    def test_summary_cached_until_new_samples(self):
        c = LatencyCollector()
        c.collect([out(10.0, 9.0, 9.0)])
        first = c.summary(EVENT_TIME)
        assert c.summary(EVENT_TIME) is first  # cache hit
        c.collect([out(20.0, 15.0, 15.0)])
        second = c.summary(EVENT_TIME)
        assert second is not first
        assert second.count == 2

    def test_chunk_rollover_preserves_all_samples(self):
        c = LatencyCollector(chunk_rows=8)
        for t in range(30):
            c.collect([out(float(t), float(t) - 1.0, float(t) - 0.5)])
        assert len(c) == 30
        s = c.summary(EVENT_TIME)
        assert s.count == 30
        assert s.mean == pytest.approx(1.0)
        series = c.series(EVENT_TIME)
        assert series.times.tolist() == [float(t) for t in range(30)]

    def test_perf_counters_exposed(self):
        c = LatencyCollector()
        c.collect([out(10.0, 9.0, 9.0), out(11.0, 9.0, 10.0)])
        c.summary(EVENT_TIME)
        counters = c.perf_counters()
        assert set(counters) == {
            "collector.samples",
            "collector.collect_calls",
            "collector.memory_bytes",
            "collector.consolidations",
        }
        assert counters["collector.samples"] == 2.0
        assert counters["collector.collect_calls"] == 1.0
        assert counters["collector.memory_bytes"] > 0.0
        assert counters["collector.consolidations"] >= 1.0

    def test_invalid_chunk_rows_rejected(self):
        with pytest.raises(ValueError):
            LatencyCollector(chunk_rows=0)
