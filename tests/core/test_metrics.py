"""Unit and property tests for weighted statistics and time series."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import (
    StatSummary,
    TimeSeries,
    weighted_quantiles,
    weighted_summary,
)


def weighted_quantile(values, weights, q):
    """One quantile through the fused path, as a float."""
    return float(weighted_quantiles(values, weights, (q,))[0])


class TestWeightedSummary:
    def test_unit_weights_match_numpy(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        s = weighted_summary(values)
        assert s.mean == pytest.approx(np.mean(values))
        assert s.minimum == 1.0
        assert s.maximum == 5.0
        assert s.count == 5
        assert s.weight == 5.0

    def test_weights_scale_contribution(self):
        # One sample of weight 3 behaves like three unit samples.
        a = weighted_summary([1.0, 10.0], weights=[3.0, 1.0])
        b = weighted_summary([1.0, 1.0, 1.0, 10.0])
        assert a.mean == pytest.approx(b.mean)
        assert a.p90 == b.p90

    def test_empty_summary(self):
        s = weighted_summary([])
        assert s.count == 0
        assert np.isnan(s.mean)
        assert "no samples" in s.row()

    def test_zero_weights_give_empty(self):
        s = weighted_summary([1.0, 2.0], weights=[0.0, 0.0])
        assert s.count == 0

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            weighted_summary([1.0, 2.0], weights=[1.0])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            weighted_summary([1.0], weights=[-1.0])

    def test_row_format(self):
        s = weighted_summary([1.0, 2.0, 3.0])
        row = s.row()
        assert "2.00" in row  # mean
        assert "(" in row and ")" in row

    def test_std(self):
        s = weighted_summary([2.0, 4.0])
        assert s.std == pytest.approx(1.0)


class TestWeightedQuantile:
    def test_median_of_units(self):
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        w = np.ones(5)
        assert weighted_quantile(v, w, 0.5) == 3.0

    def test_heavy_weight_dominates(self):
        v = np.array([1.0, 100.0])
        w = np.array([99.0, 1.0])
        assert weighted_quantile(v, w, 0.9) == 1.0
        assert weighted_quantile(v, w, 0.995) == 100.0

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            weighted_quantile(np.array([1.0]), np.array([1.0]), 1.5)

    def test_empty_is_nan(self):
        assert np.isnan(weighted_quantile(np.array([]), np.array([]), 0.5))

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100),
        q=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_quantile_is_a_sample_value(self, values, q):
        v = np.asarray(values)
        w = np.ones_like(v)
        result = weighted_quantile(v, w, q)
        assert result in v

    @given(values=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_quantiles_monotone(self, values):
        v = np.asarray(values)
        w = np.ones_like(v)
        q50 = weighted_quantile(v, w, 0.5)
        q90 = weighted_quantile(v, w, 0.9)
        q99 = weighted_quantile(v, w, 0.99)
        assert q50 <= q90 <= q99

    @given(
        values=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
        weights=st.lists(st.floats(0.1, 50.0), min_size=60, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_fused_quantiles_match_single_calls(self, values, weights):
        """The single-sort batch path must agree exactly with computing
        each quantile independently."""
        v = np.asarray(values)
        w = np.asarray(weights[: v.size])
        qs = (0.1, 0.5, 0.90, 0.95, 0.99)
        batch = weighted_quantiles(v, w, qs)
        singles = [weighted_quantile(v, w, q) for q in qs]
        assert batch.tolist() == singles

    def test_fused_quantiles_empty_is_nan(self):
        out = weighted_quantiles(np.array([]), np.array([]), (0.5, 0.9))
        assert np.isnan(out).all()

    def test_fused_quantiles_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            weighted_quantiles(np.array([1.0]), np.array([1.0]), (0.5, 1.5))


class TestTimeSeries:
    def test_append_and_iter(self):
        ts = TimeSeries()
        ts.append(1.0, 10.0)
        ts.append(2.0, 20.0)
        assert list(ts) == [(1.0, 10.0), (2.0, 20.0)]
        assert len(ts) == 2

    def test_non_monotone_append_rejected(self):
        ts = TimeSeries()
        ts.append(2.0, 1.0)
        with pytest.raises(ValueError):
            ts.append(1.0, 1.0)

    def test_window(self):
        ts = TimeSeries(times=[0.0, 1.0, 2.0, 3.0], values=[0, 1, 2, 3])
        w = ts.window(1.0, 3.0)
        assert w.times.tolist() == [1.0, 2.0]

    def test_slope_on_linear_data(self):
        ts = TimeSeries(times=[0.0, 1.0, 2.0, 3.0], values=[0.0, 2.0, 4.0, 6.0])
        assert ts.slope_per_s() == pytest.approx(2.0)

    def test_slope_on_flat_data(self):
        ts = TimeSeries(times=[0.0, 1.0, 2.0], values=[5.0, 5.0, 5.0])
        assert ts.slope_per_s() == pytest.approx(0.0)

    def test_slope_needs_two_points(self):
        assert TimeSeries(times=[1.0], values=[1.0]).slope_per_s() == 0.0

    def test_binned_mean(self):
        ts = TimeSeries(
            times=[0.0, 1.0, 5.0, 6.0], values=[1.0, 3.0, 10.0, 20.0]
        )
        binned = ts.binned(5.0)
        assert binned.times.tolist() == [0.0, 5.0]
        assert binned.values.tolist() == [2.0, 15.0]

    def test_binned_max(self):
        ts = TimeSeries(times=[0.0, 1.0], values=[1.0, 3.0])
        assert ts.binned(5.0, agg=np.max).values == [3.0]

    def test_binned_invalid_bin_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries().binned(0.0)

    def test_mean_max(self):
        ts = TimeSeries(times=[0.0, 1.0], values=[2.0, 6.0])
        assert ts.mean() == 4.0
        assert ts.max() == 6.0
        assert np.isnan(TimeSeries().mean())

    @given(
        slope=st.floats(-100, 100),
        intercept=st.floats(-100, 100),
        n=st.integers(3, 50),
    )
    @settings(max_examples=100, deadline=None)
    def test_slope_recovers_linear_trend(self, slope, intercept, n):
        ts = TimeSeries()
        for i in range(n):
            ts.append(float(i), slope * i + intercept)
        assert ts.slope_per_s() == pytest.approx(slope, abs=1e-6, rel=1e-6)


class TestTimeSeriesNumpyBackend:
    def test_from_arrays_round_trip(self):
        t = np.array([1.0, 2.0, 3.0])
        v = np.array([4.0, 5.0, 6.0])
        ts = TimeSeries.from_arrays(t, v)
        assert ts.times.tolist() == [1.0, 2.0, 3.0]
        assert ts.values.tolist() == [4.0, 5.0, 6.0]
        # Defensive copy: mutating the source must not alias the series.
        t[0] = 99.0
        assert ts.times[0] == 1.0

    def test_from_arrays_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries.from_arrays(np.array([1.0]), np.array([1.0, 2.0]))

    def test_constructor_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(times=[1.0, 2.0], values=[1.0])

    def test_times_are_read_only_views(self):
        ts = TimeSeries(times=[1.0], values=[2.0])
        with pytest.raises(ValueError):
            ts.times[0] = 5.0

    def test_append_after_from_arrays_view(self):
        base = np.array([1.0, 2.0])
        ts = TimeSeries.from_arrays(base, base, copy=False)
        ts.append(3.0, 3.0)  # triggers copy-on-append
        assert ts.times.tolist() == [1.0, 2.0, 3.0]
        assert base.tolist() == [1.0, 2.0]

    def test_window_on_unsorted_series_preserves_order(self):
        ts = TimeSeries(times=[5.0, 1.0, 3.0], values=[50.0, 10.0, 30.0])
        w = ts.window(1.0, 4.0)
        assert w.times.tolist() == [1.0, 3.0]
        assert w.values.tolist() == [10.0, 30.0]

    def test_window_sorted_uses_half_open_interval(self):
        ts = TimeSeries(times=[0.0, 1.0, 2.0, 3.0], values=[0.0, 1.0, 2.0, 3.0])
        assert ts.window(1.0, 3.0).times.tolist() == [1.0, 2.0]
        assert ts.window(1.0).times.tolist() == [1.0, 2.0, 3.0]

    def test_binned_weighted_mean(self):
        ts = TimeSeries(times=[0.0, 1.0, 6.0], values=[1.0, 11.0, 4.0])
        binned = ts.binned(5.0, weights=np.array([9.0, 1.0, 2.0]))
        assert binned.times.tolist() == [0.0, 5.0]
        assert binned.values.tolist() == [pytest.approx(2.0), 4.0]

    def test_binned_weighted_sum(self):
        ts = TimeSeries(times=[0.0, 1.0], values=[2.0, 3.0])
        binned = ts.binned(5.0, agg=np.sum, weights=np.array([2.0, 4.0]))
        assert binned.values.tolist() == [16.0]

    def test_binned_weights_shape_mismatch_rejected(self):
        ts = TimeSeries(times=[0.0, 1.0], values=[1.0, 2.0])
        with pytest.raises(ValueError):
            ts.binned(5.0, weights=np.array([1.0]))

    def test_binned_weighted_unsupported_agg_rejected(self):
        ts = TimeSeries(times=[0.0], values=[1.0])
        with pytest.raises(ValueError):
            ts.binned(5.0, agg=np.median, weights=np.array([1.0]))

    def test_binned_min_and_generic_agg(self):
        ts = TimeSeries(
            times=[0.0, 1.0, 5.0, 6.0], values=[4.0, 2.0, 10.0, 20.0]
        )
        assert ts.binned(5.0, agg=np.min).values.tolist() == [2.0, 10.0]
        assert ts.binned(5.0, agg=np.median).values.tolist() == [3.0, 15.0]
        assert ts.binned(5.0, agg=len).values.tolist() == [2.0, 2.0]

    @given(
        data=st.lists(
            st.tuples(st.floats(0.0, 100.0), st.floats(-50.0, 50.0)),
            min_size=1,
            max_size=80,
        ),
        bin_s=st.floats(0.5, 20.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_vectorized_binning_matches_mask_loop(self, data, bin_s):
        """Property: np.bincount binning == the per-bin boolean-mask
        reference (the seed implementation)."""
        times = sorted(t for t, _ in data)
        values = [v for _, v in data]
        ts = TimeSeries(times=times, values=values)
        binned = ts.binned(bin_s)
        # Reference: per-bin boolean masks over fresh arrays.
        t = np.asarray(times)
        v = np.asarray(values)
        bins = np.floor((t - t[0]) / bin_s).astype(int)
        ref_times, ref_values = [], []
        for b in np.unique(bins):
            mask = bins == b
            ref_times.append(t[0] + float(b) * bin_s)
            ref_values.append(float(np.mean(v[mask])))
        assert binned.times.tolist() == pytest.approx(ref_times)
        assert binned.values.tolist() == pytest.approx(ref_values, abs=1e-9)
