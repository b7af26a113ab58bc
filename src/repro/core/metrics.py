"""Weighted statistics and time series.

Tables II and IV of the paper report, per configuration, the average,
minimum, maximum and the (90, 95, 99) quantiles of latency in seconds.
Output tuples in this reproduction carry weights (a join output cohort
stands for many result tuples), so the summary statistics are
weight-aware: a sample with weight ``w`` counts as ``w`` identical
observations.

:class:`TimeSeries` is the container for every over-time figure (latency
distributions of Figures 4-8, throughput of Figure 9, scheduler delay of
Figure 11) with binning and trend helpers used by the sustainability
test.  It is backed by growable NumPy arrays: appends are amortised
O(1), ``window`` is a binary search on the (sorted) time axis, and
``binned`` aggregates whole bins at once with ``np.bincount`` /
``ufunc.reduceat`` instead of a per-bin boolean-mask scan.  All paper
quantiles of a summary come out of a single sort + prefix sum
(:func:`weighted_quantiles`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

PAPER_QUANTILES = (0.90, 0.95, 0.99)

_INITIAL_CAPACITY = 64


@dataclass(frozen=True)
class StatSummary:
    """Weighted summary in the shape of the paper's latency tables."""

    count: int
    weight: float
    mean: float
    minimum: float
    maximum: float
    p90: float
    p95: float
    p99: float
    std: float

    @classmethod
    def empty(cls) -> "StatSummary":
        nan = float("nan")
        return cls(0, 0.0, nan, nan, nan, nan, nan, nan, nan)

    @property
    def quantiles(self) -> Tuple[float, float, float]:
        return (self.p90, self.p95, self.p99)

    def to_dict(self) -> dict:
        """JSON-safe flat dict (NaNs become None) -- the shape the
        exporters and the resume journal share, so a journaled summary
        replays byte-identically into the final report."""

        def clean(value: float):
            return None if value != value else float(value)

        return {
            "count": self.count,
            "weight": clean(self.weight),
            "mean": clean(self.mean),
            "min": clean(self.minimum),
            "max": clean(self.maximum),
            "p90": clean(self.p90),
            "p95": clean(self.p95),
            "p99": clean(self.p99),
            "std": clean(self.std),
        }

    def row(self) -> str:
        """Render as a paper-style table fragment:
        ``avg min max (q90, q95, q99)``."""
        if self.count == 0:
            return "-- (no samples)"
        return (
            f"{self.mean:.2f} {self.minimum:.3g} {self.maximum:.3g} "
            f"({self.p90:.2f}, {self.p95:.2f}, {self.p99:.2f})"
        )


def weighted_quantiles(
    values: np.ndarray, weights: np.ndarray, qs: Sequence[float]
) -> np.ndarray:
    """All requested weighted quantiles from ONE sort + prefix sum.

    Cumulative-weight definition: each ``q`` in [0, 1] maps to the first
    sorted value whose cumulative weight reaches ``q * total``.  With
    unit weights this matches the inverse-CDF (type-1) sample quantile.
    """
    qs_arr = np.asarray(qs, dtype=np.float64)
    if qs_arr.size and (qs_arr.min() < 0.0 or qs_arr.max() > 1.0):
        raise ValueError(f"quantiles must be in [0, 1], got {qs}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return np.full(qs_arr.shape, np.nan)
    weights = np.asarray(weights, dtype=np.float64)
    # Unstable sort is fine: tied values are interchangeable for the
    # cumulative-weight rule (the selected *value* is identical).
    order = np.argsort(values)
    sorted_values = values[order]
    cum = np.cumsum(weights[order])
    targets = qs_arr * cum[-1]
    idx = np.searchsorted(cum, targets, side="left")
    idx = np.minimum(idx, values.size - 1)
    return sorted_values[idx]


def weighted_summary(
    values: Sequence[float], weights: Optional[Sequence[float]] = None
) -> StatSummary:
    """Weighted mean/min/max/quantiles over samples."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.size == 0:
        return StatSummary.empty()
    if weights is None:
        wts = np.ones_like(vals)
    else:
        wts = np.asarray(weights, dtype=np.float64)
        if wts.shape != vals.shape:
            raise ValueError(
                f"weights shape {wts.shape} != values shape {vals.shape}"
            )
        if (wts < 0).any():
            raise ValueError("weights must be non-negative")
    total = float(wts.sum())
    if total <= 0:
        return StatSummary.empty()
    mean = float(np.average(vals, weights=wts))
    var = float(np.average((vals - mean) ** 2, weights=wts))
    p90, p95, p99 = weighted_quantiles(vals, wts, PAPER_QUANTILES)
    return StatSummary(
        count=int(vals.size),
        weight=total,
        mean=mean,
        minimum=float(vals.min()),
        maximum=float(vals.max()),
        p90=float(p90),
        p95=float(p95),
        p99=float(p99),
        std=float(np.sqrt(var)),
    )


def _is_sorted(arr: np.ndarray) -> bool:
    return arr.size < 2 or bool(np.all(arr[1:] >= arr[:-1]))


class TimeSeries:
    """An (irregular) time series with binning and trend helpers.

    Data lives in preallocated float64 buffers that double on demand, so
    per-sample ``append`` stays amortised O(1) while every analytical
    operation works on contiguous NumPy arrays with no re-conversion.
    ``times`` / ``values`` return read-only array views of the live data.
    """

    __slots__ = ("_times", "_values", "_n", "_sorted", "_owns")

    def __init__(
        self,
        times: Optional[Sequence[float]] = None,
        values: Optional[Sequence[float]] = None,
    ) -> None:
        t = np.array(() if times is None else times, dtype=np.float64).ravel()
        v = np.array(() if values is None else values, dtype=np.float64).ravel()
        if t.size != v.size:
            raise ValueError(
                f"times length {t.size} != values length {v.size}"
            )
        self._times = t
        self._values = v
        self._n = int(t.size)
        self._sorted = _is_sorted(t)
        self._owns = True

    @classmethod
    def from_arrays(
        cls,
        times: np.ndarray,
        values: np.ndarray,
        copy: bool = True,
        assume_sorted: Optional[bool] = None,
    ) -> "TimeSeries":
        """Wrap two aligned float64 arrays without list round-trips.

        With ``copy=False`` the arrays are adopted as-is (the series
        copies lazily on the first ``append``); ``assume_sorted`` skips
        the monotonicity scan when the caller already knows the answer.
        """
        out = cls.__new__(cls)
        t = np.asarray(times, dtype=np.float64).ravel()
        v = np.asarray(values, dtype=np.float64).ravel()
        if t.size != v.size:
            raise ValueError(
                f"times length {t.size} != values length {v.size}"
            )
        if copy:
            t = t.copy()
            v = v.copy()
        out._times = t
        out._values = v
        out._n = int(t.size)
        out._sorted = _is_sorted(t) if assume_sorted is None else assume_sorted
        out._owns = copy
        return out

    # -- storage ---------------------------------------------------------

    def _view(self, buf: np.ndarray) -> np.ndarray:
        view = buf[: self._n]
        view.flags.writeable = False
        return view

    @property
    def times(self) -> np.ndarray:
        return self._view(self._times)

    @times.setter
    def times(self, new: Sequence[float]) -> None:
        arr = np.array(new, dtype=np.float64).ravel()
        self._times = arr
        self._n = int(arr.size)
        self._sorted = _is_sorted(arr)
        self._owns = True
        if self._values.size < self._n:
            self._values = np.resize(self._values, self._n)

    @property
    def values(self) -> np.ndarray:
        return self._view(self._values)

    @values.setter
    def values(self, new: Sequence[float]) -> None:
        arr = np.array(new, dtype=np.float64).ravel()
        self._values = arr
        self._owns = True
        if arr.size < self._n:
            self._n = int(arr.size)

    def append(self, time: float, value: float) -> None:
        if self._n and time < self._times[self._n - 1]:
            raise ValueError(
                f"time {time} is before last sample {self._times[self._n - 1]}"
            )
        if not self._owns:
            self._times = self._times.copy()
            self._values = self._values.copy()
            self._owns = True
        if self._n >= self._times.size:
            new_cap = max(2 * self._times.size, _INITIAL_CAPACITY)
            self._times = np.resize(self._times, new_cap)
            self._values = np.resize(self._values, new_cap)
        self._times[self._n] = time
        self._values[self._n] = value
        self._n += 1

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(zip(self.times, self.values))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            self._n == other._n
            and bool(np.array_equal(self.times, other.times))
            and bool(np.array_equal(self.values, other.values))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeSeries(n={self._n}, "
            f"times={self.times!r}, values={self.values!r})"
        )

    # -- analytics -------------------------------------------------------

    def window(self, start: float, end: float = float("inf")) -> "TimeSeries":
        """Sub-series with start <= t < end (binary search when sorted)."""
        t = self.times
        v = self.values
        if self._sorted:
            lo = int(np.searchsorted(t, start, side="left"))
            hi = (
                self._n
                if end == float("inf")
                else int(np.searchsorted(t, end, side="left"))
            )
            return TimeSeries.from_arrays(
                t[lo:hi], v[lo:hi], copy=True, assume_sorted=True
            )
        mask = (t >= start) & (t < end)
        return TimeSeries.from_arrays(t[mask], v[mask], copy=False)

    def slope_per_s(self) -> float:
        """Least-squares slope (value units per second); 0 if < 2 points."""
        if self._n < 2:
            return 0.0
        t = self.times - self.times.mean()
        v = self.values
        denom = float((t**2).sum())
        if denom == 0:
            return 0.0
        return float((t * (v - v.mean())).sum() / denom)

    def mean(self) -> float:
        if not self._n:
            return float("nan")
        return float(np.mean(self.values))

    def max(self) -> float:
        if not self._n:
            return float("nan")
        return float(np.max(self.values))

    def binned(
        self,
        bin_s: float,
        agg: Callable[[np.ndarray], float] = np.mean,
        start: Optional[float] = None,
        weights: Optional[np.ndarray] = None,
    ) -> "TimeSeries":
        """Aggregate into fixed bins (bin timestamp = bin *start*).

        Vectorised for the common aggregations (mean/sum/max/min/len);
        any other callable falls back to a per-bin group apply.  With
        ``weights`` the mean is weight-aware (a cohort of weight ``w``
        counts as ``w`` observations) and the sum is a weighted total;
        min/max are weight-invariant.  Weighted binning with any other
        aggregation is rejected rather than silently ignoring weights.
        """
        if bin_s <= 0:
            raise ValueError("bin_s must be positive")
        if not self._n:
            return TimeSeries()
        t = self.times
        v = self.values
        t0 = float(t[0]) if start is None else start
        bins = np.floor((t - t0) / bin_s).astype(np.int64)
        if self._sorted:
            # Sorted times => bins already grouped and ascending: the
            # unique bins fall out of one linear diff pass, no sort.
            change = np.empty(bins.size, dtype=bool)
            change[0] = True
            np.not_equal(bins[1:], bins[:-1], out=change[1:])
            inv = np.cumsum(change) - 1
            uniq = bins[change]
        else:
            uniq, inv = np.unique(bins, return_inverse=True)
        n_bins = uniq.size
        out_times = t0 + uniq.astype(np.float64) * bin_s

        if weights is not None:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != v.shape:
                raise ValueError(
                    f"weights shape {w.shape} != values shape {v.shape}"
                )
            if agg is np.mean:
                wsum = np.bincount(inv, weights=w, minlength=n_bins)
                vsum = np.bincount(inv, weights=w * v, minlength=n_bins)
                with np.errstate(invalid="ignore", divide="ignore"):
                    out_values = vsum / wsum
            elif agg is np.sum:
                out_values = np.bincount(inv, weights=w * v, minlength=n_bins)
            elif agg in (np.max, np.amax, max, np.min, np.amin, min):
                return self.binned(bin_s, agg=agg, start=start)
            else:
                raise ValueError(
                    "weighted binning supports np.mean/np.sum/np.max/np.min, "
                    f"got {agg!r}"
                )
            return TimeSeries.from_arrays(
                out_times, out_values, copy=False, assume_sorted=True
            )

        if agg is np.mean:
            counts = np.bincount(inv, minlength=n_bins)
            sums = np.bincount(inv, weights=v, minlength=n_bins)
            out_values = sums / counts
        elif agg is np.sum:
            out_values = np.bincount(inv, weights=v, minlength=n_bins)
        elif agg is len or agg is np.size:
            out_values = np.bincount(inv, minlength=n_bins).astype(np.float64)
        elif agg in (np.max, np.amax, max) or agg in (np.min, np.amin, min):
            ufunc = np.maximum if agg in (np.max, np.amax, max) else np.minimum
            if _is_sorted(inv):
                grouped = v
                starts = np.searchsorted(inv, np.arange(n_bins), side="left")
            else:
                order = np.argsort(inv, kind="stable")
                grouped = v[order]
                starts = np.searchsorted(
                    inv[order], np.arange(n_bins), side="left"
                )
            out_values = ufunc.reduceat(grouped, starts)
        else:
            # Arbitrary aggregation: group once, apply per bin.
            order = np.argsort(inv, kind="stable")
            grouped = v[order]
            bounds = np.searchsorted(
                inv[order], np.arange(n_bins + 1), side="left"
            )
            out_values = np.array(
                [
                    float(agg(grouped[bounds[i] : bounds[i + 1]]))
                    for i in range(n_bins)
                ],
                dtype=np.float64,
            )
        return TimeSeries.from_arrays(
            out_times, out_values, copy=False, assume_sorted=True
        )

    def summary(self) -> StatSummary:
        return weighted_summary(self.values)
