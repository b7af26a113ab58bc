"""Time-series alignment and resampling for figure panels.

The paper's figures overlay multiple runs (engines, cluster sizes,
loads) on common time axes; these helpers bring the driver's raw series
onto shared grids.  All of them operate on the NumPy backing arrays of
:class:`TimeSeries` directly -- no per-sample Python loops.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.core.metrics import TimeSeries


def resample(
    series: TimeSeries, step_s: float, start: Optional[float] = None
) -> TimeSeries:
    """Nearest-previous-sample resampling onto a regular grid.

    Empty gaps hold the last observed value (step interpolation), which
    matches how occupancy/throughput counters behave between samples.
    """
    if step_s <= 0:
        raise ValueError("step_s must be positive")
    if not len(series):
        return TimeSeries()
    times = series.times
    values = series.values
    t0 = times[0] if start is None else start
    grid = np.arange(t0, times[-1] + step_s / 2, step_s)
    idx = np.searchsorted(times, grid, side="right") - 1
    idx = np.clip(idx, 0, len(times) - 1)
    return TimeSeries.from_arrays(grid, values[idx], assume_sorted=True)


def align_series(
    series: Mapping[str, TimeSeries], step_s: float
) -> Dict[str, TimeSeries]:
    """Resample several series onto one shared grid (common start)."""
    non_empty = {k: s for k, s in series.items() if len(s)}
    if not non_empty:
        return {k: TimeSeries() for k in series}
    start = min(s.times[0] for s in non_empty.values())
    return {
        key: resample(s, step_s, start=start) if len(s) else TimeSeries()
        for key, s in series.items()
    }
