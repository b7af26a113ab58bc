"""Statistical helpers for judging reproduction quality.

These functions support the shape claims the benchmarks make: relative
errors against the paper's numbers and simple robust summaries.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def relative_error(measured: float, reference: float) -> float:
    """|measured - reference| / |reference| (inf if reference is 0)."""
    if reference == 0:
        return float("inf") if measured != 0 else 0.0
    return abs(measured - reference) / abs(reference)


def within_factor(measured: float, reference: float, factor: float) -> bool:
    """True when measured is within [reference/factor, reference*factor].

    The task of a simulator-backed reproduction is shape, not absolute
    agreement; benchmarks typically assert ``within_factor(..., 2.0)``.
    """
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    if reference <= 0 or measured <= 0:
        return measured == reference
    return reference / factor <= measured <= reference * factor


def coefficient_of_variation(values: Sequence[float]) -> float:
    """std/mean -- used to compare ingest-rate fluctuation (Figure 9):
    Storm's pull rate fluctuates far more than Flink's."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    mean = arr.mean()
    if mean == 0:
        return float("nan")
    return float(arr.std() / abs(mean))


def iqr(values: Sequence[float]) -> float:
    """Interquartile range."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return float("nan")
    q75, q25 = np.percentile(arr, [75, 25])
    return float(q75 - q25)
