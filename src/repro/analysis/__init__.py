"""Post-processing: statistics, figure series, and the paper's numbers.

- :mod:`repro.analysis.stats` -- relative errors and robust summaries
  beyond the driver's built-ins.
- :mod:`repro.analysis.ascii_plots` -- terminal rendering of series so
  ``repro paper`` and ``repro run`` can show figure shapes without a
  plotting stack.
- :mod:`repro.analysis.pareto` -- Pareto-front extraction for benchmark
  trade-off frontiers (recovery time vs. checkpoint overhead).
- :mod:`repro.analysis.paper_values` -- every number published in the
  paper's Tables I-IV and the headline Experiment 3/4 figures, for
  side-by-side shape comparison.
- :mod:`repro.analysis.paper` -- the paper's evaluation declared once:
  every table, figure, experiment, ablation and extension as cells,
  paper values and named checks (``python -m repro paper``).
"""

from repro.analysis.ascii_plots import render_series, sparkline
from repro.analysis.pareto import pareto_front
from repro.analysis.paper_values import (
    PAPER_TABLE1_AGG_THROUGHPUT,
    PAPER_TABLE2_AGG_LATENCY,
    PAPER_TABLE3_JOIN_THROUGHPUT,
    PAPER_TABLE4_JOIN_LATENCY,
)
from repro.analysis.stats import relative_error

__all__ = [
    "PAPER_TABLE1_AGG_THROUGHPUT",
    "PAPER_TABLE2_AGG_LATENCY",
    "PAPER_TABLE3_JOIN_THROUGHPUT",
    "PAPER_TABLE4_JOIN_LATENCY",
    "pareto_front",
    "relative_error",
    "render_series",
    "sparkline",
]
