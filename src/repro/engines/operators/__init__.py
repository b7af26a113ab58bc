"""Streaming operators shared by the engine models.

- :mod:`repro.engines.operators.window` -- sliding-window assignment and
  keyed window stores implementing the paper's Definitions 3 and 4 (a
  windowed output's event-/processing-time is the maximum over its
  contributing inputs).
- :mod:`repro.engines.operators.aggregate` -- windowed SUM aggregation
  strategies: incremental (Flink), buffered/bulk (Storm), mini-batch
  partials with optional inverse-reduce (Spark).
- :mod:`repro.engines.operators.join` -- windowed equi-join with
  selectivity control, plus the naive Storm join.
- :mod:`repro.engines.operators.source` -- the SUT-side source operator:
  round-robin pulls from the driver queues, ingest-time stamping, and
  watermark tracking.
- :mod:`repro.engines.operators.sink` -- the output operator where the
  driver measures latency.
"""

from repro.engines.operators.join import JoinWindowStore, join_window_outputs
from repro.engines.operators.sink import Sink
from repro.engines.operators.source import SourceSet
from repro.engines.operators.window import KeyedWindowStore, WindowContents

__all__ = [
    "JoinWindowStore",
    "KeyedWindowStore",
    "Sink",
    "SourceSet",
    "WindowContents",
    "join_window_outputs",
]
