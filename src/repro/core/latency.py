"""Driver-side latency measurement.

The defining methodological choice of the paper: latency is measured at
the SUT's sink, against timestamps assigned by the *driver* --
event-time latency against the generation timestamp (Definition 1) and
processing-time latency against the SUT ingestion timestamp (Definition
2).  For windowed outputs, the anchors are the maxima over the
contributing inputs (Definitions 3 and 4), which the operators already
attach to every :class:`~repro.core.records.OutputRecord`.

Measuring *both* latencies is what exposes the coordinated-omission
problem (Section IV-A, Experiment 6): under overload, processing-time
latency stays flat while event-time latency grows with the queues.

The collector never lives inside the SUT; it is the driver-side callback
attached to the sink.

Hot-path design (the harness must not become the bottleneck -- cf.
ShuffleBench/SProBench): samples accumulate into fixed-size columnar
chunks.  ``collect`` appends to small staging lists (C-speed) which are
flushed to ``(4, chunk)`` float64 blocks; analytical calls consolidate
the blocks once into a contiguous ``(4, N)`` matrix guarded by a dirty
flag, so repeated ``summary()``/``series()`` calls never re-convert the
raw samples.  Emit-time monotonicity is tracked per flush, letting the
warmup cut be a binary search instead of a full boolean mask.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.metrics import StatSummary, TimeSeries, weighted_summary
from repro.core.records import OutputRecord

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.metrology.skew import SkewModel

EVENT_TIME = "event_time"
PROCESSING_TIME = "processing_time"
LATENCY_KINDS = (EVENT_TIME, PROCESSING_TIME)

#: Rows per columnar chunk; 32768 rows x 4 cols x 8 B = 1 MiB per chunk.
CHUNK_ROWS = 32768

# Column indices of the consolidated (4, N) sample matrix.
_EMIT, _EVENT_LAT, _PROC_LAT, _WEIGHT = range(4)


class LatencyCollector:
    """Collects per-output latency samples emitted by the SUT sink.

    With ``keep_outputs=True`` the raw :class:`OutputRecord` objects are
    retained as well (value-correctness checks and the latency-anchor
    ablation need them); by default only the latency samples are kept.

    The public API (``collect``, ``summary``, ``series``,
    ``binned_series``, ``trend_slope``) is drop-in compatible with the
    original list-based collector; storage and query evaluation are
    columnar NumPy (see the module docstring).
    """

    def __init__(
        self,
        keep_outputs: bool = False,
        skew: Optional["SkewModel"] = None,
    ) -> None:
        # Optional measurement-plane clock model: latency samples pass
        # through skewed clocks (see repro.metrology.skew).  The emit
        # column keeps TRUE time -- binning/warmup cuts stay exact; only
        # the latency *values* carry the clock error, which is what a
        # real skewed instrument reports.
        self.skew = skew
        # Staging lists, one per column: (emit, event_lat, proc_lat, weight).
        self._stage_emit: List[float] = []
        self._stage_event: List[float] = []
        self._stage_proc: List[float] = []
        self._stage_weight: List[float] = []
        self._chunks: List[np.ndarray] = []  # each (4, n_i) float64
        self._count = 0
        self._cols: Optional[np.ndarray] = None  # consolidated (4, N)
        self._dirty = False
        self._emit_monotonic = True
        self._last_emit = float("-inf")
        self._summary_cache: Dict[Tuple[str, float], StatSummary] = {}
        # Perf counters (exposed via perf_counters()).
        self.collect_calls = 0
        self.consolidations = 0
        self.keep_outputs = keep_outputs
        self.outputs: List[OutputRecord] = []

    def collect(self, outputs: List[OutputRecord]) -> None:
        """Sink callback: record one emission bundle."""
        append_emit = self._stage_emit.append
        append_event = self._stage_event.append
        append_proc = self._stage_proc.append
        append_weight = self._stage_weight.append
        skew = self.skew
        if skew is None:
            for out in outputs:
                emit = out.emit_time
                append_emit(emit)
                append_event(emit - out.event_time)
                append_proc(emit - out.processing_time)
                append_weight(out.weight)
        else:
            # Skewed measurement: the anchor was stamped by a generator
            # clock, the read happens on the sink clock.  The error of
            # each sample is exactly (sink error - anchor error), which
            # the model tracks against its exported bound.
            for out in outputs:
                emit = out.emit_time
                sink_err = skew.emit_error(emit)
                anchor_err = skew.anchor_error(out.event_time)
                skew.observe(sink_err - anchor_err)
                append_emit(emit)
                append_event(emit + sink_err - out.event_time - anchor_err)
                # The processing-time anchor is stamped inside the SUT
                # (true time); only the sink read is skewed.
                append_proc(emit + sink_err - out.processing_time)
                append_weight(out.weight)
        if outputs:
            self._count += len(outputs)
            self._dirty = True
            self._summary_cache.clear()
            if len(self._stage_emit) >= CHUNK_ROWS:
                self._flush_stage()
        if self.keep_outputs:
            self.outputs.extend(outputs)
        self.collect_calls += 1

    def __len__(self) -> int:
        return self._count

    # -- columnar storage ------------------------------------------------

    def _flush_stage(self) -> None:
        """Convert the staging lists into one (4, n) chunk."""
        if not self._stage_emit:
            return
        block = np.array(
            [
                self._stage_emit,
                self._stage_event,
                self._stage_proc,
                self._stage_weight,
            ],
            dtype=np.float64,
        )
        emit = block[_EMIT]
        if self._emit_monotonic:
            if emit[0] < self._last_emit or (
                emit.size > 1 and bool(np.any(emit[1:] < emit[:-1]))
            ):
                self._emit_monotonic = False
            else:
                self._last_emit = float(emit[-1])
        self._chunks.append(block)
        self._stage_emit.clear()
        self._stage_event.clear()
        self._stage_proc.clear()
        self._stage_weight.clear()

    def _consolidate(self) -> np.ndarray:
        """One contiguous (4, N) matrix of all samples, cached until the
        next ``collect`` (the dirty flag)."""
        if self._dirty or self._cols is None:
            self._flush_stage()
            if not self._chunks:
                self._cols = np.empty((4, 0), dtype=np.float64)
            elif len(self._chunks) == 1:
                self._cols = self._chunks[0]
            else:
                self._cols = np.concatenate(self._chunks, axis=1)
                # Re-chunk: the next consolidation only concatenates the
                # (already merged) prefix with whatever arrived since.
                self._chunks = [self._cols]
            self._dirty = False
            self.consolidations += 1
        return self._cols

    @property
    def memory_bytes(self) -> int:
        """Approximate bytes held by the sample store."""
        chunk_bytes = sum(c.nbytes for c in self._chunks)
        if self._cols is not None and (
            not self._chunks or self._cols is not self._chunks[0]
        ):
            chunk_bytes += self._cols.nbytes
        stage_bytes = 4 * 8 * len(self._stage_emit)
        return chunk_bytes + stage_bytes

    def perf_counters(self) -> Dict[str, float]:
        """Driver-side metrology counters (merged into
        :attr:`TrialResult.diagnostics` by the driver)."""
        counters = {
            "collector.samples": float(self._count),
            "collector.collect_calls": float(self.collect_calls),
            "collector.memory_bytes": float(self.memory_bytes),
            "collector.consolidations": float(self.consolidations),
        }
        if self.skew is not None:
            counters.update(self.skew.diagnostics())
        return counters

    # -- queries ---------------------------------------------------------

    def _column(self, kind: str) -> int:
        if kind == EVENT_TIME:
            return _EVENT_LAT
        if kind == PROCESSING_TIME:
            return _PROC_LAT
        raise ValueError(
            f"unknown latency kind {kind!r}; expected one of {LATENCY_KINDS}"
        )

    def _arrays(
        self, kind: str, start_time: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        col = self._column(kind)
        cols = self._consolidate()
        times = cols[_EMIT]
        values = cols[col]
        weights = cols[_WEIGHT]
        if times.size == 0:
            return times, values, weights
        if self._emit_monotonic:
            if start_time <= times[0]:
                return times, values, weights
            lo = int(np.searchsorted(times, start_time, side="left"))
            return times[lo:], values[lo:], weights[lo:]
        mask = times >= start_time
        return times[mask], values[mask], weights[mask]

    def summary(self, kind: str = EVENT_TIME, start_time: float = 0.0) -> StatSummary:
        """Paper-table statistics over outputs emitted after ``start_time``
        (the driver passes the warmup end).  Cached until new samples
        arrive."""
        key = (kind, float(start_time))
        cached = self._summary_cache.get(key)
        if cached is not None and not self._dirty:
            return cached
        _, values, weights = self._arrays(kind, start_time)
        result = weighted_summary(values, weights)
        self._summary_cache[key] = result
        return result

    def series(self) -> TimeSeries:
        """Raw (emit_time, event-time latency) series -- the dots of
        Figures 4/5."""
        times, values, _ = self._arrays(EVENT_TIME, 0.0)
        return TimeSeries.from_arrays(
            times, values, copy=True, assume_sorted=self._emit_monotonic
        )

    def binned_series(
        self,
        kind: str = EVENT_TIME,
        bin_s: float = 5.0,
        start_time: float = 0.0,
        agg=np.mean,
    ) -> TimeSeries:
        """Binned latency-over-time series (the lines of Figures 6-8).

        Weight-aware: a join cohort of weight ``w`` counts as ``w``
        tuples in each bin's mean, consistent with ``summary()``.
        """
        times, values, weights = self._arrays(kind, start_time)
        view = TimeSeries.from_arrays(
            times, values, copy=False, assume_sorted=self._emit_monotonic
        )
        if agg is np.mean or agg is np.sum:
            return view.binned(bin_s, agg=agg, weights=weights)
        return view.binned(bin_s, agg=agg)

    def trend_slope(
        self, start_time: float = 0.0, bin_s: float = 5.0
    ) -> float:
        """Slope of binned event-time latency over time (s of latency
        per s).

        A persistently positive slope is Definition 5's "continuously
        increasing event-time latency" -- the unsustainability signal.
        """
        binned = self.binned_series(
            EVENT_TIME, bin_s=bin_s, start_time=start_time
        )
        return binned.slope_per_s()
