"""Windowed aggregation strategies.

All three engines compute the same query -- ``SUM(price) GROUP BY
gemPackID`` over a sliding window -- but with architecturally different
execution, which the paper ties directly to the measured differences:

- **Incremental** (Flink): aggregates are folded in on the fly, one
  keyed update *per containing window* per record (the paper notes Flink
  "cannot share aggregate results among different sliding windows").
  State per key is one accumulator; emission at window close is
  immediate.
- **Buffered/bulk** (Storm): tuples are buffered and the window is
  evaluated in bulk at close; state grows with the window volume and the
  evaluation adds a close-time delay proportional to it.
- **Mini-batch partials** (Spark): each batch builds per-key partial
  aggregates (``reduceByKey`` -> ShuffledRDD + MapPartitionsRDD); a
  window result merges the partials of the batches it spans.  With
  caching, merged window state is retained across batches ("the cache
  operation consumes the memory aggressively", Experiment 3); with an
  **inverse-reduce function** the window state is updated by adding the
  new batch and subtracting the expired one -- O(keys) instead of
  O(window volume).

The semantic core (max-event-time anchors) lives in
:mod:`repro.engines.operators.window`; this module turns closed windows
and batch partials into output tuples.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.batch import RecordBlock, fold_add
from repro.core.records import OutputRecord
from repro.engines.operators.window import (
    WindowCols,
    WindowContents,
    block_products,
    chained_weight,
    close_window,
)
from repro.workloads.queries import WindowSpec


def aggregation_outputs(
    contents: WindowContents, emit_time: float
) -> List[OutputRecord]:
    """One output tuple per key of a closed window (Definition 3 / 4).

    ``emit_time`` is the simulated time at which the SUT's output
    operator actually emits -- window close plus any engine-specific
    evaluation delay; the driver derives both latencies from the
    returned records.
    """
    traces_by_key = None
    if contents.traces:
        traces_by_key = {}
        for trace in contents.traces:
            traces_by_key.setdefault(trace.key, []).append(trace)
    end_time = contents.end_time
    outputs = []
    for key, value, event_time, processing_time in zip(
        contents.keys.tolist(),
        contents.values.tolist(),
        contents.max_event_times.tolist(),
        contents.max_processing_times.tolist(),
    ):
        # Positional: a keyword call costs twice as much per tuple.
        outputs.append(
            OutputRecord(
                key,
                value,
                event_time,
                processing_time,
                emit_time,
                1.0,
                end_time,
                traces_by_key.pop(key, None)
                if traces_by_key is not None
                else None,
            )
        )
    return outputs


class BatchPartialAggregator:
    """Per-mini-batch partial aggregation (Spark's reduceByKey stage).

    Cohorts arriving during one batch interval are folded into per-key
    partials *per window index* (a record spans ``windows_per_event``
    windows), held as :class:`WindowCols`.  At batch end the partials
    are handed to the window state of the job, and the partial store
    resets for the next batch.
    """

    def __init__(self, window: WindowSpec, key_space_hint: int = 64) -> None:
        self.window = window
        self._key_space_hint = key_space_hint
        self._cols: Dict[int, WindowCols] = {}
        self._traces: Dict[int, List] = {}
        self.batch_weight = 0.0

    def add_block(self, block: RecordBlock) -> int:
        n_cohorts = len(block)
        if n_cohorts == 0:
            return 0
        first, last = self.window.window_index_range(block.event_time)
        products = block_products(block)
        windows = 0
        for idx in range(first, last + 1):
            cols = self._cols.get(idx)
            if cols is None:
                cols = WindowCols(self._key_space_hint)
                self._cols[idx] = cols
            cols.add_cohorts(
                block.keys,
                block.weights,
                products,
                block.event_time,
                block.ingest_time,
            )
            windows += 1
        self.batch_weight = fold_add(self.batch_weight, block.weights)
        if block.traces:
            # Same earliest-open-window rule as KeyedWindowStore; the
            # partial aggregator never closes windows itself, so the
            # earliest containing window is simply `first`.
            for _, trace in block.traces:
                self._traces.setdefault(first, []).append(trace)
            block.traces = []
        return windows * n_cohorts

    def drain(self) -> Dict[int, WindowCols]:
        """Hand the batch's partials to the job and reset."""
        partials = self._cols
        self._cols = {}
        self.batch_weight = 0.0
        return partials

    def drain_traces(self) -> Dict[int, List]:
        """Hand the batch's stashed traces to the job and reset."""
        traces = self._traces
        self._traces = {}
        return traces


class WindowedPartialMerger:
    """Merges mini-batch partials into full window results.

    This is the Spark window operator: window results are assembled from
    the partial aggregates of the batches spanning the window.  Each
    absorbed partial is folded into its window's columns at once and
    released; what caching the batches' RDDs instead would cost (state
    held, per-batch work) is modelled in the engine from
    ``SparkConfig.inverse_reduce``.
    """

    def __init__(self, window: WindowSpec) -> None:
        self.window = window
        self._window_state: Dict[int, WindowCols] = {}
        self._traces: Dict[int, List] = {}
        self._closed_through: Optional[int] = None
        self.dropped_weight = 0.0
        """Weight of late partials lost to already-emitted windows
        (normalised like KeyedWindowStore.dropped_weight)."""
        self.admitted_weight = 0.0
        """Per-record weight folded into window state (normalised by
        windows_per_event), the merger-side conservation input."""
        self.closed_weight = 0.0
        """Normalised weight released by pop_ready."""

    lost_weight = 0.0
    """Nothing the merger holds is ever destroyed (Spark recomputes lost
    partitions from lineage); kept so the merger reads like the other
    window stores in a conservation ledger."""

    def absorb(
        self,
        partials: Dict[int, WindowCols],
        traces: Optional[Dict[int, List]] = None,
    ) -> None:
        """Fold one batch's per-window partials into window state.

        Partials for windows that already closed (stragglers that were
        still queued when their window was emitted) are dropped, exactly
        like :class:`KeyedWindowStore` drops late adds -- and so are
        their stashed traces.
        """
        for idx, partial in partials.items():
            batch_weight = partial.total_weight()
            if self._closed_through is not None and idx <= self._closed_through:
                self.dropped_weight += (
                    batch_weight / self.window.windows_per_event
                )
                if traces:
                    for trace in traces.pop(idx, []):
                        trace.drop()
                continue
            self.admitted_weight += batch_weight / self.window.windows_per_event
            state = self._window_state.get(idx)
            if state is None:
                state = WindowCols(partial.n)
                self._window_state[idx] = state
            state.merge(partial)
        if traces:
            for idx, idx_traces in traces.items():
                self._traces.setdefault(idx, []).extend(idx_traces)

    def pop_ready(
        self, through_end_time: float, at_time: Optional[float] = None
    ) -> List[WindowContents]:
        """Close every window ending at or before ``through_end_time``.

        ``at_time`` stamps the ``closed`` mark on buffered traces.
        """
        ready = sorted(
            idx
            for idx in self._window_state
            if self.window.window_end(idx) <= through_end_time
        )
        closed = []
        for idx in ready:
            traces = self._traces.pop(idx, [])
            if traces and at_time is not None:
                for trace in traces:
                    trace.mark("closed", at_time)
            contents = close_window(
                self.window, idx, self._window_state.pop(idx), traces
            )
            self.closed_weight += (
                contents.total_weight / self.window.windows_per_event
            )
            closed.append(contents)
            if self._closed_through is None or idx > self._closed_through:
                self._closed_through = idx
        return closed

    def stored_weight(self) -> float:
        """Weight held across open windows: one chained strict left fold
        over (window insertion order, key first-touch order)."""
        return chained_weight(self._window_state.values())

    @property
    def open_window_count(self) -> int:
        return len(self._window_state)
