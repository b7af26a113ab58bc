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

from repro.core.batch import RecordBlock, as_block, fold_add, left_sum
from repro.core.records import OutputRecord, Record
from repro.engines.operators.window import (
    WindowAccumulator,
    WindowCols,
    WindowContents,
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
    outputs = []
    for key, acc in contents.by_key.items():
        outputs.append(
            OutputRecord(
                key=key,
                value=acc.value,
                event_time=acc.max_event_time,
                processing_time=acc.max_processing_time,
                emit_time=emit_time,
                weight=1.0,
                window_end=contents.end_time,
                traces=(
                    traces_by_key.pop(key, None)
                    if traces_by_key is not None
                    else None
                ),
            )
        )
    return outputs


class BatchPartialAggregator:
    """Per-mini-batch partial aggregation (Spark's reduceByKey stage).

    Cohorts arriving during one batch interval are folded into per-key
    partials *per window index* (a record spans ``windows_per_event``
    windows), held as :class:`WindowCols`.  At batch end the partials
    are materialized and handed to the window state of the job, and the
    partial store resets for the next batch.
    """

    def __init__(self, window: WindowSpec, key_space_hint: int = 64) -> None:
        self.window = window
        self._key_space_hint = key_space_hint
        self._cols: Dict[int, WindowCols] = {}
        self._traces: Dict[int, List] = {}
        self.batch_weight = 0.0

    def add(self, record: Record) -> int:
        """Fold one record in: :meth:`add_block` over a block of one."""
        return self.add_block(as_block(record))

    def add_block(self, block: RecordBlock) -> int:
        n_cohorts = len(block)
        if n_cohorts == 0:
            return 0
        first, last = self.window.window_index_range(block.event_time)
        windows = 0
        for idx in range(first, last + 1):
            cols = self._cols.get(idx)
            if cols is None:
                cols = WindowCols(self._key_space_hint)
                self._cols[idx] = cols
            cols.add_cohorts(
                block.keys,
                block.weights,
                block.value,
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

    def drain(self) -> Dict[int, Dict[int, WindowAccumulator]]:
        """Hand the batch's partials to the job and reset."""
        partials = {
            idx: cols.materialize() for idx, cols in self._cols.items()
        }
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
    the partial aggregates of the batches spanning the window.  With
    ``inverse_reduce=False`` the merger keeps every batch's partials
    alive until all windows they touch have closed (the cached-RDD
    memory profile); with ``inverse_reduce=True`` partials are folded
    into per-window state immediately and released (the paper's fix).
    Both modes produce identical results; they differ in state held and
    (in the engine model) in per-batch cost.
    """

    def __init__(self, window: WindowSpec, inverse_reduce: bool = False) -> None:
        self.window = window
        self.inverse_reduce = inverse_reduce
        self._window_state: Dict[int, Dict[int, WindowAccumulator]] = {}
        self._traces: Dict[int, List] = {}
        self._closed_through: Optional[int] = None
        self.dropped_weight = 0.0
        """Weight of late partials lost to already-emitted windows
        (normalised like KeyedWindowStore.dropped_weight)."""
        self.absorbed_weight = 0.0
        """Per-record weight folded into window state (normalised by
        windows_per_event), the merger-side conservation input."""
        self.closed_weight = 0.0
        """Normalised weight released by pop_ready."""

    def absorb(
        self,
        partials: Dict[int, Dict[int, WindowAccumulator]],
        traces: Optional[Dict[int, List]] = None,
    ) -> None:
        """Fold one batch's per-window partials into window state.

        Partials for windows that already closed (stragglers that were
        still queued when their window was emitted) are dropped, exactly
        like :class:`KeyedWindowStore` drops late adds -- and so are
        their stashed traces.
        """
        for idx, per_key in partials.items():
            batch_weight = left_sum(acc.weight for acc in per_key.values())
            if self._closed_through is not None and idx <= self._closed_through:
                self.dropped_weight += (
                    batch_weight / self.window.windows_per_event
                )
                if traces:
                    for trace in traces.pop(idx, []):
                        trace.drop()
                continue
            self.absorbed_weight += batch_weight / self.window.windows_per_event
            state = self._window_state.setdefault(idx, {})
            for key, acc in per_key.items():
                existing = state.get(key)
                if existing is None:
                    existing = WindowAccumulator()
                    state[key] = existing
                existing.merge(acc)
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
            contents = WindowContents(
                index=idx,
                end_time=self.window.window_end(idx),
                start_time=self.window.window_start(idx),
                by_key=self._window_state.pop(idx),
                traces=traces,
            )
            self.closed_weight += (
                contents.total_weight / self.window.windows_per_event
            )
            closed.append(contents)
            if self._closed_through is None or idx > self._closed_through:
                self._closed_through = idx
        return closed

    def stored_weight(self) -> float:
        return left_sum(
            acc.weight
            for per_key in self._window_state.values()
            for acc in per_key.values()
        )

    @property
    def open_window_count(self) -> int:
        return len(self._window_state)
