"""The record-at-a-time stores: the code that generated the goldens.

Moved verbatim from ``src/`` when the columnar representation became
the only production one: the stores (``operators/window.py``,
``join.py``, ``aggregate.py`` as of 6d71cc3), then the per-key
accumulator, the dict-shaped closed window, ``WindowCols.materialize``
and the dict merger (as of 0920fa1).  Each class subclasses its
production namesake *only* so that the engines' ``isinstance`` checks
(diagnostics keys) see the same type; every method, ``__init__`` and
``close`` included, is overridden here, so no store code is shared with
what it is compared against.  State is one :class:`WindowAccumulator`
per (window, key) in plain dicts; ledgers are scalar ``+=`` in record
order.

A window closes into a :class:`DictWindowContents` (``close_by_key`` /
``pop_ready_by_key``), whose window-level figures are the per-key dict
walks production replaced.  The engines' ``_close_window`` bodies are
production code and read columns, so ``close`` / ``pop_ready`` hand them
``DictWindowContents.columnar()``: the same numbers, copied out of the
dict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.core.batch import RecordBlock, left_sum
from repro.core.records import ADS, PURCHASES, Record
from repro.engines.operators.aggregate import (
    BatchPartialAggregator,
    WindowedPartialMerger,
)
from repro.engines.operators.join import ClosedJoinWindow, JoinWindowStore
from repro.engines.operators.window import KeyedWindowStore, WindowContents
from repro.workloads.queries import WindowSpec


def _record_at_a_time(self, block: RecordBlock) -> int:
    raise NotImplementedError(
        f"{type(self).__name__} is record-at-a-time: feed it add(record)"
    )


class WindowAccumulator:
    """Per-(window, key) running aggregate and latency anchors."""

    __slots__ = ("value", "weight", "max_event_time", "max_processing_time")

    def __init__(self) -> None:
        self.value = 0.0
        self.weight = 0.0
        self.max_event_time = float("-inf")
        self.max_processing_time = float("-inf")

    def add(self, record: Record) -> None:
        """Fold one record (cohort) into the accumulator.

        A cohort of weight ``w`` contributes ``w * value`` to the SUM --
        the cohort stands for ``w`` events each carrying ``value``.
        """
        self.value += record.value * record.weight
        self.weight += record.weight
        if record.event_time > self.max_event_time:
            self.max_event_time = record.event_time
        ingest = record.ingest_time
        if ingest is not None and ingest > self.max_processing_time:
            self.max_processing_time = ingest

    def merge(self, other: "WindowAccumulator") -> None:
        """Combine two partial accumulators (used by mini-batch partials)."""
        self.value += other.value
        self.weight += other.weight
        self.max_event_time = max(self.max_event_time, other.max_event_time)
        self.max_processing_time = max(
            self.max_processing_time, other.max_processing_time
        )

    def subtract(self, other: "WindowAccumulator") -> None:
        """Inverse-reduce: remove a partial that slid out of the window.

        Only the additive fields can be inverted; the max-time anchors
        are *not* restored (the real inverse-reduce has the same
        limitation, which is acceptable because evicted data is always
        older than retained data, so the maxima are unaffected).
        """
        self.value -= other.value
        self.weight -= other.weight

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowAccumulator(value={self.value:g}, weight={self.weight:g}, "
            f"max_event_time={self.max_event_time:g})"
        )


@dataclass
class DictWindowContents:
    """Everything known about one closed window."""

    index: int
    end_time: float
    start_time: float
    by_key: Dict[int, WindowAccumulator] = field(default_factory=dict)
    traces: List[object] = field(default_factory=list)
    """Lifecycle traces of sampled cohorts whose *first* open window was
    this one (observability; empty unless tracing is enabled)."""

    @property
    def total_weight(self) -> float:
        return left_sum(acc.weight for acc in self.by_key.values())

    @property
    def max_event_time(self) -> float:
        """Window-level maximum event-time (used by join outputs)."""
        if not self.by_key:
            return float("-inf")
        return max(acc.max_event_time for acc in self.by_key.values())

    @property
    def max_processing_time(self) -> float:
        if not self.by_key:
            return float("-inf")
        return max(acc.max_processing_time for acc in self.by_key.values())

    def columnar(self) -> WindowContents:
        """The production shape of this window: every number copied out
        of the dict, none recomputed by production code."""
        accs = list(self.by_key.values())
        return WindowContents(
            index=self.index,
            end_time=self.end_time,
            start_time=self.start_time,
            keys=np.array(list(self.by_key), dtype=np.int64),
            values=np.array([a.value for a in accs], dtype=np.float64),
            weights=np.array([a.weight for a in accs], dtype=np.float64),
            max_event_times=np.array(
                [a.max_event_time for a in accs], dtype=np.float64
            ),
            max_processing_times=np.array(
                [a.max_processing_time for a in accs], dtype=np.float64
            ),
            total_weight=self.total_weight,
            max_event_time=self.max_event_time,
            max_processing_time=self.max_processing_time,
            traces=self.traces,
        )


def materialize(contents: WindowContents) -> Dict[int, WindowAccumulator]:
    """Expand to a ``by_key`` dict of accumulators, in slot order."""
    by_key: Dict[int, WindowAccumulator] = {}
    n = len(contents.keys)
    keys = contents.keys
    values = contents.values
    weights = contents.weights
    max_et = contents.max_event_times
    max_pt = contents.max_processing_times
    for i in range(n):
        acc = WindowAccumulator()
        acc.value = float(values[i])
        acc.weight = float(weights[i])
        acc.max_event_time = float(max_et[i])
        acc.max_processing_time = float(max_pt[i])
        by_key[int(keys[i])] = acc
    return by_key


class OracleWindowStore(KeyedWindowStore):
    """Keyed sliding-window state for one stream.

    ``add`` folds a record into every window containing it.  ``close``
    pops a window once the caller's watermark passes its end.  The store
    never closes a window by itself -- *when* to close is an engine
    decision (ideal watermark for Flink/Storm, batch alignment for
    Spark).
    """

    def __init__(self, window: WindowSpec) -> None:
        self.window = window
        self._windows: Dict[int, Dict[int, WindowAccumulator]] = {}
        self._traces: Dict[int, List[object]] = {}
        self._closed_through: Optional[int] = None
        self.dropped_weight = 0.0
        """Weight of late contributions lost to already-closed windows
        (each record counts once per closed window it missed, normalised
        by the windows it spans -- so one fully-late record adds its own
        weight once)."""
        self.updates = 0
        """Count of per-window accumulator updates (cost accounting: an
        engine that cannot share aggregates across sliding windows pays
        one keyed update per window per record, as the paper notes for
        Flink)."""
        # Conservation ledger (all in event weight, each record counted
        # once -- per-window contributions are normalised by
        # windows_per_event).  Invariant at any point:
        #   admitted_weight == closed_weight
        #                      + stored_weight()/windows_per_event
        #                      + lost_weight
        # and admitted_weight + dropped_weight == weight ever added.
        self.admitted_weight = 0.0
        self.closed_weight = 0.0
        self.lost_weight = 0.0

    def add(self, record: Record) -> int:
        """Fold ``record`` into all windows containing it.

        Returns the number of per-window updates performed.  Records
        whose event-time falls entirely before already-closed windows
        are dropped (cannot happen with monotone watermarks and FIFO
        queues; guarded for safety).
        """
        first, last = self.window.window_index_range(record.event_time)
        updates = 0
        missed = 0
        first_open: Optional[int] = None
        for idx in range(first, last + 1):
            if self._closed_through is not None and idx <= self._closed_through:
                missed += 1
                continue
            if first_open is None:
                first_open = idx
            per_key = self._windows.get(idx)
            if per_key is None:
                per_key = {}
                self._windows[idx] = per_key
            acc = per_key.get(record.key)
            if acc is None:
                acc = WindowAccumulator()
                per_key[record.key] = acc
            acc.add(record)
            updates += 1
        if missed:
            self.dropped_weight += record.weight * (
                missed / self.window.windows_per_event
            )
        self.updates += updates
        self.admitted_weight += record.weight * (
            updates / self.window.windows_per_event
        )
        if record.trace is not None:
            # The trace waits in the *earliest* open window it landed in
            # (that window's close ends the event's buffering span);
            # fully-late records never emit, so their trace is dropped.
            if first_open is None:
                record.trace.drop()
            else:
                self._traces.setdefault(first_open, []).append(record.trace)
            record.trace = None
        return updates

    def ready_indices(self, watermark: float) -> List[int]:
        """Window indices whose end has passed ``watermark``, oldest first."""
        ready = [
            idx
            for idx in self._windows
            if self.window.window_end(idx) <= watermark
        ]
        return sorted(ready)

    def _pop_by_key(self, index: int) -> Dict[int, WindowAccumulator]:
        """Remove window ``index``; its per-key accumulators."""
        return self._windows.pop(index, {})

    def close(self, index: int, at_time: Optional[float] = None) -> WindowContents:
        return self.close_by_key(index, at_time=at_time).columnar()

    def close_by_key(
        self, index: int, at_time: Optional[float] = None
    ) -> DictWindowContents:
        """Pop a window's contents; further adds to it are ignored.

        ``at_time`` (the engine's clock at close) stamps the ``closed``
        mark on any traces buffered in this window.
        """
        per_key = self._pop_by_key(index)
        traces = self._traces.pop(index, [])
        if traces and at_time is not None:
            for trace in traces:
                trace.mark("closed", at_time)
        contents = DictWindowContents(
            index=index,
            end_time=self.window.window_end(index),
            start_time=self.window.window_start(index),
            by_key=per_key,
            traces=traces,
        )
        if self._closed_through is None or index > self._closed_through:
            self._closed_through = index
        # A record contributes its weight once per containing window; on
        # close, release this window's share of the buffered weight.
        released = contents.total_weight / self.window.windows_per_event
        self.closed_weight += released
        return contents

    @property
    def open_window_count(self) -> int:
        return len(self._windows)

    def open_indices(self) -> Iterator[int]:
        return iter(sorted(self._windows))

    def stored_weight(self) -> float:
        """Total event weight currently held across open windows.

        Counts each record once per containing window -- the quantity an
        engine that physically buffers tuples per window would hold.
        """
        return left_sum(
            acc.weight
            for per_key in self._windows.values()
            for acc in per_key.values()
        )

    def lose_fraction(self, fraction: float) -> float:
        """Discard a fraction of all open window contents.

        Models a worker-node failure taking its partition of every open
        window's state with it (engines without replay/checkpointing).
        Returns the weight lost.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        lost = 0.0
        keep = 1.0 - fraction
        for per_key in self._windows.values():
            for acc in per_key.values():
                lost += acc.weight * fraction
                acc.weight *= keep
                acc.value *= keep
        self.lost_weight += lost / self.window.windows_per_event
        return lost

    add_block = _record_at_a_time


class OracleJoinStore(JoinWindowStore):
    """Two keyed window stores, one per input stream."""

    def __init__(self, window: WindowSpec) -> None:
        self.window = window
        self.purchases = OracleWindowStore(window)
        self.ads = OracleWindowStore(window)

    def add(self, record: Record) -> int:
        """Route a record to its side's store; returns keyed updates."""
        if record.stream == PURCHASES:
            return self.purchases.add(record)
        if record.stream == ADS:
            return self.ads.add(record)
        raise ValueError(f"record from unknown stream {record.stream!r}")

    def ready_indices(self, watermark: float) -> List[int]:
        """Windows complete on *both* sides at the given watermark."""
        ready = set(self.purchases.ready_indices(watermark))
        ready |= set(self.ads.ready_indices(watermark))
        return sorted(ready)

    def close(self, index: int, at_time=None) -> "ClosedJoinWindow":
        return ClosedJoinWindow(
            index=index,
            purchases=self.purchases.close(index, at_time=at_time),
            ads=self.ads.close(index, at_time=at_time),
        )

    def close_by_key(self, index: int, at_time=None) -> "ClosedJoinWindow":
        return ClosedJoinWindow(
            index=index,
            purchases=self.purchases.close_by_key(index, at_time=at_time),
            ads=self.ads.close_by_key(index, at_time=at_time),
        )

    def stored_weight(self) -> float:
        """Total buffered event weight across both build sides."""
        return self.purchases.stored_weight() + self.ads.stored_weight()

    def lose_fraction(self, fraction: float) -> float:
        """Discard a fraction of both sides' open window contents."""
        return self.purchases.lose_fraction(fraction) + self.ads.lose_fraction(
            fraction
        )

    add_block = _record_at_a_time


class OracleBatchPartials(BatchPartialAggregator):
    """Per-mini-batch partial aggregation (Spark's reduceByKey stage).

    Records arriving during one batch interval are folded into per-key
    partials *per window index* (a record spans ``windows_per_event``
    windows).  At batch end the partials are handed to the window state
    of the job, and the partial store resets for the next batch.
    """

    def __init__(self, window: WindowSpec) -> None:
        self.window = window
        self._partials: Dict[int, Dict[int, WindowAccumulator]] = {}
        self._traces: Dict[int, List] = {}
        self.batch_weight = 0.0

    def add(self, record: Record) -> int:
        first, last = self.window.window_index_range(record.event_time)
        updates = 0
        for idx in range(first, last + 1):
            per_key = self._partials.setdefault(idx, {})
            acc = per_key.get(record.key)
            if acc is None:
                acc = WindowAccumulator()
                per_key[record.key] = acc
            acc.add(record)
            updates += 1
        self.batch_weight += record.weight
        if record.trace is not None:
            # Same earliest-open-window rule as KeyedWindowStore; the
            # partial aggregator never closes windows itself, so the
            # earliest containing window is simply `first`.
            self._traces.setdefault(first, []).append(record.trace)
            record.trace = None
        return updates

    def drain(self) -> Dict[int, Dict[int, WindowAccumulator]]:
        """Hand the batch's partials to the job and reset."""
        partials = self._partials
        self._partials = {}
        self.batch_weight = 0.0
        return partials

    def drain_traces(self) -> Dict[int, List]:
        """Hand the batch's stashed traces to the job and reset."""
        traces = self._traces
        self._traces = {}
        return traces

    add_block = _record_at_a_time


class OraclePartialMerger(WindowedPartialMerger):
    """Merges mini-batch partials into full window results.

    This is the Spark window operator: window results are assembled from
    the partial aggregates of the batches spanning the window, one
    ``WindowAccumulator.merge`` per (window, key) of each partial.
    """

    def __init__(self, window: WindowSpec) -> None:
        self.window = window
        self._window_state: Dict[int, Dict[int, WindowAccumulator]] = {}
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
            self.admitted_weight += batch_weight / self.window.windows_per_event
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
        return [
            contents.columnar()
            for contents in self.pop_ready_by_key(through_end_time, at_time)
        ]

    def pop_ready_by_key(
        self, through_end_time: float, at_time: Optional[float] = None
    ) -> List[DictWindowContents]:
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
            contents = DictWindowContents(
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
