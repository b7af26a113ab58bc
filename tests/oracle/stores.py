"""The record-at-a-time stores: the code that generated the goldens.

Moved verbatim from ``src/`` (``operators/window.py``, ``join.py``,
``aggregate.py`` as of 6d71cc3) when the columnar stores became the
only production stores.  Each class subclasses its production namesake
*only* so that the engines' ``isinstance`` checks (diagnostics keys)
see the same type; every method, ``__init__`` and ``close`` included, is
overridden here, so no store code is shared with what it is compared
against.  State is one ``WindowAccumulator`` per (window, key) in plain
dicts; ledgers are scalar ``+=`` in record order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from repro.core.batch import RecordBlock, left_sum
from repro.core.records import ADS, PURCHASES, Record
from repro.engines.operators.aggregate import BatchPartialAggregator
from repro.engines.operators.join import ClosedJoinWindow, JoinWindowStore
from repro.engines.operators.window import (
    KeyedWindowStore,
    WindowAccumulator,
    WindowContents,
)
from repro.workloads.queries import WindowSpec


def _record_at_a_time(self, block: RecordBlock) -> int:
    raise NotImplementedError(
        f"{type(self).__name__} is record-at-a-time: feed it add(record)"
    )


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
        """Pop a window's contents; further adds to it are ignored.

        ``at_time`` (the engine's clock at close) stamps the ``closed``
        mark on any traces buffered in this window.
        """
        per_key = self._pop_by_key(index)
        traces = self._traces.pop(index, [])
        if traces and at_time is not None:
            for trace in traces:
                trace.mark("closed", at_time)
        contents = WindowContents(
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
