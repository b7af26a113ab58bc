"""Sliding-window assignment and the keyed window store.

This module implements the latency-defining semantics of the paper:

- **Window assignment**: window ``i`` covers the event-time interval
  ``(i*slide - size, i*slide]`` (Figure 1's "(5, 605]" window).  Each
  event belongs to ``ceil(size/slide)`` consecutive windows.
- **Definition 3** (event-time of windowed events): a windowed output's
  event-time is the *maximum event-time of all events that contributed
  to that output* -- for a grouped aggregation, the maximum over the
  output key's events in that window.
- **Definition 4** (processing-time of windowed events): same maximum,
  over the contributing events' ingest times.

The store accumulates a SUM per (window, key) on the fly; engines that
buffer raw tuples instead of aggregating incrementally (Storm) use the
same store for semantics but account memory per buffered event and pay a
bulk evaluation cost at close time (see the engine models).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.batch import left_sum
from repro.core.records import Record
from repro.workloads.queries import WindowSpec


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
class WindowContents:
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


class KeyedWindowStore:
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
