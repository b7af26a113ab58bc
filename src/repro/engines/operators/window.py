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

State is columnar from ``add_block`` to the sink: one
:class:`WindowCols` per open window holds the per-key accumulators as
slot arrays, a block of cohorts is one ``+=`` per column (block keys
are unique, so every slot gets exactly one IEEE add per block), the
ledgers advance by strict left folds over the cohort weights
(:func:`repro.core.batch.fold_add`), and a closed window
(:class:`WindowContents`) *is* its trimmed columns.  The numbers are
those of the record-at-a-time fold in cohort order, bit for bit -- the
reference in ``tests/oracle`` is that fold over a dict of per-key
accumulators, and the conformance goldens were generated by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from repro.core.batch import (
    OwedSum,
    RecordBlock,
    as_block,
    fold_add,
    owed_ledger,
)
from repro.core.records import Record
from repro.workloads.queries import WindowSpec

#: Entries the run fold table holds before it starts over.  Each entry
#: holds its (keys, weights) pair; a constant-rate trial's entries share
#: one or two pairs.
RUN_FOLDS_SIZE = 1024
#: ``(count, start) -> ((keys, weights), fold)``: the fold from ``start``
#: of the weights column that ``count`` writes of one whole read-only
#: pair leave in a fresh window (a -0.0 start keys as ``-count``).
_run_folds: Dict[tuple, tuple] = {}


@dataclass
class WindowContents:
    """Everything known about one closed window.

    The five columns are parallel, one entry per key, in key first-touch
    order -- the order the sink sees the window's outputs in.  The three
    window-level figures are computed once, when the window closes
    (:func:`close_window`).
    """

    index: int
    end_time: float
    start_time: float
    keys: np.ndarray
    values: np.ndarray
    weights: np.ndarray
    max_event_times: np.ndarray
    max_processing_times: np.ndarray
    total_weight: float
    """Strict left fold of ``weights``.  An empty window folds to the
    builtin ``sum``'s int ``0`` (it serialises as ``0``)."""
    max_event_time: float
    """Window-level maximum event-time (used by join outputs); ``-inf``
    for an empty window, like ``max_processing_time``."""
    max_processing_time: float
    traces: List[object] = field(default_factory=list)
    """Lifecycle traces of sampled cohorts whose *first* open window was
    this one (observability; empty unless tracing is enabled)."""


class WindowCols:
    """Column arrays for one window: per-key accumulators in slot form.

    Slots are assigned in key first-touch order -- the insertion order
    of a per-key dict -- so a closed window lists its keys, and every
    left fold over it sums, in that order.  The key -> slot table
    is direct-addressed and sized by the largest key seen, which makes
    the lookup one fancy index: workload keys are ``[0, num_keys)``, so
    it stays compact, but a key of 10**9 would allocate 8 GB per window
    and a negative key is rejected (it would wrap to another key's
    slot).

    ``version`` counts the writes to the columns (``add_cohorts``,
    ``lose_fraction_fold``, ``merge``; the columns are written nowhere
    else), so :meth:`weight_fold` can hand back its last fold while
    nothing has changed.

    A window whose every write so far was ``add_cohorts`` of one whole
    (not a view), read-only ``(keys, weights)`` pair -- a catalog and
    one emitted column -- holds ``count`` times those weights, added
    in the same order: its weights column is a pure function of
    ``(pair, count)``.  While that run lasts, :meth:`weight_fold` looks
    its folds up by content in one module-level table shared by every
    window (twin join sides, and the windows of a constant rate, which
    hold at age *a* what the window before held at age *a*).  Any
    other write ends the run for the rest of the window's life.

    A slot run's maxima are owed: a write addressed as a slice keeps
    one pending event-time and one pending ingest-time maximum per
    (start, stop) span, and :attr:`max_et` / :attr:`max_pt` apply them
    when read (by :func:`close_window` and :meth:`merge`).  A maximum
    of times (never NaN, never ``-0.0``) is exact in any order, so
    scalar and gather writes in between may go straight to the columns.
    """

    __slots__ = (
        "n", "keys", "values", "weights", "_max_et", "_max_pt", "_owed_max",
        "_slot_table", "_run_keys", "_run_start", "version", "_fold_version",
        "_fold_start", "_fold_result", "_pair", "_count",
    )

    def __init__(self, key_space_hint: int = 64) -> None:
        self.n = 0
        cap = max(1, key_space_hint)
        self.keys = np.zeros(cap, dtype=np.int64)
        self.values = np.zeros(cap)
        self.weights = np.zeros(cap)
        self._max_et = np.full(cap, float("-inf"))
        self._max_pt = np.full(cap, float("-inf"))
        # (start, stop) -> [event-time max, ingest-time max] not yet
        # applied to that slot run of the two columns above.
        self._owed_max: Dict[tuple, list] = {}
        self._slot_table = np.full(cap, -1, dtype=np.int64)
        # The key catalog (a whole array, never a view) found to occupy
        # the consecutive slots _run_start.. in catalog order.
        self._run_keys: Optional[np.ndarray] = None
        self._run_start = 0
        self.version = 0
        # The last weight_fold: the version and start it folded at.
        self._fold_version = -1
        self._fold_start = 0.0
        self._fold_result = 0.0
        # The run's (keys, weights) pair and its length in writes; -1
        # once a write other than that pair has ended it.
        self._pair: Optional[tuple] = None
        self._count = 0

    @property
    def max_et(self) -> np.ndarray:
        """Per-slot maximum event time, owed maxima applied."""
        if self._owed_max:
            self._settle_maxima()
        return self._max_et

    @property
    def max_pt(self) -> np.ndarray:
        """Per-slot maximum ingest time, owed maxima applied."""
        if self._owed_max:
            self._settle_maxima()
        return self._max_pt

    def _settle_maxima(self) -> None:
        never = float("-inf")
        for (start, stop), (event_time, ingest_time) in self._owed_max.items():
            column = self._max_et[start:stop]
            np.maximum(column, event_time, out=column)
            if ingest_time > never:
                column = self._max_pt[start:stop]
                np.maximum(column, ingest_time, out=column)
        self._owed_max = {}

    def _ensure_key_space(self, max_key: int) -> None:
        if max_key < len(self._slot_table):
            return
        grown = np.full(max(max_key + 1, 2 * len(self._slot_table)), -1,
                        dtype=np.int64)
        grown[: len(self._slot_table)] = self._slot_table
        self._slot_table = grown

    def _ensure_capacity(self, needed: int) -> None:
        cap = len(self.keys)
        if needed <= cap:
            return
        new_cap = cap
        while new_cap < needed:
            new_cap *= 2
        for name in ("keys", "values", "weights", "_max_et", "_max_pt"):
            old = getattr(self, name)
            fill = float("-inf") if name in ("_max_et", "_max_pt") else 0
            grown = np.full(new_cap, fill, dtype=old.dtype)
            grown[: cap] = old
            setattr(self, name, grown)

    def _locate(self, keys: np.ndarray) -> Union[slice, int, np.ndarray]:
        """Where a block's cohorts accumulate: a slot run, one slot, or
        slot indices.

        Blocks carry their generator's key catalog by reference -- whole,
        or as a contiguous view of it after a split -- and after first
        touch a catalog's keys sit on consecutive slots in catalog
        order.  Once a whole catalog has been seen to do so it is
        remembered by identity, and every later block over it is
        addressed as a slice: no table gather, no scatter.  A single
        cohort whose key already has a slot (a split remainder, a record
        added on its own) is addressed by that one slot.  Everything
        else (first touch, permuted or foreign key arrays, strided
        views) takes the gather path, which also assigns slots to new
        keys.
        """
        base = keys.base
        if base is None:
            if keys is self._run_keys:
                return slice(self._run_start, self._run_start + len(keys))
        elif base is self._run_keys and keys.flags.c_contiguous:
            start = int(self._slot_table[keys[0]])
            return slice(start, start + len(keys))
        if len(keys) == 1:
            key = int(keys[0])
            if 0 <= key < len(self._slot_table):
                slot = int(self._slot_table[key])
                if slot >= 0:
                    return slot
        lowest = int(keys.min())
        if lowest < 0:
            raise ValueError(f"keys must be non-negative, got {lowest}")
        self._ensure_key_space(int(keys.max()))
        slots = self._slot_table[keys]
        fresh = np.nonzero(slots == -1)[0]
        if len(fresh):
            count = len(fresh)
            self._ensure_capacity(self.n + count)
            new_slots = np.arange(self.n, self.n + count, dtype=np.int64)
            new_keys = keys[fresh]
            self._slot_table[new_keys] = new_slots
            self.keys[self.n : self.n + count] = new_keys
            # New accumulators start at (0, 0, -inf, -inf).
            self.values[new_slots] = 0.0
            self.weights[new_slots] = 0.0
            self._max_et[new_slots] = float("-inf")
            self._max_pt[new_slots] = float("-inf")
            self.n += count
            slots[fresh] = new_slots
        if self._run_keys is None and base is None and len(keys) > 1:
            start = int(slots[0])
            if int(slots[-1]) - start == len(keys) - 1 and np.array_equal(
                slots, np.arange(start, start + len(keys))
            ):
                self._run_keys = keys
                self._run_start = start
        return slots

    def add_cohorts(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        products: Optional[np.ndarray],
        event_time: float,
        ingest_time: Optional[float],
    ) -> None:
        """Fold one block's cohorts into this window's accumulators.

        ``products`` is the block's ``value * weights``, computed once
        for all of its windows, or None when the value is ``0.0``:
        adding ``+0.0`` leaves every value as it is, since the values
        column starts at ``+0.0`` and never holds ``-0.0``.

        Bitwise equal to ``for each cohort: acc.add(record)`` because
        keys are unique within a block: every slot gets exactly one add
        and one max, whether it is addressed through a slice, a scalar
        index or an index array.
        """
        if len(keys) == 0:
            return
        self.version += 1
        pair = self._pair
        if pair is not None and keys is pair[0] and weights is pair[1]:
            self._count += 1
        elif (
            self._count == 0
            and keys.base is None
            and weights.base is None
            and not keys.flags.writeable
            and not weights.flags.writeable
        ):
            self._pair = (keys, weights)
            self._count = 1
        else:
            self._end_run()
        at = self._locate(keys)
        if isinstance(at, int):
            # One cohort on a known slot: scalar reads and writes instead
            # of a one-element gather/scatter (19.5 -> 7.1 us per record
            # added on its own, two windows each).
            if products is not None:
                self.values[at] += products[0]
            self.weights[at] += weights[0]
            if event_time > self._max_et[at]:
                self._max_et[at] = event_time
            if ingest_time is not None and ingest_time > self._max_pt[at]:
                self._max_pt[at] = ingest_time
            return
        if isinstance(at, slice):
            # A slot run: update the column views in place -- no gather,
            # no temporary, no scatter-copy -- and owe the maxima.
            if products is not None:
                values = self.values[at]
                values += products
            held = self.weights[at]
            held += weights
            span = (at.start, at.stop)
            owed = self._owed_max.get(span)
            if owed is None:
                self._owed_max[span] = [
                    event_time,
                    float("-inf") if ingest_time is None else ingest_time,
                ]
                return
            if event_time > owed[0]:
                owed[0] = event_time
            if ingest_time is not None and ingest_time > owed[1]:
                owed[1] = ingest_time
            return
        if products is not None:
            self.values[at] += products
        self.weights[at] += weights
        self._max_et[at] = np.maximum(self._max_et[at], event_time)
        if ingest_time is not None:
            self._max_pt[at] = np.maximum(self._max_pt[at], ingest_time)

    def lose_fraction_fold(self, lost: float, fraction: float) -> float:
        """Scale every accumulator by ``1 - fraction``; fold the loss.

        One multiply per accumulator; the loss is folded in slot
        (== insertion) order.
        """
        n = self.n
        if n == 0:
            return lost
        self.version += 1
        self._end_run()
        keep = 1.0 - fraction
        lost = fold_add(lost, self.weights[:n] * fraction)
        self.weights[:n] *= keep
        self.values[:n] *= keep
        return lost

    def merge(self, other: "WindowCols") -> None:
        """Fold another window's accumulators into this one, key by key.

        ``other``'s keys are unique, so every slot gets exactly one add
        and one max per column; keys new to this window take the next
        slots, in ``other``'s slot order.
        """
        n = other.n
        if n == 0:
            return
        self.version += 1
        self._end_run()
        at = self._locate(other.keys[:n])
        if isinstance(at, int):
            at = slice(at, at + 1)
        self.values[at] += other.values[:n]
        self.weights[at] += other.weights[:n]
        # This window's own owed maxima may stay owed: max is exact in
        # any order.
        self._max_et[at] = np.maximum(self._max_et[at], other.max_et[:n])
        self._max_pt[at] = np.maximum(self._max_pt[at], other.max_pt[:n])

    def _end_run(self) -> None:
        self._pair = None
        self._count = -1

    def weight_fold(self, start: float) -> float:
        """``fold_add(start, weights)``: the strict left fold of the
        weights in slot order, chained on ``start``.

        During a run the fold is looked up by ``(pair, count, start)``
        in the run fold table, and an entry answers only for the very
        arrays it holds.  Otherwise it is folded once per change: while
        ``version`` and ``start`` are those of the last call, the last
        result is the same fold over the same bytes, and is returned as
        it is.  Either way the two zeros are different starts.
        """
        pair = self._pair
        if pair is not None:
            count = self._count
            if start == 0.0 and math.copysign(1.0, start) < 0.0:
                count = -count
            key = (count, start)
            hit = _run_folds.get(key)
            if hit is not None:
                held = hit[0]
                if held[0] is pair[0] and held[1] is pair[1]:
                    return hit[1]
            result = fold_add(start, self.weights[: self.n])
            if len(_run_folds) >= RUN_FOLDS_SIZE:
                _run_folds.clear()
            _run_folds[key] = (pair, result)
            return result
        last = self._fold_start
        if (
            self._fold_version == self.version
            and start == last
            and (start != 0.0 or math.copysign(1.0, start)
                 == math.copysign(1.0, last))
        ):
            return self._fold_result
        result = fold_add(start, self.weights[: self.n])
        self._fold_version = self.version
        self._fold_start = start
        self._fold_result = result
        return result

    def total_weight(self) -> float:
        """Strict left fold of the weights, in slot order."""
        return self.weight_fold(0.0)


def block_products(block: RecordBlock) -> Optional[np.ndarray]:
    """``value * weights`` of a block, once for all of its windows, or
    None for a value of ``0.0`` (the ads stream), whose products would
    leave every value as it is (:meth:`WindowCols.add_cohorts`)."""
    if block.value == 0.0:
        return None
    return block.value * block.weights


def chained_weight(windows: Iterable[WindowCols]) -> float:
    """Weight held across ``windows``: one chained strict left fold over
    (window order, slot order), each window folded once per change."""
    total = 0.0
    for cols in windows:
        total = cols.weight_fold(total)
    return total


def close_window(
    window: WindowSpec,
    index: int,
    cols: Optional[WindowCols],
    traces: List[object],
) -> WindowContents:
    """Window ``index`` as closed contents: ``cols`` trimmed to its slots.

    ``cols`` is ``None`` for a window that never opened, and must not be
    written to afterwards -- the contents' columns are views of its
    arrays.
    """
    if cols is None:
        cols = WindowCols(1)
    n = cols.n
    max_event_times, max_processing_times = cols.max_et[:n], cols.max_pt[:n]
    never = float("-inf")
    return WindowContents(
        index=index,
        end_time=window.window_end(index),
        start_time=window.window_start(index),
        keys=cols.keys[:n],
        values=cols.values[:n],
        weights=cols.weights[:n],
        max_event_times=max_event_times,
        max_processing_times=max_processing_times,
        total_weight=cols.total_weight() if n else 0,
        max_event_time=float(max_event_times.max(initial=never)),
        max_processing_time=float(max_processing_times.max(initial=never)),
        traces=traces,
    )


class KeyedWindowStore:
    """Keyed sliding-window state for one stream.

    ``add_block`` folds a block of cohorts into every window containing
    its event time (``add`` is the block-of-one case).  ``close`` pops a
    window once the caller's watermark passes its end.  The store never
    closes a window by itself -- *when* to close is an engine decision
    (ideal watermark for Flink/Storm, batch alignment for Spark).
    """

    admitted_weight = owed_ledger(
        "admitted",
        "Weight folded into open windows, normalised by windows_per_event "
        "(folded when read: only the conservation ledger reads it).",
    )

    def __init__(self, window: WindowSpec, key_space_hint: int = 64) -> None:
        self.window = window
        self._key_space_hint = key_space_hint
        self._windows: Dict[int, WindowCols] = {}
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
        self._admitted = OwedSum()
        self.closed_weight = 0.0
        self.lost_weight = 0.0

    def add(self, record: Record) -> int:
        """Fold one record in: :meth:`add_block` over a block of one."""
        return self.add_block(as_block(record))

    def add_block(self, block: RecordBlock) -> int:
        """Fold a block into all windows containing its event time.

        Returns the number of per-window updates performed.  Cohorts of
        one block share an event time, so the window range, missed count
        and first-open window are computed once and the ledger folds run
        over the cohort weights in order.  Contributions to
        already-closed windows are dropped (cannot happen with monotone
        watermarks and FIFO queues; guarded for safety).
        """
        n_cohorts = len(block)
        if n_cohorts == 0:
            return 0
        first, last = self.window.window_index_range(block.event_time)
        products = block_products(block)
        updates_per = 0
        missed = 0
        first_open: Optional[int] = None
        for idx in range(first, last + 1):
            if self._closed_through is not None and idx <= self._closed_through:
                missed += 1
                continue
            if first_open is None:
                first_open = idx
            cols = self._windows.get(idx)
            if cols is None:
                cols = WindowCols(self._key_space_hint)
                self._windows[idx] = cols
            cols.add_cohorts(
                block.keys,
                block.weights,
                products,
                block.event_time,
                block.ingest_time,
            )
            updates_per += 1
        if missed:
            self.dropped_weight = fold_add(
                self.dropped_weight,
                block.weights * (missed / self.window.windows_per_event),
            )
        self.updates += updates_per * n_cohorts
        if updates_per:
            # Per cohort the ledger takes w * (updates/wpe); with zero
            # updates that is `+= 0.0` -- an exact no-op for the
            # non-negative ledger, so it is safe to skip.  So is a share
            # of exactly 1.0 (no window already closed): w * 1.0 == w
            # bit for bit.
            share = updates_per / self.window.windows_per_event
            self._admitted.owe(
                block.weights if share == 1.0 else block.weights * share
            )
        if block.traces:
            # A trace waits in the *earliest* open window it landed in
            # (that window's close ends the event's buffering span);
            # fully-late cohorts never emit, so their trace is dropped.
            for _, trace in block.traces:
                if first_open is None:
                    trace.drop()
                else:
                    self._traces.setdefault(first_open, []).append(trace)
            block.traces = []
        return updates_per * n_cohorts

    def ready_indices(self, watermark: float) -> List[int]:
        """Window indices whose end has passed ``watermark``, oldest first."""
        ready = [
            idx
            for idx in self._windows
            if self.window.window_end(idx) <= watermark
        ]
        return sorted(ready)

    def close(self, index: int, at_time: Optional[float] = None) -> WindowContents:
        """Pop a window's contents; further adds to it are ignored.

        ``at_time`` (the engine's clock at close) stamps the ``closed``
        mark on any traces buffered in this window.
        """
        cols = self._windows.pop(index, None)
        traces = self._traces.pop(index, [])
        if traces and at_time is not None:
            for trace in traces:
                trace.mark("closed", at_time)
        contents = close_window(self.window, index, cols, traces)
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
        One chained strict left fold over (window insertion order, key
        insertion order).
        """
        return chained_weight(self._windows.values())

    def lose_fraction(self, fraction: float) -> float:
        """Discard a fraction of all open window contents.

        Models a worker-node failure taking its partition of every open
        window's state with it (engines without replay/checkpointing).
        Returns the weight lost.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        lost = 0.0
        for cols in self._windows.values():
            lost = cols.lose_fraction_fold(lost, fraction)
        self.lost_weight += lost / self.window.windows_per_event
        return lost
