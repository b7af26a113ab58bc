"""Columnar window/join/partial stores for the vectorized hot path.

Each class here is the block-at-a-time twin of a scalar store in
:mod:`repro.engines.operators.window` / ``join`` / ``aggregate``, and
*subclasses* it so that ``isinstance`` checks, ledger attributes and the
non-hot-path methods (``ready_indices``, ``open_indices``, conservation
reads) are inherited unchanged.  Only the per-record loops are replaced.

The replacement is bitwise, not approximate (see
:mod:`repro.core.batch` for why that is required and which NumPy ops
qualify):

- A :class:`_WindowCols` keeps one *slot* per key in **first-touch
  order** -- exactly the insertion order of the scalar per-key dict --
  so materialized ``by_key`` dicts iterate identically and every
  left-fold over them (``WindowContents.total_weight``,
  ``stored_weight``, join key matching) reproduces the scalar fold.
- Accumulator updates use one ``+=`` per block -- over a slot slice
  when the block's key catalog is known to sit on consecutive slots,
  over a slot index array otherwise; block keys are unique, so either
  way each slot receives exactly one IEEE add per block, the same add
  the scalar ``acc.value += value * weight`` performed.
- Ledgers advance by strict left folds (``fold_add``) over the block's
  cohort weights, in cohort order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

import numpy as np

from repro.core.batch import RecordBlock, as_block, fold_add
from repro.core.records import ADS, PURCHASES, Record
from repro.engines.operators.aggregate import BatchPartialAggregator
from repro.engines.operators.join import JoinWindowStore
from repro.engines.operators.window import KeyedWindowStore, WindowAccumulator
from repro.workloads.queries import WindowSpec


class _WindowCols:
    """Column arrays for one window: per-key accumulators in slot form.

    Slots are assigned in key first-touch order, mirroring the scalar
    per-key dict's insertion order.  A direct-address table (key ->
    slot) makes the lookup one fancy index; keys are dense small ints
    from the workload's key distribution, so the table stays compact.
    """

    __slots__ = (
        "n", "keys", "values", "weights", "max_et", "max_pt", "_slot_table",
        "_run_keys", "_run_start",
    )

    def __init__(self, key_space_hint: int = 64) -> None:
        self.n = 0
        cap = max(1, key_space_hint)
        self.keys = np.zeros(cap, dtype=np.int64)
        self.values = np.zeros(cap)
        self.weights = np.zeros(cap)
        self.max_et = np.full(cap, float("-inf"))
        self.max_pt = np.full(cap, float("-inf"))
        self._slot_table = np.full(cap, -1, dtype=np.int64)
        # The key catalog (a whole array, never a view) found to occupy
        # the consecutive slots _run_start.. in catalog order.
        self._run_keys: Optional[np.ndarray] = None
        self._run_start = 0

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
        for name in ("keys", "values", "weights", "max_et", "max_pt"):
            old = getattr(self, name)
            fill = float("-inf") if name in ("max_et", "max_pt") else 0
            grown = np.full(new_cap, fill, dtype=old.dtype)
            grown[: cap] = old
            setattr(self, name, grown)

    def _locate(self, keys: np.ndarray) -> Union[slice, np.ndarray]:
        """Where a block's cohorts accumulate: a slot run or slot indices.

        Blocks carry their generator's key catalog by reference -- whole,
        or as a contiguous view of it after a split -- and after first
        touch a catalog's keys sit on consecutive slots in catalog
        order.  Once a whole catalog has been seen to do so it is
        remembered by identity, and every later block over it is
        addressed as a slice: no table gather, no scatter.  Everything
        else (first touch, permuted or foreign key arrays, strided
        views, single cohorts) takes the gather path, which also assigns
        slots to new keys.
        """
        base = keys.base
        if base is None:
            if keys is self._run_keys:
                return slice(self._run_start, self._run_start + len(keys))
        elif base is self._run_keys and keys.flags.c_contiguous:
            start = int(self._slot_table[keys[0]])
            return slice(start, start + len(keys))
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
            # New accumulators start at the scalar defaults (0, 0, -inf).
            self.values[new_slots] = 0.0
            self.weights[new_slots] = 0.0
            self.max_et[new_slots] = float("-inf")
            self.max_pt[new_slots] = float("-inf")
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
        value: float,
        event_time: float,
        ingest_time: Optional[float],
    ) -> None:
        """Fold one block's cohorts into this window's accumulators.

        Bitwise equal to ``for each cohort: acc.add(record)`` because
        keys are unique within a block: every slot gets exactly one add
        and one max, whether it is addressed through a slice or through
        an index array.
        """
        if len(keys) == 0:
            return
        at = self._locate(keys)
        if isinstance(at, slice):
            # A slot run: update the column views in place -- no gather,
            # no temporary, no scatter-copy.
            values, held = self.values[at], self.weights[at]
            values += value * weights
            held += weights
            max_et = self.max_et[at]
            np.maximum(max_et, event_time, out=max_et)
            if ingest_time is not None:
                max_pt = self.max_pt[at]
                np.maximum(max_pt, ingest_time, out=max_pt)
            return
        self.values[at] += value * weights
        self.weights[at] += weights
        self.max_et[at] = np.maximum(self.max_et[at], event_time)
        if ingest_time is not None:
            self.max_pt[at] = np.maximum(self.max_pt[at], ingest_time)

    def lose_fraction_fold(self, lost: float, fraction: float) -> float:
        """Scale every accumulator by ``1 - fraction``; fold the loss.

        Same per-accumulator operations, in slot (== insertion) order,
        as the scalar ``lose_fraction`` inner loop.
        """
        n = self.n
        if n == 0:
            return lost
        keep = 1.0 - fraction
        lost = fold_add(lost, self.weights[:n] * fraction)
        self.weights[:n] *= keep
        self.values[:n] *= keep
        return lost

    def materialize(self) -> Dict[int, WindowAccumulator]:
        """Expand to the scalar ``by_key`` dict, in slot order."""
        by_key: Dict[int, WindowAccumulator] = {}
        n = self.n
        keys = self.keys
        values = self.values
        weights = self.weights
        max_et = self.max_et
        max_pt = self.max_pt
        for i in range(n):
            acc = WindowAccumulator()
            acc.value = float(values[i])
            acc.weight = float(weights[i])
            acc.max_event_time = float(max_et[i])
            acc.max_processing_time = float(max_pt[i])
            by_key[int(keys[i])] = acc
        return by_key


class ColumnarWindowStore(KeyedWindowStore):
    """Block-at-a-time :class:`KeyedWindowStore` (bitwise twin).

    ``_windows`` maps window index to :class:`_WindowCols` instead of a
    per-key dict; ``ready_indices``/``open_indices``/``close``/ledger
    attributes are inherited.  A closing window is materialized to the
    scalar representation, so output assembly is shared with that path.
    """

    def __init__(self, window: WindowSpec, key_space_hint: int = 64) -> None:
        super().__init__(window)
        self._key_space_hint = key_space_hint

    def add(self, record: Record) -> int:
        return self.add_block(as_block(record))

    def add_block(self, block: RecordBlock) -> int:
        """Fold a block into all windows containing its event time.

        The scalar equivalent is ``for each cohort: self.add(record)``;
        cohorts of one block share an event time, so the window range,
        missed count and first-open window are computed once and the
        ledger folds run over the cohort weights in order.
        """
        n_cohorts = len(block)
        if n_cohorts == 0:
            return 0
        first, last = self.window.window_index_range(block.event_time)
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
                cols = _WindowCols(self._key_space_hint)
                self._windows[idx] = cols
            cols.add_cohorts(
                block.keys,
                block.weights,
                block.value,
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
            # Scalar adds w * (updates/wpe) per cohort unconditionally,
            # but with zero updates that is `+= 0.0` -- an exact no-op
            # for the non-negative ledger, so it is safe to skip.  So is
            # a share of exactly 1.0 (no window already closed): w * 1.0
            # == w bit for bit.
            share = updates_per / self.window.windows_per_event
            self.admitted_weight = fold_add(
                self.admitted_weight,
                block.weights if share == 1.0 else block.weights * share,
            )
        if block.traces:
            for _, trace in block.traces:
                if first_open is None:
                    trace.drop()
                else:
                    self._traces.setdefault(first_open, []).append(trace)
            block.traces = []
        return updates_per * n_cohorts

    def _pop_by_key(self, index: int) -> Dict[int, WindowAccumulator]:
        cols = self._windows.pop(index, None)
        return cols.materialize() if cols is not None else {}

    def stored_weight(self) -> float:
        # Scalar: builtin sum over (window insertion order, key
        # insertion order) -- the same chained strict left fold.
        total = 0.0
        for cols in self._windows.values():
            total = fold_add(total, cols.weights[: cols.n])
        return total

    def lose_fraction(self, fraction: float) -> float:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        lost = 0.0
        for cols in self._windows.values():
            lost = cols.lose_fraction_fold(lost, fraction)
        self.lost_weight += lost / self.window.windows_per_event
        return lost


class ColumnarJoinStore(JoinWindowStore):
    """Block-at-a-time :class:`JoinWindowStore`: columnar per side.

    ``ready_indices``/``close``/``stored_weight``/``lose_fraction``
    delegate to the sides and are inherited unchanged.
    """

    def __init__(self, window: WindowSpec, key_space_hint: int = 64) -> None:
        super().__init__(window)
        self.purchases = ColumnarWindowStore(window, key_space_hint)
        self.ads = ColumnarWindowStore(window, key_space_hint)

    def add_block(self, block: RecordBlock) -> int:
        if block.stream == PURCHASES:
            return self.purchases.add_block(block)
        if block.stream == ADS:
            return self.ads.add_block(block)
        raise ValueError(f"block from unknown stream {block.stream!r}")


class ColumnarBatchPartials(BatchPartialAggregator):
    """Block-at-a-time :class:`BatchPartialAggregator` (Spark batches).

    Accumulates into :class:`_WindowCols` during the batch and
    materializes the scalar partials dict at :meth:`drain`, so the
    (scalar) :class:`WindowedPartialMerger` absorbs byte-identical
    partials in byte-identical iteration order.
    """

    def __init__(self, window: WindowSpec, key_space_hint: int = 64) -> None:
        super().__init__(window)
        self._cols: Dict[int, _WindowCols] = {}
        self._key_space_hint = key_space_hint

    def add(self, record: Record) -> int:
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
                cols = _WindowCols(self._key_space_hint)
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
            for _, trace in block.traces:
                self._traces.setdefault(first, []).append(trace)
            block.traces = []
        return windows * n_cohorts

    def drain(self) -> Dict[int, Dict[int, WindowAccumulator]]:
        partials = {
            idx: cols.materialize() for idx, cols in self._cols.items()
        }
        self._cols = {}
        self._partials = {}
        self.batch_weight = 0.0
        return partials
