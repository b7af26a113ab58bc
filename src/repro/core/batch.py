"""Record blocks: the columnar currency of the engine data path.

PR 1 vectorized the *driver-side* metrology (~12x); this module does the
same for the *SUT side*.  The dense generator emits one uniform cohort
per catalog key per tick -- a structure that is naturally columnar: all
cohorts of one emission share ``event_time``, ``value`` and ``stream``
and differ only in ``key`` and ``weight``.  A :class:`RecordBlock`
carries exactly those two columns as NumPy arrays plus the shared
scalars, so queues, sources and window stores can process a whole
emission with a handful of array operations instead of one Python-object
round trip per cohort.

Bitwise identity with the record-at-a-time reference (``tests/oracle``)
is a hard requirement, not a nicety: the conformance goldens hash sink
values produced by that code, and floats feed control flow everywhere
(backlogs drive ingest budgets drive RNG draws).  The toolbox here is
therefore restricted to operations that are *bitwise equal* to the
scalar left-fold loops they stand for:

- ``np.add.accumulate`` / ``np.subtract.accumulate`` are strictly
  sequential left folds (``out[i] = op(out[i-1], a[i])``), unlike
  ``np.sum`` which uses pairwise summation and is NOT reduction-order
  safe.  :func:`fold_add` / :func:`fold_sub` wrap them with a prepended
  start value to replicate ``for w in ws: x += w`` exactly.
- Element-wise products/maxima are per-element IEEE operations and
  bitwise equal to their scalar counterparts.
- Fancy-index ``+=`` is a single add per target slot when the indices
  are unique -- which blocks guarantee (one cohort per key).

A strict fold is latency-bound and cannot be made faster, only rarer,
so the hot path keeps a fold budget: *a strict left fold runs only
where its result is observed and has not been computed already* (the
per-stage table is in DESIGN.md section 14).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.records import Record

#: Same epsilon as the scalar pull/drain ladders.
_EPS = 1e-9


def fold_add(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...`` as a strict left fold.

    Bitwise equal to the scalar loop ``for v in values: start += v``
    (``np.add.accumulate`` is sequential, not pairwise).
    """
    n = len(values)
    if n == 0:
        return float(start)
    buf = np.empty(n + 1)
    buf[0] = start
    buf[1:] = values
    np.add.accumulate(buf, out=buf)
    return float(buf[-1])


def fold_sub(start: float, values: np.ndarray) -> float:
    """``start - values[0] - values[1] - ...`` as a strict left fold."""
    n = len(values)
    if n == 0:
        return float(start)
    buf = np.empty(n + 1)
    buf[0] = start
    buf[1:] = values
    np.subtract.accumulate(buf, out=buf)
    return float(buf[-1])


def left_sum(values):
    """``sum(values)`` as a strict left fold, on every interpreter.

    The builtin is one only on CPython <= 3.11: since 3.12 it
    compensates float sums (``sum([1e16, 1.0, -1e16])`` is ``1.0``
    there, ``0.0`` here), which would make the close path (and the
    reference in ``tests/oracle``) disagree with :func:`fold_add`.  Starts
    from int ``0`` like the builtin, so an empty sum serialises as ``0``.
    """
    total = 0
    for value in values:
        total += value
    return total


class RecordBlock:
    """A columnar batch of same-tick cohorts (one cohort per key).

    The uniform fields (``value``, ``event_time``, ``stream``,
    ``ingest_time``) are scalars shared by every cohort -- exactly the
    dense generator's emission shape.  ``keys`` must be unique within a
    block (one cohort per key), which is what makes fancy-index ``+=``
    in the columnar window store a single add per accumulator.

    ``traces`` is a list of ``(cohort_index, EventTrace)`` pairs for the
    1-in-N sampled cohorts; splits follow the ``split_cohort``
    convention (the trace rides the first part of a split cohort).
    """

    __slots__ = (
        "keys", "weights", "value", "event_time", "stream", "ingest_time",
        "traces",
    )

    def __init__(
        self,
        keys: np.ndarray,
        weights: np.ndarray,
        value: float,
        event_time: float,
        stream: str,
        ingest_time: Optional[float] = None,
        traces: Optional[List[Tuple[int, object]]] = None,
        _checked: bool = False,
    ) -> None:
        if not _checked:
            keys = np.asarray(keys, dtype=np.int64)
            weights = np.asarray(weights, dtype=np.float64)
            if keys.shape != weights.shape or keys.ndim != 1:
                raise ValueError("keys and weights must be matching 1-D arrays")
            if len(weights):
                if not np.all(weights > 0):
                    raise ValueError("cohort weights must be positive")
                if len(np.unique(keys)) != len(keys):
                    raise ValueError("block keys must be unique (one cohort/key)")
        self.keys = keys
        self.weights = weights
        self.value = value
        self.event_time = event_time
        self.stream = stream
        self.ingest_time = ingest_time
        self.traces = traces if traces is not None else []

    def __len__(self) -> int:
        return len(self.weights)

    def materialize(self) -> List[Record]:
        """Expand into per-cohort :class:`Record` objects.

        The records carry the cohorts' exact weights, times and traces,
        so a record-at-a-time reading of a block (the oracle engines in
        ``tests/oracle``) sees the same numbers the block holds.
        """
        trace_at = dict(self.traces)
        return [
            Record(
                key=int(self.keys[i]),
                value=self.value,
                event_time=self.event_time,
                weight=self.weights[i],
                stream=self.stream,
                ingest_time=self.ingest_time,
                trace=trace_at.get(i),
            )
            for i in range(len(self.weights))
        ]

    def take_prefix(self, count: int) -> "RecordBlock":
        """The first ``count`` whole cohorts as a new block.

        Weights are copied (they are mutated in place by splits); keys
        never are, so the prefix keeps a view of this block's key array
        and a columnar store can recognise the catalog behind it.
        """
        return RecordBlock(
            self.keys[:count],
            self.weights[:count].copy(),
            value=self.value,
            event_time=self.event_time,
            stream=self.stream,
            ingest_time=self.ingest_time,
            traces=[(i, t) for i, t in self.traces if i < count],
            _checked=True,
        )

    def take_all(self) -> "RecordBlock":
        """Move every cohort into a new block, leaving this one empty."""
        taken = RecordBlock(
            self.keys,
            self.weights,
            value=self.value,
            event_time=self.event_time,
            stream=self.stream,
            ingest_time=self.ingest_time,
            traces=self.traces,
            _checked=True,
        )
        self.keys = self.keys[:0]
        self.weights = self.weights[:0]
        self.traces = []
        return taken

    def _advance(self, count: int) -> None:
        """Drop the first ``count`` cohorts in place (after a take)."""
        self.keys = self.keys[count:]
        self.weights = self.weights[count:]
        if self.traces:
            self.traces = [
                (i - count, t) for i, t in self.traces if i >= count
            ]

    def drop_front_cohort(self) -> None:
        """Shed the head cohort entirely (its trace is dropped)."""
        for i, trace in self.traces:
            if i == 0:
                trace.drop()
        self._advance(1)

    def drop_back_cohort(self) -> None:
        """Shed the tail cohort entirely (its trace is dropped)."""
        last = len(self.weights) - 1
        kept = []
        for i, trace in self.traces:
            if i == last:
                trace.drop()
            else:
                kept.append((i, trace))
        self.traces = kept
        self.keys = self.keys[:last]
        self.weights = self.weights[:last]


def as_block(record: Record) -> RecordBlock:
    """Wrap one :class:`Record` as a single-cohort block.

    Used by record-at-a-time ``store.add``, so the stores see only
    blocks.  The record's trace moves onto the block (single ownership,
    like a cohort split).
    """
    trace = record.trace
    record.trace = None
    return RecordBlock(
        np.array([record.key], dtype=np.int64),
        np.array([record.weight], dtype=np.float64),
        value=record.value,
        event_time=record.event_time,
        stream=record.stream,
        ingest_time=record.ingest_time,
        traces=[(0, trace)] if trace is not None else [],
        _checked=True,
    )


def records_weight(blocks: List[RecordBlock]) -> float:
    """Total weight of a list of blocks.

    Bitwise equal to ``left_sum(r.weight for r in records)`` over
    the expanded cohort sequence (strict left fold, same order).
    """
    total = 0.0
    for block in blocks:
        total = fold_add(total, block.weights)
    return total


def consume_front(
    block: RecordBlock, budget: float
) -> Tuple[Optional[RecordBlock], float, bool]:
    """Take cohorts from the front of ``block`` under a weight budget.

    Replicates the record-at-a-time head-take ladder (queue ``pull``)
    over one block, bitwise:

    - cohort ``i`` is taken whole iff the remaining budget before it is
      ``> 1e-9`` and its weight fits;
    - the first non-fitting cohort (with budget remaining) is *split*:
      the taken part gets exactly the remaining budget, the cohort keeps
      the difference, and the budget becomes exactly ``0.0``;
    - a trace rides the first (taken) part of a split cohort.

    Returns ``(taken_block_or_None, new_budget, block_emptied)``;
    ``block`` is mutated in place to hold the remainder.

    Precondition: cohort weights are non-negative (blocks guarantee
    positive); the whole-block test below is exact only then.
    """
    weights = block.weights
    n = len(weights)
    if n == 0:
        return None, budget, True
    # acc[i] = budget remaining before cohort i (strict sequential fold,
    # so acc[i+1] = acc[i] - w[i] is the exact scalar subtraction).
    acc = np.empty(n + 1)
    acc[0] = budget
    acc[1:] = weights
    np.subtract.accumulate(acc, out=acc)
    # Weights are non-negative, so the countdown never rises and stays
    # negative once a cohort overshoots (fl(a - b) < 0 iff a < b): two
    # reads decide whether the whole block fits.
    if acc[n - 1] > _EPS and acc[n] >= 0.0:
        return block.take_all(), float(acc[n]), True
    before = acc[:-1]
    violation = (before <= _EPS) | (weights > before)
    j = int(np.nonzero(violation)[0][0])
    if before[j] <= _EPS:
        # Budget exhausted before cohort j: take the clean prefix.
        if j == 0:
            return None, float(before[0]), False
        taken = block.take_prefix(j)
        block._advance(j)
        return taken, float(before[j]), False
    # Split cohort j: the taken part gets the remaining budget exactly.
    split_w = float(before[j])
    taken = block.take_prefix(j + 1)
    taken.weights[j] = split_w
    # Remainder: cohort j survives at reduced weight, trace gone (it
    # left with the first part, the scalar split convention).
    block.weights[j] = block.weights[j] - split_w
    block.traces = [(i, t) for i, t in block.traces if i > j]
    block._advance(j)
    # Scalar: ``remaining -= taken.weight`` with taken.weight == the
    # remaining budget -- exactly zero.
    return taken, 0.0, False
