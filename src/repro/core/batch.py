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
where its result is observed and has not been computed already for the
same start and the same immutable arrays* (the per-stage table is in
DESIGN.md section 14).  Three tools keep it:

- **The chain fold** (:func:`chain_add` / :func:`chain_sub`): folding
  ``a`` then ``b`` from ``start`` is one strict fold over their
  concatenation, so a loop's folds run as one ``accumulate``.  Every
  strict fold goes through it (:func:`fold_add` is the one-array case).
- **Owe, then settle** (:class:`OwedSum`): a value that only samplers
  and diagnostics read -- the queues' pushed and pulled ledgers, the
  stores' admitted ledger -- appends its arrays and folds them once per
  read, over everything it owes; a countdown read only after its loop
  (the pull's occupancy, the source's budget, Storm's in-flight
  weight) is one chain fold per loop.
- **The fold memo**: the key distribution hands every generator
  instance that emits an equal per-tick weight one and the same
  read-only weights column (``KeyDistribution.column``), nothing writes
  into a block's weights (splits and sheds copy), and push, pull,
  source and ingest of every instance -- and the twin ledgers of twin
  queues -- fold the same arrays from the same start again and again.
  A chain is memoised by (operation, start, array identities) when
  every array of it is whole and read-only.  Window columns are
  writable and never enter this memo; while a window has only ever
  added one such column it is answered by content instead
  (``WindowCols.weight_fold``).
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.records import Record

#: Same epsilon as the scalar pull/drain ladders.
_EPS = 1e-9

#: Entries the fold memo holds before it starts over.  Each entry holds
#: its arrays, so the memo keeps at most this many chains alive; a
#: constant-rate trial's entries share a handful of arrays.
MEMO_SIZE = 1024
#: Weights an :class:`OwedSum` holds before it settles on its own
#: (64 KB of doubles): what a ledger owes stays bounded however long
#: nobody reads it.
OWED_LIMIT = 8192
#: Memo operations: the two folds and ``consume_front``'s whole-block
#: countdown (a separate entry: it is only stored when the block fits).
_ADD, _SUB, _TAKE = 1, 2, 3
_memo: Dict[tuple, tuple] = {}


def _memo_key(op: int, start: float, values: np.ndarray):
    """The memo key of folding ``values`` from ``start``, or None when
    ``values`` may still change.

    Only a whole (``base is None``) read-only array is admitted -- the
    same rule as a window run's pair (``WindowCols``).  A writable array
    can change under the same identity, and a view is a fresh object
    per split piece, so it would never be asked for again.  The entry
    holds the array, so its ``id`` cannot be reused while the entry
    lives.  Equal starts are the same double except for the two zeros,
    whose sign the key keeps apart.
    """
    if values.base is not None or values.flags.writeable:
        return None
    if start == 0.0 and math.copysign(1.0, start) < 0.0:
        op = -op
    return (op, start, id(values))


def _remember(key, held, result: float) -> None:
    if len(_memo) >= MEMO_SIZE:
        _memo.clear()
    _memo[key] = (held, result)


def _fold(op: int, ufunc, start: float, chain) -> float:
    """The strict left fold of every array of ``chain`` in turn, from
    ``start``: one ``accumulate`` over their concatenation, which runs
    the same IEEE operations in the same order as one fold per array.

    Memoised by ``(op, start, identities)`` when every array of the
    chain is admitted by :func:`_memo_key` (the identities packed as
    bytes: a settled ledger's chain can hold a hundred arrays); a
    one-array chain keys as that array alone, so :func:`fold_add` and
    :func:`chain_add` share entries.
    """
    if len(chain) == 1:
        values = chain[0]
        n = len(values)
        if n == 0:
            return float(start)
        key = _memo_key(op, start, values)
    else:
        n = 0
        admitted = True
        for values in chain:
            n += len(values)
            if admitted and (
                values.base is not None or values.flags.writeable
            ):
                admitted = False
        if n == 0:
            return float(start)
        key = None
        if admitted:
            if start == 0.0 and math.copysign(1.0, start) < 0.0:
                op = -op
            key = (op, start, array("Q", map(id, chain)).tobytes())
    if key is not None:
        hit = _memo.get(key)
        if hit is not None:
            return hit[1]
    buf = np.empty(n + 1)
    buf[0] = start
    if len(chain) == 1:
        buf[1:] = chain[0]
    else:
        np.concatenate(chain, out=buf[1:])
    ufunc.accumulate(buf, out=buf)
    result = float(buf[-1])
    if key is not None:
        _remember(key, tuple(chain), result)
    return result


def fold_add(start: float, values: np.ndarray) -> float:
    """``start + values[0] + values[1] + ...`` as a strict left fold.

    Bitwise equal to the scalar loop ``for v in values: start += v``
    (``np.add.accumulate`` is sequential, not pairwise).  Memoised by
    start and array for whole read-only arrays.
    """
    return _fold(_ADD, np.add, start, (values,))


def fold_sub(start: float, values: np.ndarray) -> float:
    """``start - values[0] - values[1] - ...`` as a strict left fold
    (memoised like :func:`fold_add`)."""
    return _fold(_SUB, np.subtract, start, (values,))


def chain_add(start: float, chain) -> float:
    """``fold_add`` over each array of ``chain`` in turn, in one
    ``accumulate``: bitwise equal to
    ``for a in chain: start = fold_add(start, a)``."""
    return _fold(_ADD, np.add, start, chain)


def chain_sub(start: float, chain) -> float:
    """``fold_sub`` over each array of ``chain`` in turn, in one
    ``accumulate`` (the countdown twin of :func:`chain_add`)."""
    return _fold(_SUB, np.subtract, start, chain)


class OwedSum:
    """A running strict left sum whose terms are owed until it is read.

    :meth:`owe` appends an array of terms; :meth:`settle` folds
    everything owed onto the value in one :func:`chain_add` and returns
    it.  The settled value is bitwise the one a ``fold_add`` per array
    would have left, so a ledger that only samplers and diagnostics
    read folds once per read, not once per write.  It settles by itself
    once it owes :data:`OWED_LIMIT` weights.  The owed arrays must not
    change until they are settled: nothing writes into a block's
    weights (splits and sheds copy).
    """

    __slots__ = ("_value", "_owed", "_size")

    def __init__(self, value: float = 0.0) -> None:
        self._value = value
        self._owed: List[np.ndarray] = []
        self._size = 0

    def owe(self, values: np.ndarray) -> None:
        n = len(values)
        if n:
            self._owed.append(values)
            self._size += n
            if self._size >= OWED_LIMIT:
                self.settle()

    def settle(self) -> float:
        if self._owed:
            self._value = _fold(_ADD, np.add, self._value, self._owed)
            self._owed = []
            self._size = 0
        return self._value


def owed_ledger(name: str, doc: str) -> property:
    """A float attribute kept as an :class:`OwedSum` in ``_<name>``:
    reading it settles, assigning it starts a new sum at that value
    (so ``ledger += x`` is still the scalar ``+=``)."""
    slot = "_" + name

    def get(self) -> float:
        return getattr(self, slot).settle()

    def put(self, value: float) -> None:
        setattr(self, slot, OwedSum(value))

    return property(get, put, doc=doc)


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

        Both columns are views: nothing writes into a block's arrays
        (a split or a shed writes on a copy), so the prefix keeps this
        block's key array -- a columnar store recognises the catalog
        behind it -- and its weights, which the fold memo recognises
        when they are the generator's read-only ones.
        """
        return RecordBlock(
            self.keys[:count],
            self.weights[:count],
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
    return chain_add(0.0, [block.weights for block in blocks])


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
    # A block that fitted this budget before fits it again, leaving the
    # same remainder.
    key = _memo_key(_TAKE, budget, weights)
    if key is not None:
        hit = _memo.get(key)
        if hit is not None:
            return block.take_all(), hit[1], True
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
        left = float(acc[n])
        if key is not None:
            _remember(key, weights, left)
        return block.take_all(), left, True
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
    # Both parts write on their own copies: the weights may be an
    # emitted (read-only) array or shared with an earlier prefix.
    split_w = float(before[j])
    taken = block.take_prefix(j + 1)
    taken.weights = taken.weights.copy()
    taken.weights[j] = split_w
    # Remainder: cohort j survives at reduced weight, trace gone (it
    # left with the first part, the scalar split convention).
    rest = weights[j:].copy()
    rest[0] = rest[0] - split_w
    block.traces = [(i, t) for i, t in block.traces if i > j]
    block._advance(j)
    block.weights = rest
    # Scalar: ``remaining -= taken.weight`` with taken.weight == the
    # remaining budget -- exactly zero.
    return taken, 0.0, False
