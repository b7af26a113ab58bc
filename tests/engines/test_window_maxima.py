"""Owed window maxima and the zero-value skip of ``WindowCols``.

A write addressed as a slot run owes its event-time and ingest-time
maxima per (start, stop) span; ``close_window`` and ``merge`` read them
settled.  Interleaved with scalar and gather writes, and with writes
that carry no ingest time, the closed maxima must equal an eager
``np.maximum`` per write, by ``float.hex``.  A block whose value is
``0.0`` (the ads stream) adds no products at all: its values must stay
``+0.0`` bit for bit through ``lose_fraction_fold`` and ``merge``.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import RecordBlock
from repro.core.records import ADS
from repro.engines.operators.aggregate import (
    BatchPartialAggregator,
    WindowedPartialMerger,
)
from repro.engines.operators.window import (
    KeyedWindowStore,
    WindowCols,
    close_window,
)
from repro.workloads.queries import WindowSpec

WINDOW = WindowSpec(8.0, 4.0)
KEYS = 10
CATALOG = np.arange(KEYS, dtype=np.int64)
CATALOG.flags.writeable = False
NEVER = float("-inf")
POSITIVE_ZERO = (0.0).hex()


class Eager:
    """The reference: per key, one ``np.maximum`` per write, in order."""

    def __init__(self) -> None:
        self.acc: Dict[int, List[float]] = {}

    def add(self, keys, weights, value, event_time, ingest_time) -> None:
        for key, weight in zip(keys.tolist(), weights.tolist()):
            acc = self.acc.setdefault(key, [0.0, 0.0, NEVER, NEVER])
            acc[0] += value * weight
            acc[1] += weight
            acc[2] = float(np.maximum(acc[2], event_time))
            if ingest_time is not None:
                acc[3] = float(np.maximum(acc[3], ingest_time))

    def merge(self, other: "Eager") -> None:
        for key, theirs in other.acc.items():
            acc = self.acc.setdefault(key, [0.0, 0.0, NEVER, NEVER])
            acc[0] += theirs[0]
            acc[1] += theirs[1]
            acc[2] = float(np.maximum(acc[2], theirs[2]))
            acc[3] = float(np.maximum(acc[3], theirs[3]))


def addressing(kind: str, start: int, stop: int, rng) -> np.ndarray:
    """The key array of one write: the whole catalog (a slot run once
    touched), a contiguous view of it (a slot run), one key (a scalar
    slot once touched) or a foreign permutation (a gather)."""
    if kind == "whole":
        return CATALOG
    if kind == "view":
        return CATALOG[start:stop]
    if kind == "one":
        return np.array([start], dtype=np.int64)
    keys = CATALOG[start:stop].copy()
    rng.shuffle(keys)
    return keys


times = st.floats(0.5, 1e6, allow_nan=False)
writes = st.tuples(
    st.sampled_from(["whole", "view", "one", "gather"]),
    st.integers(0, KEYS - 1),
    st.integers(1, KEYS),
    st.sampled_from([2.5, 0.0]),
    times,
    st.none() | times,
    st.floats(1e-6, 1e3),
)


def apply(cols: WindowCols, eager: Eager, ops, seed: int) -> None:
    rng = np.random.default_rng(seed)
    for kind, start, width, value, event_time, ingest_time, weight in ops:
        keys = addressing(kind, start, min(KEYS, start + width), rng)
        weights = np.full(len(keys), weight) * (1.0 + np.arange(len(keys)))
        products = None if value == 0.0 else value * weights
        cols.add_cohorts(keys, weights, products, event_time, ingest_time)
        eager.add(keys, weights, value, event_time, ingest_time)


def assert_matches(cols: WindowCols, eager: Eager) -> None:
    closed = close_window(WINDOW, 3, cols, [])
    assert closed.keys.tolist() == list(eager.acc)
    for i, key in enumerate(closed.keys.tolist()):
        value, weight, max_et, max_pt = eager.acc[key]
        assert closed.values[i].hex() == value.hex()
        assert closed.weights[i].hex() == weight.hex()
        assert closed.max_event_times[i].hex() == max_et.hex()
        assert closed.max_processing_times[i].hex() == max_pt.hex()
    assert closed.max_event_time == max(
        (acc[2] for acc in eager.acc.values()), default=NEVER
    )
    assert closed.max_processing_time == max(
        (acc[3] for acc in eager.acc.values()), default=NEVER
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(writes, min_size=1, max_size=12), st.integers(0, 2**16))
def test_owed_maxima_close_to_the_eager_maxima(ops, seed):
    cols, eager = WindowCols(4), Eager()
    apply(cols, eager, ops, seed)
    assert_matches(cols, eager)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(writes, min_size=1, max_size=8),
    st.lists(writes, min_size=1, max_size=8),
    st.integers(0, 2**16),
)
def test_owed_maxima_merge_to_the_eager_maxima(ours, theirs, seed):
    cols, eager = WindowCols(4), Eager()
    other, other_eager = WindowCols(4), Eager()
    apply(cols, eager, ours, seed)
    apply(other, other_eager, theirs, seed + 1)
    cols.merge(other)
    eager.merge(other_eager)
    assert_matches(cols, eager)


def ads_block(weights, event_time: float) -> RecordBlock:
    weights = np.asarray(weights, dtype=np.float64)
    return RecordBlock(CATALOG[: len(weights)], weights, 0.0, event_time, ADS,
                       ingest_time=event_time + 0.5)


def test_ads_values_stay_positive_zero_through_loss_and_merge():
    store = KeyedWindowStore(WINDOW, KEYS)
    partials = BatchPartialAggregator(WINDOW, KEYS)
    for step in range(6):
        block = ads_block(0.25 + np.arange(KEYS) * 0.5, 1.0 + step)
        store.add_block(block)
        partials.add_block(ads_block(0.25 + np.arange(3) * 0.5, 1.0 + step))
        if step == 2:
            store.lose_fraction(0.4)
            store.lose_fraction(1.0)
    merger = WindowedPartialMerger(WINDOW)
    merger.absorb(partials.drain())
    closed = [store.close(index) for index in list(store.open_indices())]
    closed += merger.pop_ready(float("inf"))
    assert closed and all(len(contents.values) for contents in closed)
    for contents in closed:
        assert {v.hex() for v in contents.values.tolist()} == {POSITIVE_ZERO}


def test_ads_values_stay_positive_zero_in_columns():
    cols, other = WindowCols(4), WindowCols(4)
    weights = np.linspace(0.5, 2.0, KEYS)
    for target in (cols, other):
        target.add_cohorts(CATALOG, weights, None, 1.0, None)
        target.add_cohorts(CATALOG[2:5], weights[2:5], None, 2.0, 2.5)
    cols.lose_fraction_fold(0.0, 1.0)
    cols.merge(other)
    cols.lose_fraction_fold(0.0, 0.3)
    values = cols.values[: cols.n].tolist()
    assert {v.hex() for v in values} == {POSITIVE_ZERO}
