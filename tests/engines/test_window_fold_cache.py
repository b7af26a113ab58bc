"""A window's weight fold is reused only while nothing changed.

``WindowCols.weight_fold(start)`` hands back its last fold while the
columns' ``version`` and the chained ``start`` are those of that fold;
``KeyedWindowStore.stored_weight`` and
``WindowedPartialMerger.stored_weight`` chain it over their open
windows.  Every answer must be, by ``float.hex``, a fresh strict left
fold over a copy of the weights (a copy is writable, so the fold memo of
:mod:`repro.core.batch` never answers for it) -- after every write
(``add_cohorts``, ``lose_fraction_fold``, ``merge``; through the stores:
``add_block``, ``lose_fraction``, ``close``, ``absorb``, ``pop_ready``),
asked twice, from starts that include both zeros.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import RecordBlock, fold_add
from repro.core.records import PURCHASES
from repro.engines.operators.aggregate import (
    BatchPartialAggregator,
    WindowedPartialMerger,
)
from repro.engines.operators.window import KeyedWindowStore, WindowCols
from repro.workloads.queries import WindowSpec

WINDOW = WindowSpec(8.0, 4.0)
KEYS = 12

starts = st.sampled_from([0.0, -0.0, 0.1, 1.0, 3.5, 1e16])
weights_of = st.floats(min_value=1e-12, max_value=1e6)


@st.composite
def cohorts(draw):
    """Unique keys (a block's keys are unique) and their weights."""
    keys = draw(st.lists(st.integers(0, KEYS - 1), unique=True, min_size=1,
                         max_size=KEYS))
    weights = draw(st.lists(weights_of, min_size=len(keys),
                            max_size=len(keys)))
    return (np.array(keys, dtype=np.int64),
            np.array(weights, dtype=np.float64))


def fresh_fold(start: float, cols: WindowCols) -> float:
    return fold_add(start, cols.weights[: cols.n].copy())


def fresh_chain(windows) -> float:
    total = 0.0
    for cols in windows:
        total = fresh_fold(total, cols)
    return total


def add(cols: WindowCols, entry) -> None:
    keys, weights = entry
    cols.add_cohorts(keys, weights, 2.5, 1.0, None)


col_ops = st.one_of(
    st.tuples(st.just("add"), cohorts()),
    st.tuples(st.just("lose"), st.floats(0.0, 1.0)),
    st.tuples(st.just("merge"), st.lists(cohorts(), max_size=3)),
)


@settings(max_examples=400, deadline=None)
@given(ops=st.lists(st.tuples(col_ops, st.lists(starts, min_size=1,
                                                  max_size=3)),
                    max_size=8),
       first=st.lists(starts, min_size=1, max_size=2))
def test_weight_fold_equals_a_fresh_fold(ops, first):
    cols = WindowCols(4)
    for start in first:
        assert cols.weight_fold(start).hex() == fresh_fold(start, cols).hex()
    for (kind, arg), asked in ops:
        if kind == "add":
            add(cols, arg)
        elif kind == "lose":
            cols.lose_fraction_fold(0.0, arg)
        else:
            other = WindowCols(2)
            for entry in arg:
                add(other, entry)
            cols.merge(other)
        for start in asked + asked:
            expected = fresh_fold(start, cols)
            assert cols.weight_fold(start).hex() == expected.hex()
        assert cols.total_weight().hex() == fresh_fold(0.0, cols).hex()


def test_the_two_zeros_are_different_starts():
    cols = WindowCols(1)
    assert cols.weight_fold(0.0).hex() == "0x0.0p+0"
    assert cols.weight_fold(-0.0).hex() == "-0x0.0p+0"
    assert cols.weight_fold(0.0).hex() == "0x0.0p+0"


def block(event_time: float, entry) -> RecordBlock:
    keys, weights = entry
    return RecordBlock(keys, weights, value=2.5, event_time=event_time,
                       stream=PURCHASES)


store_ops = st.one_of(
    st.tuples(st.just("add"), st.tuples(st.floats(0.0, 40.0), cohorts())),
    st.tuples(st.just("lose"), st.floats(0.0, 1.0)),
    st.tuples(st.just("close"), st.integers(0, 3)),
)


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(store_ops, max_size=14))
def test_store_stored_weight_equals_a_fresh_chained_fold(ops):
    store = KeyedWindowStore(WINDOW, key_space_hint=4)
    for kind, arg in ops:
        if kind == "add":
            store.add_block(block(arg[0], arg[1]))
        elif kind == "lose":
            store.lose_fraction(arg)
        else:
            open_indices = list(store.open_indices())
            if open_indices:
                store.close(open_indices[arg % len(open_indices)])
        expected = fresh_chain(store._windows.values()).hex()
        assert store.stored_weight().hex() == expected
        assert store.stored_weight().hex() == expected


@settings(max_examples=300, deadline=None)
@given(
    batches=st.lists(
        st.tuples(
            st.lists(st.tuples(st.floats(0.0, 40.0), cohorts()), max_size=4),
            st.floats(0.0, 48.0),  # pop windows ending through here
        ),
        max_size=5,
    )
)
def test_merger_stored_weight_equals_a_fresh_chained_fold(batches):
    partials = BatchPartialAggregator(WINDOW, key_space_hint=4)
    merger = WindowedPartialMerger(WINDOW)
    for blocks, through in batches:
        for event_time, entry in blocks:
            partials.add_block(block(event_time, entry))
        merger.absorb(partials.drain())
        expected = fresh_chain(merger._window_state.values()).hex()
        assert merger.stored_weight().hex() == expected
        assert merger.stored_weight().hex() == expected
        merger.pop_ready(through)
        expected = fresh_chain(merger._window_state.values()).hex()
        assert merger.stored_weight().hex() == expected
        assert merger.stored_weight().hex() == expected
