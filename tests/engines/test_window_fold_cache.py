"""A window's weight fold is reused only while nothing changed.

``WindowCols.weight_fold(start)`` hands back its last fold while the
columns' ``version`` and the chained ``start`` are those of that fold;
``KeyedWindowStore.stored_weight`` and
``WindowedPartialMerger.stored_weight`` chain it over their open
windows.  While every write to a window has been ``add_cohorts`` of one
whole read-only ``(keys, weights)`` pair, the fold is looked up by
``(pair, count, start)`` in a table shared by every window instead.
Every answer must be, by ``float.hex``, a fresh strict left fold over a
copy of the weights (a copy is writable, so the fold memo of
:mod:`repro.core.batch` never answers for it) -- after every write
(``add_cohorts``, ``lose_fraction_fold``, ``merge``; through the stores:
``add_block``, ``lose_fraction``, ``close``, ``absorb``, ``pop_ready``),
asked twice, from starts that include both zeros.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import RecordBlock, fold_add
from repro.core.records import PURCHASES
from repro.engines.operators import window
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
    cols.add_cohorts(keys, weights, 2.5 * weights, 1.0, None)


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


# -- the run identity ----------------------------------------------------

RUN_KEYS = 6
RUN_WINDOWS = 3


def frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Pool:
    """The arrays a run's writes are made of, built once per example so
    that every write of one kind hands over the very same objects:

    - ``shared``: the catalog and one read-only column (a run's pair);
    - ``other``: the catalog and another read-only column;
    - ``view``: contiguous read-only views of the shared pair;
    - ``writable``: the catalog and a writable copy of the shared
      column, which ``mutate`` scales in place.
    """

    def __init__(self, shared, other, lo: int) -> None:
        catalog = frozen(np.arange(RUN_KEYS, dtype=np.int64))
        column = frozen(np.array(shared))
        self.pairs = {
            "shared": (catalog, column),
            "other": (catalog, frozen(np.array(other))),
            "view": (catalog[lo:], column[lo:]),
            "writable": (catalog, column.copy()),
        }


run_columns = st.lists(weights_of, min_size=RUN_KEYS, max_size=RUN_KEYS)
window_index = st.integers(0, RUN_WINDOWS - 1)
run_ops = st.one_of(
    st.tuples(st.just("add"), window_index,
              st.sampled_from(["shared", "shared", "shared", "other",
                               "view", "writable"])),
    st.tuples(st.just("mutate"), st.floats(0.5, 2.0)),
    st.tuples(st.just("lose"), window_index, st.floats(0.0, 1.0)),
    st.tuples(st.just("merge"), window_index, window_index),
)


def start_key(start: float):
    return (start, math.copysign(1.0, start))


@settings(max_examples=400, deadline=None)
@given(shared=run_columns, other=run_columns, lo=st.integers(1, RUN_KEYS - 1),
       ops=st.lists(st.tuples(run_ops, st.lists(starts, min_size=1,
                                                  max_size=3)),
                    max_size=16))
def test_runs_answer_by_content_and_end_on_any_other_write(
    shared, other, lo, ops
):
    """Interleaved writes over several windows; every ``weight_fold``
    against a fresh fold, and every repeat of a (pair, count, start) a
    run has already folded -- in this window or a twin -- answered by
    the table without folding.  The test keeps its own account of which
    window is still in a run, and of the table: one entry per (count,
    start), the pair that folded there last."""
    pool = Pool(shared, other, lo)
    cols = [WindowCols(2) for _ in range(RUN_WINDOWS)]
    # Per window: (pair name, writes) while in a run, () while fresh,
    # None once the run has ended.
    runs = [() for _ in cols]
    table = {}
    folds = [0]

    def counting(start, values):
        folds[0] += 1
        return fold_add(start, values)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(window, "_run_folds", {})
        patch.setattr(window, "fold_add", counting)
        for op, asked in ops:
            kind = op[0]
            if kind == "add":
                _, i, name = op
                keys, weights = pool.pairs[name]
                cols[i].add_cohorts(keys, weights, 2.5 * weights, 1.0, None)
                run = runs[i]
                if name != "shared" and name != "other":
                    runs[i] = None
                elif run == ():
                    runs[i] = (name, 1)
                elif run is not None and run[0] == name:
                    runs[i] = (name, run[1] + 1)
                else:
                    runs[i] = None
            elif kind == "mutate":
                pool.pairs["writable"][1][:] *= op[1]
            elif kind == "lose":
                _, i, fraction = op
                if cols[i].n:
                    runs[i] = None
                cols[i].lose_fraction_fold(0.0, fraction)
            else:
                _, i, j = op
                if i != j:
                    if cols[j].n:
                        runs[i] = None
                    cols[i].merge(cols[j])
            for i, window_cols in enumerate(cols):
                for start in asked + asked:
                    expected = fresh_fold(start, window_cols).hex()
                    before = folds[0]
                    assert window_cols.weight_fold(start).hex() == expected
                    run = runs[i]
                    if run:
                        name, count = run
                        key = (count, start_key(start))
                        assert folds[0] - before == (table.get(key) != name)
                        table[key] = name


@pytest.fixture
def counted_folds(monkeypatch):
    folds = []

    def counting(start, values):
        folds.append(start)
        return fold_add(start, values)

    monkeypatch.setattr(window, "_run_folds", {})
    monkeypatch.setattr(window, "fold_add", counting)
    return folds


def test_twins_and_equal_counts_are_answered_by_the_table(counted_folds):
    keys = frozen(np.arange(RUN_KEYS, dtype=np.int64))
    weights = frozen(np.arange(1.0, RUN_KEYS + 1) / 10.0)
    purchases, ads, later = (WindowCols(2) for _ in range(3))
    for _ in range(5):
        purchases.add_cohorts(keys, weights, 2.5 * weights, 1.0, None)
        ads.add_cohorts(keys, weights, None, 1.0, None)
    first = purchases.weight_fold(0.0)
    assert ads.weight_fold(0.0).hex() == first.hex()
    assert ads.weight_fold(first) == purchases.weight_fold(first)
    assert counted_folds == [0.0, first]
    # A window opened later holds at the same count what they held.
    for _ in range(5):
        later.add_cohorts(keys, weights, 2.5 * weights, 1.0, None)
    assert later.weight_fold(first) == ads.weight_fold(first)
    assert counted_folds == [0.0, first]
    # The other zero is another start.
    assert later.weight_fold(-0.0).hex() == first.hex()
    assert len(counted_folds) == 3


def test_an_entry_answers_only_for_its_own_pair(counted_folds):
    keys = frozen(np.arange(RUN_KEYS, dtype=np.int64))
    one = frozen(np.full(RUN_KEYS, 0.1))
    two = frozen(np.full(RUN_KEYS, 0.3))
    a, b = WindowCols(2), WindowCols(2)
    a.add_cohorts(keys, one, 2.5 * one, 1.0, None)
    b.add_cohorts(keys, two, 2.5 * two, 1.0, None)
    assert a.weight_fold(0.0).hex() == fold_add(0.0, one.copy()).hex()
    assert b.weight_fold(0.0).hex() == fold_add(0.0, two.copy()).hex()
    assert len(counted_folds) == 2


def test_views_and_writable_arrays_never_start_a_run(counted_folds):
    keys = frozen(np.arange(RUN_KEYS, dtype=np.int64))
    weights = frozen(np.full(RUN_KEYS, 0.25))
    writable = np.full(RUN_KEYS, 0.25)
    for pair in ((keys[1:], weights[1:]), (keys, writable)):
        twins = WindowCols(2), WindowCols(2)
        for cols in twins:
            cols.add_cohorts(*pair, 2.5 * pair[1], 1.0, None)
            cols.weight_fold(0.0)
    assert len(counted_folds) == 4
    assert window._run_folds == {}
