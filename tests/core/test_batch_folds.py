"""The fold toolbox of ``repro.core.batch``, pinned independently of trials.

``consume_front`` decides "the whole block fits" from two scalar reads of
its countdown and only otherwise scans; the scan-only implementation it
replaced is kept here as the oracle.  ``left_sum`` must be a strict left
fold on every interpreter (builtin ``sum`` stopped being one in 3.12).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import (
    RecordBlock,
    consume_front,
    fold_add,
    left_sum,
)

EPS = 1e-9


def scan_consume_front(
    block: RecordBlock, budget: float
) -> Tuple[Optional[RecordBlock], float, bool]:
    """``consume_front`` as it was before the two-read test: every call
    builds the violation mask and scans it."""
    weights = block.weights
    n = len(weights)
    if n == 0:
        return None, budget, True
    acc = np.empty(n + 1)
    acc[0] = budget
    acc[1:] = weights
    np.subtract.accumulate(acc, out=acc)
    before = acc[:-1]
    violation = (before <= EPS) | (weights > before)
    bad = np.nonzero(violation)[0]
    if len(bad) == 0:
        return block.take_all(), float(acc[n]), True
    j = int(bad[0])
    if before[j] <= EPS:
        if j == 0:
            return None, float(before[0]), False
        taken = block.take_prefix(j)
        block._advance(j)
        return taken, float(before[j]), False
    split_w = float(before[j])
    taken = block.take_prefix(j + 1)
    taken.weights[j] = split_w
    block.weights[j] = block.weights[j] - split_w
    block.traces = [(i, t) for i, t in block.traces if i > j]
    block._advance(j)
    return taken, 0.0, False


def make_block(weights: List[float]) -> RecordBlock:
    n = len(weights)
    return RecordBlock(
        np.arange(n, dtype=np.int64),
        np.array(weights, dtype=np.float64),
        value=1.0,
        event_time=2.0,
        stream="purchases",
        traces=[(i, f"t{i}") for i in range(n)],
        _checked=True,  # zeros are legal here: the precondition is w >= 0
    )


def spelled(block: Optional[RecordBlock]):
    """A block with its floats spelled bit-for-bit (None stays None)."""
    if block is None:
        return None
    return (
        block.keys.tolist(),
        [float(w).hex() for w in block.weights],
        list(block.traces),
    )


def outcome(take, weights: List[float], budget: float):
    block = make_block(weights)
    taken, new_budget, emptied = take(block, budget)
    return spelled(taken), float(new_budget).hex(), emptied, spelled(block)


ordinary = st.floats(1e-3, 50.0)
negligible = st.floats(0.0, EPS)
huge = st.floats(1e12, 1e16)
tiny = st.floats(1e-300, 1e-12)
whole = st.integers(0, 9).map(float)
weight_vectors = st.one_of(
    st.lists(st.one_of(ordinary, ordinary, negligible), min_size=1, max_size=12),
    st.lists(st.one_of(ordinary, huge, tiny, negligible), min_size=1, max_size=12),
    st.lists(whole, min_size=1, max_size=12),  # exact arithmetic: hits 0.0
    st.lists(negligible, min_size=1, max_size=4),
)


@st.composite
def blocks_and_budgets(draw):
    weights = draw(weight_vectors)
    total = fold_add(0.0, np.array(weights))
    cut = draw(st.integers(0, len(weights)))
    upto = fold_add(0.0, np.array(weights[:cut]))
    budget = draw(
        st.one_of(
            st.just(total),
            st.just(math.nextafter(total, math.inf)),
            st.just(math.nextafter(total, -math.inf)),
            st.just(upto),  # exhausted exactly before cohort `cut`
            st.just(upto + EPS),  # acc[cut] lands on / next to the epsilon
            st.just(total + EPS),
            negligible,
            st.floats(0.0, 2.0).map(lambda f: f * total),
            st.floats(1e-3, 1e3),
        )
    )
    return weights, budget


@settings(max_examples=600, deadline=None)
@given(blocks_and_budgets())
def test_consume_front_matches_the_scan(case):
    weights, budget = case
    assert outcome(consume_front, weights, budget) == outcome(
        scan_consume_front, weights, budget
    )


@pytest.mark.parametrize(
    "weights, budget",
    [
        ([1.0, 2.0, 3.0], 6.0),  # countdown ends on 0.0: still a whole take
        ([1.0, 2.0, 3.0], 7.0),
        ([1.0, 2.0, 3.0], math.nextafter(6.0, 0.0)),  # last cohort splits
        ([1.0, 2.0, 3.0], 3.0),  # exhausted exactly behind cohort 1
        ([1.0, 2.0, 3.0], 0.5),  # split at the head
        ([5.0], 5.0),
        ([5.0], EPS),  # budget on the epsilon: nothing taken
        ([5e-10], EPS),  # ... even though the cohort would fit
        ([EPS, EPS], 2 * EPS),  # acc[n-1] == 1e-9 exactly, acc[n] == 0.0
        ([EPS, 5.0], 2 * EPS),
        ([0.0, 0.0, 1.0], 1.0),
        ([1e16, 1.0, 1.0], 1e16 + 2.0),  # absorbed cohorts, huge/tiny mix
        ([3.0, 1e-12, 4.0], 3.0 + 1e-12),
    ],
)
def test_consume_front_boundary_cases(weights, budget):
    assert outcome(consume_front, weights, budget) == outcome(
        scan_consume_front, weights, budget
    )


def test_whole_take_needs_no_scan(monkeypatch):
    """The fitting case returns before the violation mask is built."""
    block = make_block([1.0, 2.0, 3.0])
    monkeypatch.setattr(
        np, "nonzero", lambda *_: pytest.fail("scanned a fitting block")
    )
    taken, budget, emptied = consume_front(block, 6.0)
    assert (taken.weights.tolist(), budget, emptied) == ([1.0, 2.0, 3.0], 0.0, True)


class TestLeftSum:
    def test_is_a_left_fold_on_every_interpreter(self):
        # Neumaier-compensated sum() (CPython >= 3.12) answers 1.0.
        assert left_sum([1e16, 1.0, -1e16]) == 0.0

    def test_empty_sum_is_the_int_zero(self):
        result = left_sum([])
        assert result == 0 and type(result) is int
        assert type(left_sum(iter([2.5]))) is float

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(-1e12, 1e12, allow_nan=False), min_size=1, max_size=40
        )
    )
    def test_equals_fold_add_bit_for_bit(self, values):
        folded = fold_add(0.0, np.array(values))
        assert float(left_sum(values)).hex() == folded.hex()
        assert float(left_sum(v for v in values)).hex() == folded.hex()
