"""The fold toolbox of ``repro.core.batch``, pinned independently of trials.

``consume_front`` decides "the whole block fits" from two scalar reads of
its countdown and only otherwise scans; the scan-only implementation it
replaced is kept here as the oracle.  ``left_sum`` must be a strict left
fold on every interpreter (builtin ``sum`` stopped being one in 3.12).

The folds are memoised by start and whole read-only array: a memoised
result must equal a fresh fold bit for bit, a writable array or a view
(of any base) must never hit, and the arrays the generator emits must
stay read-only through every split and shed.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch
from repro.core.batch import (
    RecordBlock,
    consume_front,
    fold_add,
    fold_sub,
    left_sum,
)
from repro.core.generator import DataGenerator, GeneratorConfig
from repro.core.queues import DriverQueue
from repro.core.records import PURCHASES
from repro.sim.failures import ConnectionDropped
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.workloads.keys import UniformKeys
from repro.workloads.profiles import ConstantRate, DiurnalRate
from repro.workloads.queries import WindowedAggregationQuery

from tests.oracle.queues import RecordQueue

EPS = 1e-9


def scan_consume_front(
    block: RecordBlock, budget: float
) -> Tuple[Optional[RecordBlock], float, bool]:
    """``consume_front`` as it was before the two-read test: every call
    builds the violation mask and scans it (the split writing on copies,
    as block weights are shared)."""
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
    head = weights[: j + 1].copy()
    head[j] = split_w
    rest = weights[j:].copy()
    rest[0] = rest[0] - split_w
    taken = block.take_prefix(j + 1)
    taken.weights = head
    block.traces = [(i, t) for i, t in block.traces if i > j]
    block._advance(j)
    block.weights = rest
    return taken, 0.0, False


def make_block(weights) -> RecordBlock:
    """A block over ``weights``: a list is copied, an array is shared."""
    n = len(weights)
    if isinstance(weights, list):
        weights = np.array(weights, dtype=np.float64)
    return RecordBlock(
        np.arange(n, dtype=np.int64),
        weights,
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


def outcome(take, weights, budget: float):
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


# -- the fold memo -----------------------------------------------------


def frozen(values) -> np.ndarray:
    """A read-only array that owns its data: what the memo admits."""
    array = np.array(values, dtype=np.float64)
    array.flags.writeable = False
    return array


def strict(ufunc, start: float, values: np.ndarray) -> float:
    """The fold without the memo: a fresh accumulate on every call."""
    buf = np.empty(len(values) + 1)
    buf[0] = start
    buf[1:] = values
    ufunc.accumulate(buf, out=buf)
    return float(buf[-1])


@pytest.fixture
def fresh_memo(monkeypatch):
    memo = {}
    monkeypatch.setattr(batch, "_memo", memo)
    return memo


signed = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e6, 1e6, allow_nan=False),
    huge,
    tiny,
)
starts = st.one_of(st.sampled_from([0.0, -0.0]), signed, st.integers(-3, 3))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(signed, min_size=1, max_size=12), min_size=1, max_size=3),
    st.lists(starts, min_size=1, max_size=4),
    st.data(),
)
def test_memoised_folds_equal_the_strict_fold(arrays, start_values, data):
    arrays = [frozen(values) for values in arrays]
    # Every (fold, start, array) twice in a drawn order: the second is a
    # hit, and a start equal to another (0 and 0.0) may hit the other's.
    calls = [
        (fold, start, values)
        for fold in (fold_add, fold_sub)
        for start in start_values
        for values in arrays
    ] * 2
    for fold, start, values in data.draw(st.permutations(calls)):
        ufunc = np.add if fold is fold_add else np.subtract
        assert fold(start, values).hex() == strict(ufunc, start, values).hex()


def test_the_two_zeros_are_kept_apart(fresh_memo):
    negative, positive = frozen([-0.0]), frozen([0.0])
    for _ in range(2):
        assert fold_add(0.0, negative).hex() == "0x0.0p+0"
        assert fold_add(-0.0, negative).hex() == "-0x0.0p+0"
        assert fold_sub(0.0, positive).hex() == "0x0.0p+0"
        assert fold_sub(-0.0, positive).hex() == "-0x0.0p+0"
    assert len(fresh_memo) == 4


def test_a_read_only_array_hits(fresh_memo):
    values = frozen([0.1, 0.2, 0.3])
    # A view, even of a read-only owner, is not admitted: split pieces
    # are fresh views every time, so it would never be asked for again.
    view = values[1:]
    first = fold_add(1.0, values), fold_add(1.0, view)
    assert len(fresh_memo) == 1
    # Plant a wrong result: only a hit can return it.
    for key, (array, _) in list(fresh_memo.items()):
        fresh_memo[key] = (array, 42.0)
    assert fold_add(1.0, values) == 42.0
    assert fold_add(1.0, view) == first[1]
    assert first == (strict(np.add, 1.0, values), strict(np.add, 1.0, view))


def test_writable_arrays_never_hit(fresh_memo):
    base = np.array([1.0, 2.0, 3.0])
    view = base[:]
    view.flags.writeable = False  # read-only, but its base is not
    for values in (base, view):
        before = fold_add(0.5, values), fold_sub(0.5, values)
        base[0] += 1.0
        assert fold_add(0.5, values) == before[0] + 1.0
        assert fold_sub(0.5, values) == before[1] - 1.0
        budget = fold_add(0.0, values)
        assert consume_front(make_block(values), budget)[1:] == (0.0, True)
        base[0] += 1.0  # the same budget no longer takes the block whole
        assert consume_front(make_block(values), budget)[2] is False
    assert fresh_memo == {}


@settings(max_examples=300, deadline=None)
@given(blocks_and_budgets())
def test_memoised_whole_take_matches_the_scan(case):
    """Blocks sharing one read-only array: the second take of a block
    that fits is a memo hit, and equals the scan either way."""
    weights, budget = case
    shared = frozen(weights)
    for _ in range(2):
        assert outcome(consume_front, shared, budget) == outcome(
            scan_consume_front, shared, budget
        )


@pytest.mark.parametrize(
    "weights, budget",
    [
        ([1.0, 2.0, 3.0], 6.0),  # fits with 0.0 left: stored, then hit
        ([1.0, 2.0, 3.0], math.nextafter(6.0, 0.0)),  # splits: never stored
        ([EPS, EPS], 2 * EPS),  # acc[n-1] == 1e-9 exactly
        ([EPS, 5.0], 2 * EPS),
        ([0.1, 0.2, 0.3], 0.6),  # inexact steps, countdown lands on 0.0
        ([0.1, 0.2, 0.3], math.nextafter(0.6, 0.0)),  # one ulp short
    ],
)
def test_memoised_whole_take_boundary(fresh_memo, weights, budget):
    shared = frozen(weights)
    for _ in range(3):
        assert outcome(consume_front, shared, budget) == outcome(
            scan_consume_front, shared, budget
        )
    fits = outcome(scan_consume_front, shared, budget)[2]
    assert len(fresh_memo) == (1 if fits else 0)


def untraced(weights) -> RecordBlock:
    block = make_block(weights)
    block.traces = []
    return block


def queue_outcome(queue_cls, capacity: float, head, weights):
    """Push a block of ``head`` then one of ``weights``; spell what the
    queue holds and what the overflow said."""
    queue = queue_cls("q", capacity_weight=capacity)
    over = None
    for values in (head, weights):
        block = untraced(values)
        try:
            if queue_cls is RecordQueue:
                for record in block.materialize():
                    queue.push(record, at_time=1.0)
            else:
                queue.push_block(block, at_time=1.0)
        except ConnectionDropped as dropped:
            over = str(dropped)
            break
    return (
        float(queue.queued_weight).hex(),
        float(queue.pushed_weight).hex(),
        over,
    )


@pytest.mark.parametrize("nudge", [-math.inf, 0.0, math.inf])
def test_memoised_occupancy_at_the_capacity_boundary(fresh_memo, nudge):
    """Capacity on the occupancy fold's total, one ulp below, one above:
    the overflow pre-check and the push (a memo hit after the pre-check
    or an earlier push) agree with the record-at-a-time queue."""
    head, weights = frozen([0.7]), frozen([0.1, 0.2, 0.3])
    total = strict(np.add, 0.7, weights)
    capacity = total if nudge == 0.0 else math.nextafter(total, nudge)
    expected = queue_outcome(RecordQueue, capacity, [0.7], [0.1, 0.2, 0.3])
    for _ in range(2):
        queue = DriverQueue("q", capacity_weight=capacity)
        queue.push_block(untraced(head))
        over = queue.overflow_index(weights)
        assert over == (2 if nudge == -math.inf else None)
        assert queue.overflow_index(weights) == over
        assert queue_outcome(DriverQueue, capacity, head, weights) == expected


# -- emitted arrays stay read-only ---------------------------------------


def make_generator(profile, keys=8):
    queue = DriverQueue("q")
    generator = DataGenerator(
        sim=Simulator(),
        queue=queue,
        profile=profile,
        query=WindowedAggregationQuery(keys=UniformKeys(keys)),
        rng=RngRegistry(0).stream("g"),
        config=GeneratorConfig(instances=1),
        share=1.0,
    )
    return generator, queue


@pytest.mark.parametrize(
    "profile, reused",
    [
        (ConstantRate(1000.0), True),
        (DiurnalRate(low=100.0, high=1100.0, period_s=20.0), False),
    ],
)
def test_generator_reuses_its_array_while_the_weight_is_unchanged(
    profile, reused
):
    generator, queue = make_generator(profile)
    generator.start()
    generator.sim.run_until(20.0)
    arrays = [block.weights for block in queue.pull_blocks(math.inf)]
    assert len(arrays) > 300
    assert not any(array.flags.writeable for array in arrays)
    same = [a is b for a, b in zip(arrays, arrays[1:])]
    assert all(same) if reused else not any(same)


def assert_frozen(array: np.ndarray) -> None:
    with pytest.raises(ValueError):
        array[0] = 1.0


def test_a_write_to_an_emitted_array_raises_on_every_split_and_shed_path():
    generator, queue = make_generator(ConstantRate(1000.0))
    for now in (0.0, 0.05, 0.1, 0.15):
        generator._emit_dense(PURCHASES, 8.0, now)  # 8 cohorts of 1.0
    emitted = queue._items[0].weights
    original = emitted.copy()
    assert all(block.weights is emitted for block in queue._items)
    assert_frozen(emitted)
    # A clean prefix is a view of the emitted array, read-only too.
    (prefix,) = queue.pull_blocks(2.0)
    assert prefix.weights.base is emitted
    assert_frozen(prefix.weights)
    # consume_front splits a cohort, then takes the remainder whole.
    (split,) = queue.pull_blocks(1.5)
    assert split.weights.tolist() == [1.0, 0.5]
    assert [len(b) for b in queue.pull_blocks(4.5)] == [5]
    # Shed a whole cohort and split the next, at the head and the tail.
    assert queue.shed(1.2, drop_oldest=True) == 1.2
    assert queue.shed(1.2, drop_oldest=False) == 1.2
    head, middle, tail = queue._items
    assert head.weights.tolist() == [0.8] + [1.0] * 6
    assert tail.weights.tolist() == [1.0] * 6 + [0.8]
    # Storm's drain splits a block with the same consume_front.
    assert middle.weights is emitted
    taken, budget, emptied = consume_front(middle, 0.5)
    assert (taken.weights.tolist(), budget, emptied) == ([0.5], 0.0, False)
    for piece in (split, head, tail, taken, middle):
        assert piece.weights.base is not emitted
    assert np.array_equal(emitted, original)
    assert_frozen(emitted)
    assert_frozen(prefix.weights)


def test_the_memo_stays_bounded(fresh_memo, monkeypatch):
    monkeypatch.setattr(batch, "MEMO_SIZE", 4)
    values = frozen([1.0, 2.0])
    for start in range(10):
        assert fold_add(float(start), values) == start + 3.0
        assert 1 <= len(fresh_memo) <= 4
