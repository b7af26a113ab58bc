"""The columnar queue against the record-at-a-time queue, ledger by ledger.

A :class:`DriverQueue` fed ``push_block`` / ``pull_blocks`` must leave
every ledger exactly where the reference :class:`~tests.oracle.queues.
RecordQueue` fed the materialised records through ``push`` / ``pull``
leaves it -- after *every* step, not only at the end of a trial.
``push_block`` takes its occupancy from the overflow pre-check and
``pull_blocks`` defers the occupancy countdown to the end of the pull;
both are pinned here by ``float.hex``.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import RecordBlock, fold_add
from repro.core.queues import DriverQueue
from repro.core.records import Record
from repro.sim.failures import ConnectionDropped

from tests.cohorts import cohort, expand
from tests.oracle.queues import RecordQueue

LEDGERS = (
    "queued_weight", "pushed_weight", "pulled_weight", "shed_weight",
    "lost_weight", "watermark", "frontier_event_time", "dropped",
)


def cohorts(records: List[Record]) -> List[tuple]:
    """Pulled records as a cohort sequence, floats bit-for-bit."""
    return [(r.key, float(r.weight).hex(), r.event_time, r.stream) for r in records]


class QueuePair:
    """The production queue and the reference queue driven in lockstep."""

    def __init__(self, capacity: float = float("inf")) -> None:
        self.blocks = DriverQueue("q", capacity_weight=capacity)
        self.records = RecordQueue("q", capacity_weight=capacity)
        self.clock = 0.0

    def check(self) -> None:
        for name in LEDGERS:
            got = getattr(self.blocks, name)
            want = getattr(self.records, name)
            if isinstance(want, float):
                got, want = float(got).hex(), float(want).hex()
            assert got == want, name
        assert self.blocks.head_push_time() == self.records.head_push_time()

    def _push(self, into_records, into_blocks) -> Optional[str]:
        """Run both pushes; the (identical) overflow message, if any."""
        raised = []
        for push in (into_records, into_blocks):
            try:
                push()
                raised.append(None)
            except ConnectionDropped as drop:
                raised.append((str(drop), drop.at_time))
        assert raised[0] == raised[1]
        self.check()
        return raised[0][0] if raised[0] else None

    def push_block(self, weights: List[float]) -> Optional[str]:
        self.clock += 1.0
        now = self.clock
        block = RecordBlock(
            np.arange(len(weights), dtype=np.int64),
            np.array(weights, dtype=np.float64),
            value=1.0,
            event_time=now,
            stream="purchases",
        )
        records = block.materialize()

        def one_by_one() -> None:
            for record in records:
                self.records.push(record, at_time=now)

        return self._push(
            one_by_one, lambda: self.blocks.push_block(block, at_time=now)
        )

    def push_record(self, weight: float) -> Optional[str]:
        """One cohort: a block of one here, a Record in the reference."""
        self.clock += 1.0
        now = self.clock
        record = Record(key=7, value=1.0, event_time=now, weight=weight)
        return self._push(
            lambda: self.records.push(record, at_time=now),
            lambda: self.blocks.push_block(
                cohort(key=7, event_time=now, weight=weight), at_time=now
            ),
        )

    def pull(self, budget: float) -> List[tuple]:
        got = cohorts(expand(self.blocks.pull_blocks(budget)))
        assert got == cohorts(self.records.pull(budget))
        self.check()
        return got

    def shed(self, weight: float, drop_oldest: bool) -> None:
        shed = self.blocks.shed(weight, drop_oldest=drop_oldest)
        assert shed == self.records.shed(weight, drop_oldest=drop_oldest)
        self.check()

    def lose(self) -> None:
        assert self.blocks.lose_queued() == self.records.lose_queued()
        self.check()


weight = st.one_of(st.floats(1e-3, 50.0), st.floats(1e-3, 50.0), st.floats(1e-12, 1e-9))
step = st.one_of(
    st.tuples(st.just("push_block"), st.lists(weight, min_size=1, max_size=8)),
    st.tuples(st.just("push_block"), st.lists(weight, min_size=1, max_size=8)),
    st.tuples(st.just("push_record"), weight),
    st.tuples(st.just("pull"), st.floats(0.0, 200.0)),
    st.tuples(st.just("pull"), st.floats(0.0, 200.0)),
    st.tuples(st.just("pull_all"), st.just(None)),
    st.tuples(st.just("shed"), st.tuples(st.floats(0.0, 60.0), st.booleans())),
    st.tuples(st.just("lose"), st.just(None)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.just(float("inf")), st.floats(20.0, 400.0)),
    st.lists(step, min_size=1, max_size=25),
)
def test_random_interleavings_keep_every_ledger_equal(capacity, steps):
    pair = QueuePair(capacity)
    for name, arg in steps:
        if name == "push_block":
            pair.push_block(arg)
        elif name == "push_record":
            pair.push_record(arg)
        elif name == "pull":
            pair.pull(arg)
        elif name == "pull_all":
            # Exactly what is queued, as the engine asks when it keeps up.
            pair.pull(pair.blocks.queued_weight)
        elif name == "shed":
            pair.shed(*arg)
        else:
            pair.lose()


class TestPull:
    def test_pull_that_drains_exactly(self):
        pair = QueuePair()
        pair.push_block([1.0, 2.0, 3.0])
        pair.push_block([4.0])
        assert len(pair.pull(10.0)) == 4
        assert pair.blocks.queued_weight == 0.0
        assert pair.blocks.watermark == pair.blocks.frontier_event_time

    def test_drained_queue_forgets_float_residue(self):
        pair = QueuePair()
        pair.push_block([0.1, 0.2, 0.3])  # 0.1 + 0.2 + 0.3 - 0.3 - ... != 0
        pair.pull(5.0)
        assert pair.blocks.queued_weight == 0.0

    def test_pull_that_leaves_residue_in_a_non_empty_queue(self):
        pair = QueuePair()
        pair.push_block([0.1, 0.2, 0.3])
        pair.push_block([0.7, 0.1])
        pair.pull(0.1 + 0.2 + 0.3 + 0.7)
        # Not 0.1: the countdown's own rounding, identical on both paths.
        assert pair.blocks.queued_weight == pair.records.queued_weight != 0.0
        assert len(pair.blocks._items) == 1

    def test_three_blocks_in_one_pull_the_last_one_split(self):
        pair = QueuePair()
        pair.push_block([1.5, 2.5])
        pair.push_block([0.3, 0.3, 0.3])
        pair.push_block([5.0, 7.0])
        got = pair.pull(4.0 + 0.9 + 5.0 + 2.0)
        assert len(got) == 7 and float.fromhex(got[-1][1]) < 7.0
        assert len(pair.blocks._items) == 1
        pair.pull(100.0)
        assert pair.blocks.queued_weight == 0.0

    def test_record_head_between_two_blocks(self):
        pair = QueuePair()
        pair.push_block([0.1, 0.2])
        pair.push_record(0.3)
        pair.push_block([0.4, 0.5])
        # Stops inside the last block: block, single cohort and block
        # weights must come off the occupancy in exactly that order.
        got = pair.pull(0.1 + 0.2 + 0.3 + 0.4 + 0.25)
        assert len(got) == 5
        pair.pull(0.1)
        pair.pull(9.0)
        assert pair.blocks.queued_weight == 0.0

    def test_split_record_head_behind_a_block(self):
        pair = QueuePair()
        pair.push_block([0.1, 0.2])
        pair.push_record(3.0)
        pair.push_block([0.4])
        assert len(pair.pull(1.3)) == 3
        assert len(pair.pull(50.0)) == 2

    def test_clamp_of_a_negative_residue(self):
        pair = QueuePair()
        pair.push_block([0.1, 0.2, 0.3])
        pair.push_block([1.0])
        pair.blocks._queued_weight = pair.records._queued_weight = 0.5
        pair.pull(0.6)  # counts 0.6 off a forged 0.5: clamped, not negative
        assert pair.blocks.queued_weight == 0.0 and pair.blocks._items


class TestPush:
    def test_overflow_at_cohort_j_admits_the_prefix(self):
        pair = QueuePair(capacity=10.0)
        pair.push_block([0.1, 0.2])
        before = pair.blocks.queued_weight
        message = pair.push_block([3.0, 4.0, 5.0, 6.0])
        assert message == "queue q overflowed (12 events > capacity 10)"
        assert pair.blocks.dropped
        # acc[j]: the occupancy fold up to the overflowing cohort.
        assert pair.blocks.queued_weight == fold_add(before, np.array([3.0, 4.0]))
        assert len(pair.blocks._items) == 2 and len(pair.blocks._items[1]) == 2

    def test_overflow_at_the_first_cohort_admits_nothing(self):
        pair = QueuePair(capacity=10.0)
        pair.push_block([9.5])
        assert pair.push_block([1.0, 0.1]) == (
            "queue q overflowed (10 events > capacity 10)"
        )
        assert len(pair.blocks._items) == 1
        assert pair.blocks.queued_weight == 9.5

    def test_filling_to_exactly_capacity_is_not_an_overflow(self):
        pair = QueuePair(capacity=10.0)
        assert pair.push_block([2.5, 2.5, 5.0]) is None
        assert pair.blocks.queued_weight == 10.0
        assert pair.blocks.overflow_index(np.array([1e-3])) == 0
        assert pair.push_block([math.ulp(10.0) / 4]) is None  # absorbed: still 10.0

    def test_unbounded_capacity(self):
        pair = QueuePair()
        for _ in range(3):
            assert pair.push_block([1e15, 0.1, 0.2]) is None
        assert pair.blocks.overflow_index(np.array([1e300])) is None
        pair.pull(1e15)
        pair.pull(math.inf)
        assert pair.blocks.queued_weight == 0.0

    def test_push_after_the_drop_raises_on_both(self):
        pair = QueuePair(capacity=1.0)
        pair.push_block([2.0])
        assert pair.push_block([0.1]) == "queue q connection already dropped"

    def test_overflow_index_agrees_with_push_block(self):
        queue = DriverQueue("q", capacity_weight=10.0)
        queue.push_block(
            RecordBlock(np.arange(2), np.array([1.0, 2.0]), 1.0, 1.0, "ads")
        )
        assert queue.overflow_index(np.array([3.0, 4.0])) is None
        assert queue.overflow_index(np.array([3.0, 4.0, 0.5])) == 2
        assert queue.overflow_index(np.array([])) is None
        assert queue.queued_weight == 3.0  # a pure pre-check
