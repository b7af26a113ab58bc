"""``SourceSet.pull_batch`` against the record-at-a-time pull it replaced.

Twin :class:`QueueSet` fleets are fed identical cohorts -- blocks into
production :class:`DriverQueue` s, the same cohorts as records into
:class:`~tests.oracle.queues.RecordQueue` s; one is pulled through the
production ``pull_batch``, the other through the oracle ``source_pull``
(:mod:`tests.oracle.kernels`).  After every pull the
expanded cohort sequences, ingest stamps, trace marks, the round-robin
cursor, the disconnect table and every queue ledger must agree, floats
by ``float.hex``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import RecordBlock
from repro.core.queues import DriverQueue, QueueSet
from repro.engines.operators.source import SourceSet
from repro.obs.trace import EventTrace

from tests.oracle.kernels import source_pull
from tests.oracle.queues import RecordQueue

LEDGERS = ("queued_weight", "pulled_weight", "watermark")


def cohort(record) -> tuple:
    """One pulled cohort, floats bit-for-bit, trace by id."""
    trace = record.trace
    return (
        record.key, float(record.weight).hex(), record.event_time,
        record.stream, record.ingest_time,
        None if trace is None else trace.trace_id,
    )


class SourcePair:
    """A production and an oracle source over twin queue fleets."""

    def __init__(self, n_queues: int) -> None:
        self.fleets = [
            QueueSet([kind(f"q{i}") for i in range(n_queues)])
            for kind in (DriverQueue, RecordQueue)
        ]
        self.production = SourceSet(self.fleets[0])
        self.oracle = SourceSet(self.fleets[1])
        self.traces: Tuple[List[EventTrace], List[EventTrace]] = ([], [])
        self.clock = 0.0

    def push(
        self, queue: int, weights: List[float], traced: Tuple[int, ...] = ()
    ) -> None:
        """The same block into queue ``queue`` of both fleets; cohorts
        listed in ``traced`` carry (twin) traces."""
        self.clock += 0.05
        for fleet, traces in zip(self.fleets, self.traces):
            riders = []
            for index in traced:
                trace = EventTrace(
                    len(traces), index, "purchases", weights[index]
                )
                trace.mark("created", self.clock)
                traces.append(trace)
                riders.append((index, trace))
            block = RecordBlock(
                np.arange(len(weights), dtype=np.int64),
                np.array(weights, dtype=np.float64),
                value=1.0,
                event_time=self.clock,
                stream="purchases",
                traces=riders,
            )
            target = fleet.queues[queue]
            if isinstance(target, RecordQueue):
                for record in block.materialize():
                    target.push(record, at_time=self.clock)
            else:
                target.push_block(block, at_time=self.clock)

    def disconnect(self, queue: int, until: float) -> None:
        self.production.disconnect(queue, until)
        self.oracle.disconnect(queue, until)

    def pull(self, budget: float, now: Optional[float] = None) -> List[tuple]:
        now = self.clock if now is None else now
        blocks = self.production.pull_batch(budget, ingest_time=now)
        records = source_pull(self.oracle, budget, ingest_time=now)
        got = [cohort(r) for block in blocks for r in block.materialize()]
        assert got == [cohort(r) for r in records]
        assert all(b.ingest_time == now for b in blocks)
        self.check()
        return got

    def check(self) -> None:
        assert self.production._next == self.oracle._next
        assert self.production._disconnected == self.oracle._disconnected
        for mine, theirs in zip(*self.traces):
            assert (mine.trace_id, mine.marks, mine.dropped) == (
                theirs.trace_id, theirs.marks, theirs.dropped,
            )
        for mine, theirs in zip(self.fleets[0], self.fleets[1]):
            for name in LEDGERS:
                assert (
                    float(getattr(mine, name)).hex()
                    == float(getattr(theirs, name)).hex()
                ), (mine.name, name)


def test_budget_splits_a_cohort_and_the_trace_rides_the_first_part():
    pair = SourcePair(2)
    pair.push(0, [0.5, 0.25, 4.0, 1.0], traced=(2,))
    pair.push(1, [0.1, 0.2], traced=(0, 1))
    # share = 1.5: queue 0 yields 0.5 + 0.25 + 0.75 of the traced 4.0.
    first = pair.pull(3.0)
    assert [c[1] for c in first[:3]] == [
        (0.5).hex(), (0.25).hex(), (0.75).hex(),
    ]
    assert first[2][5] == 0  # the trace left with the first part
    rest = pair.pull(100.0)
    assert all(c[5] is None for c in rest if c[0] == 2)
    assert pair.fleets[0].total_queued_weight == 0.0


def test_uneven_queues_share_the_budget_by_max_weight():
    # One deep queue, two shallow ones: the per-round share stays
    # max_weight / n while the remaining budget shrinks.
    pair = SourcePair(3)
    pair.push(0, [10.0] * 8)
    pair.push(1, [0.3, 0.3])
    pair.push(2, [0.7])
    pulled = pair.pull(30.0)
    assert float.fromhex(pulled[0][1]) == 10.0
    pair.pull(30.0)
    pair.pull(1e9)


def test_disconnected_queue_is_skipped_then_drained():
    pair = SourcePair(3)
    for queue in range(3):
        pair.push(queue, [1.0, 2.0, 3.0], traced=(1,))
    pair.disconnect(1, until=10.0)
    during = pair.pull(50.0, now=5.0)
    assert len(during) == 6  # queues 0 and 2 only
    assert pair.production._disconnected == {1: 10.0}
    after = pair.pull(50.0, now=10.0)  # `ingest_time < until` is strict
    assert len(after) == 3
    assert pair.production._disconnected == {}


def test_idle_round_and_empty_budget():
    pair = SourcePair(2)
    assert pair.pull(5.0) == []  # every queue idle: n idle rounds, stop
    assert pair.production._next == 0  # two rounds, back to the start
    pair.push(1, [1.0])
    assert pair.pull(0.0) == []
    assert pair.pull(-1.0) == []
    assert len(pair.pull(5.0)) == 1
    pair.disconnect(0, until=1e9)
    pair.disconnect(1, until=1e9)
    pair.push(0, [1.0])
    assert pair.pull(5.0) == []  # all disconnected: idle, nothing pulled


weights = st.lists(
    st.floats(0.01, 40.0, allow_nan=False), min_size=1, max_size=9
)
step = st.one_of(
    st.tuples(st.just("push"), st.integers(0, 3), weights),
    st.tuples(st.just("pull"), st.floats(0.0, 120.0, allow_nan=False)),
    st.tuples(st.just("drain")),
    st.tuples(st.just("disconnect"), st.integers(0, 3),
              st.floats(0.0, 1.0, allow_nan=False)),
)


@given(n_queues=st.integers(1, 4), steps=st.lists(step, max_size=40))
@settings(max_examples=150, deadline=None)
def test_random_schedules_agree(n_queues, steps):
    pair = SourcePair(n_queues)
    for op, *args in steps:
        if op == "push":
            queue, ws = args
            pair.push(queue % n_queues, ws, traced=tuple(range(0, len(ws), 3)))
        elif op == "pull":
            pair.pull(args[0])
        elif op == "drain":
            pair.pull(1e12)
        else:
            queue, ahead = args
            pair.disconnect(queue, until=pair.clock + ahead)
    pair.pull(1e12, now=pair.clock + 2.0)  # past every disconnect
    assert pair.fleets[0].total_queued_weight == 0.0
