"""``DataGenerator._emit_dense`` against the per-key loop it replaced.

Twin generators (own queue, own sampler and trace log) emit the same
ticks: one through the production block emission into a
:class:`DriverQueue`, the other through the oracle ``emit_dense`` loop
(:mod:`tests.oracle.kernels`) that pushed one ``Record`` per catalog key
into a :class:`~tests.oracle.queues.RecordQueue`.  Queue ledgers, the sampler's counter
and id sequence, every trace and the queued cohort sequence must agree
after every emission, floats by ``float.hex``.
"""

from __future__ import annotations

from typing import List, Optional

import pytest

from repro.core.generator import DataGenerator, GeneratorConfig
from repro.core.queues import DriverQueue
from repro.core.records import ADS, PURCHASES
from repro.obs.trace import TraceLog, TraceSampler
from repro.sim.failures import ConnectionDropped
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.workloads.keys import NormalKeys, SingleKey, UniformKeys
from repro.workloads.profiles import ConstantRate
from repro.workloads.queries import WindowedAggregationQuery

from tests.cohorts import expand
from tests.oracle.kernels import emit_dense
from tests.oracle.queues import RecordQueue

LEDGERS = ("queued_weight", "pushed_weight", "frontier_event_time", "dropped")


def twin(
    keys, sample_rate: Optional[int], capacity: float, queue_kind
) -> DataGenerator:
    sampler = (
        None if sample_rate is None else TraceSampler(sample_rate, TraceLog())
    )
    return DataGenerator(
        sim=Simulator(),
        queue=queue_kind("q", capacity_weight=capacity),
        profile=ConstantRate(1000.0),
        query=WindowedAggregationQuery(keys=keys),
        rng=RngRegistry(0).stream("g"),
        config=GeneratorConfig(instances=1),
        share=1.0,
        sampler=sampler,
    )


class EmitPair:
    def __init__(self, keys, sample_rate=None, capacity=float("inf")) -> None:
        self.production = twin(keys, sample_rate, capacity, DriverQueue)
        self.oracle = twin(keys, sample_rate, capacity, RecordQueue)

    def emit(self, stream: str, weight: float, now: float) -> Optional[str]:
        """One emission on both; the (identical) overflow, if any."""
        raised = []
        for call in (
            lambda: self.production._emit_dense(stream, weight, now),
            lambda: emit_dense(self.oracle, stream, weight, now),
        ):
            try:
                call()
                raised.append(None)
            except ConnectionDropped as drop:
                raised.append((str(drop), drop.at_time))
        assert raised[0] == raised[1]
        self.check()
        return raised[0][0] if raised[0] else None

    def check(self) -> None:
        mine, theirs = self.production, self.oracle
        for name in LEDGERS:
            got, want = getattr(mine.queue, name), getattr(theirs.queue, name)
            if isinstance(want, float):
                got, want = float(got).hex(), float(want).hex()
            assert got == want, name
        if mine.sampler is None:
            return
        assert mine.sampler._counter == theirs.sampler._counter
        assert mine.sampler._next_id == theirs.sampler._next_id
        assert traces(mine.sampler) == traces(theirs.sampler)

    def drain(self) -> List[tuple]:
        """Both queues' cohort sequences (equal), then emptied."""
        got, want = (
            [
                (r.key, r.value, float(r.weight).hex(), r.event_time,
                 r.stream, None if r.trace is None else r.trace.trace_id)
                for r in records
            ]
            for records in (
                expand(self.production.queue.pull_blocks(float("inf"))),
                self.oracle.queue.pull(float("inf")),
            )
        )
        assert got == want
        return got


def traces(sampler: TraceSampler) -> List[tuple]:
    return [
        (t.trace_id, t.key, t.stream, float(t.weight).hex(), t.marks, t.dropped)
        for t in sampler.log.started
    ]


@pytest.mark.parametrize(
    "keys", [NormalKeys(64), UniformKeys(7), SingleKey(num_keys=8, key=5)]
)
def test_no_sampler(keys):
    pair = EmitPair(keys)
    pair.emit(PURCHASES, 1234.5, 0.05)
    pair.emit(ADS, 0.1 + 0.2, 0.10)
    cohorts = pair.drain()
    assert len(cohorts) == 2 * len(keys.support()[0])
    assert {c[1] for c in cohorts if c[4] == ADS} == {0.0}


@pytest.mark.parametrize("sample_rate", [1, 3, 64, 1000])
def test_sampler_countdown_carries_over_ticks(sample_rate):
    # 64 cohorts per emission: rate 3 does not divide it, rate 1000
    # fires on the 16th emission only -- the countdown lives across
    # ticks and streams in the sampler, not in the emit.
    pair = EmitPair(NormalKeys(64), sample_rate)
    for tick in range(1, 21):
        pair.emit(PURCHASES, 500.0 + tick, 0.05 * tick)
        pair.emit(ADS, 50.0 * tick, 0.05 * tick)
    emitted = 20 * 2 * 64
    assert len(pair.production.sampler.log.started) == emitted // sample_rate
    cohorts = pair.drain()
    hits = [i for i, c in enumerate(cohorts) if c[5] is not None]
    assert hits == list(range(sample_rate - 1, emitted, sample_rate))


@pytest.mark.parametrize("sample_rate", [1, 3, 5])
@pytest.mark.parametrize("room", [0.0, 0.5, 2.5, 3.0, 6.5])
def test_overflow_quirk(sample_rate, room):
    """``ConnectionDropped`` at cohort ``j``: the prefix is admitted,
    cohort ``j``'s trace is taken if it was due, and the final ``sync``
    never runs -- the counter stays where the previous emission left it."""
    keys = UniformKeys(8)
    first = 8.0  # one cohort of weight 1.0 per key
    pair = EmitPair(keys, sample_rate, capacity=first + room)
    assert pair.emit(PURCHASES, first, 0.05) is None
    counter = pair.production.sampler._counter
    started = len(pair.production.sampler.log.started)
    message = pair.emit(PURCHASES, first, 0.10)
    assert message is not None and "overflowed" in message
    j = int(room)  # cohorts of weight 1.0: j fit, cohort j overflows
    assert pair.production.queue.pushed_weight == first + j
    assert pair.production.sampler._counter == counter  # sync skipped
    due = sample_rate - counter  # cohorts until the next hit
    hits = len(range(due - 1, j + 1, sample_rate))  # cohort j included
    assert len(pair.production.sampler.log.started) == started + hits
    # The connection stays dropped: both refuse the next emission alike.
    assert "already dropped" in pair.emit(ADS, 1.0, 0.15)
    pair.drain()
