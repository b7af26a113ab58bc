"""Oracle engines: the production engines on the record-at-a-time path.

Each oracle engine subclasses its production engine and differs in
exactly what the retired scalar mode differed in *inside the engine*:
the stores are the dict-of-accumulator stores of
:mod:`tests.oracle.stores`, ``_process_batch`` is the record-at-a-time
fallback production's base class used to carry (:func:`materialize_all`
-> ``_process``, now :class:`_RecordAtATime`), and ``_process`` -- and
Storm's in-flight drain -- are the per-record loops moved verbatim from
``src/`` (6d71cc3).  Blocks still arrive at the
engine door: generator, queues and source run the production code (they
are compared at unit level in ``test_dense_emit.py`` /
``test_source_pull.py`` and ``tests/core/test_queue_blocks.py``).
Windows accumulate -- and Spark's partials merge -- in dicts of per-key
accumulators; a close copies them into production's ``WindowContents``
columns, from where the engines' own ``_close_window`` bodies and output
builders take over (compared at unit level in ``test_close_kernels.py``).

Only public seams are used: the classes are registered through
``repro.engines.ENGINES`` for the duration of :func:`oracle_engines`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.batch import RecordBlock
from repro.core.records import Record
from repro.engines import ENGINES
from repro.engines.ext.heron import HeronEngine
from repro.engines.ext.samza import SamzaEngine
from repro.engines.flink import FlinkEngine
from repro.engines.spark import SparkEngine
from repro.engines.storm import SPOUT_PULL_PERIOD_TICKS, StormEngine

from tests.oracle.stores import (
    OracleBatchPartials,
    OracleJoinStore,
    OraclePartialMerger,
    OracleWindowStore,
)


def materialize_all(blocks: List[RecordBlock]) -> List[Record]:
    """Expand a list of blocks into records, in cohort order."""
    records: List[Record] = []
    for block in blocks:
        records.extend(block.materialize())
    return records


class _RecordAtATime:
    """Each tick's blocks reach a per-record ``_process`` as records.

    The records carry the cohorts' exact weights, times and traces, so
    a record-at-a-time engine runs with bitwise-identical numerics --
    just without the speed.
    """

    def _process_batch(self, blocks: List[RecordBlock], dt: float) -> None:
        self._process(materialize_all(blocks), dt)


class _OracleWindows(_RecordAtATime):
    """Build the oracle store; fold one record at a time."""

    def _window_store(self):
        store_cls = OracleJoinStore if self._is_join else OracleWindowStore
        return store_cls(self.query.window)

    def _process(self, records: List[Record], dt: float) -> None:
        for record in records:
            self._store.add(record)
        self._update_state_usage(self._store.stored_weight())


class OracleFlinkEngine(_OracleWindows, FlinkEngine):
    pass


class OracleSamzaEngine(_OracleWindows, SamzaEngine):
    pass


class _RecordAtATimeStorm(_OracleWindows):
    def _process(self, records: List[Record], dt: float) -> None:
        # The spout over-pulls into the executor queues; bolts drain them
        # at processing capacity in _on_tick_end.  Pulls arrive in
        # periodic bursts, so the surge detector sees the per-poll
        # average rate, not the instantaneous burst.
        period = SPOUT_PULL_PERIOD_TICKS
        weight = self._tick_ingest_weight
        self._detect_surge(weight / (dt * period), dt * period)
        if records:
            self._inflight_tick_mins.append(
                [min(r.event_time for r in records), len(records)]
            )
        for record in records:
            self._inflight.append(record)
            self._inflight_weight += record.weight

    def _drain_inflight(self, dt: float) -> None:
        budget = self._capacity_events_per_s() * dt
        while self._inflight and budget > 1e-9:
            head = self._inflight[0]
            if head.weight <= budget:
                self._inflight.popleft()
                taken = head
                # The head record belongs to the oldest poll in flight.
                poll = self._inflight_tick_mins[0]
                poll[1] -= 1
                if poll[1] == 0:
                    self._inflight_tick_mins.popleft()
            else:
                taken = Record(
                    key=head.key,
                    value=head.value,
                    event_time=head.event_time,
                    weight=budget,
                    stream=head.stream,
                    ingest_time=head.ingest_time,
                    # A trace rides the first drained part of its cohort
                    # (same convention as split_cohort / queue splits).
                    trace=head.trace,
                )
                head.trace = None
                head.weight -= budget
            self._inflight_weight -= taken.weight
            budget -= taken.weight
            self._store.add(taken)
        self._inflight_weight = max(0.0, self._inflight_weight)


class OracleStormEngine(_RecordAtATimeStorm, StormEngine):
    pass


class OracleHeronEngine(_RecordAtATimeStorm, HeronEngine):
    pass


class OracleSparkEngine(_RecordAtATime, SparkEngine):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if not self._is_join:
            self._partials = OracleBatchPartials(self.query.window)

    def _window_store(self):
        if self._is_join:
            return OracleJoinStore(self.query.window)
        return OraclePartialMerger(self.query.window)

    def _process(self, records: List[Record], dt: float) -> None:
        if self._is_join:
            for record in records:
                self._store.add(record)
                self._batch_weight += record.weight
            self._update_state_usage(self._store.stored_weight())
        else:
            for record in records:
                self._partials.add(record)


ORACLE_ENGINES = {
    "flink": OracleFlinkEngine,
    "storm": OracleStormEngine,
    "spark": OracleSparkEngine,
    "heron": OracleHeronEngine,
    "samza": OracleSamzaEngine,
}


@contextmanager
def oracle_engines() -> Iterator[None]:
    """Run trials started inside the block on the oracle engines."""
    saved = dict(ENGINES)
    ENGINES.update(ORACLE_ENGINES)
    try:
        yield
    finally:
        ENGINES.clear()
        ENGINES.update(saved)
