"""The record-at-a-time driver queue that left ``src/``.

``DriverQueue.push`` / ``pull`` and the ``Record`` branches of ``shed``
and ``lose_queued`` (61fc6e0), verbatim: one :class:`Record` per cohort,
a split cohort becomes a new ``Record``.  Production queues hold blocks
only; this is the reference they are compared against
(``tests/core/test_queue_blocks.py``) and the queue the oracle kernels
``source_pull`` / ``emit_dense`` run on (``test_source_pull.py``,
``test_dense_emit.py``).  Everything that does not touch an item --
watermark, frontier, push-time ledger reads, ``retire`` -- is inherited.
"""

from __future__ import annotations

from typing import List

from repro.core.queues import DriverQueue
from repro.core.records import Record
from repro.sim.failures import ConnectionDropped


class RecordQueue(DriverQueue):
    """FIFO queue of :class:`Record` cohorts, one per push."""

    def push(self, record: Record, at_time: float = float("nan")) -> None:
        """Generator side: enqueue one cohort.

        Raises :class:`ConnectionDropped` when the queue overflows --
        the paper's SUT-cannot-sustain failure condition.
        """
        if self.dropped:
            raise ConnectionDropped(
                f"queue {self.name} connection already dropped", at_time=at_time
            )
        if self._queued_weight + record.weight > self.capacity_weight:
            self.dropped = True
            raise ConnectionDropped(
                f"queue {self.name} overflowed "
                f"({self._queued_weight + record.weight:.0f} events > "
                f"capacity {self.capacity_weight:.0f})",
                at_time=at_time,
            )
        self._items.append(record)
        # NaN at_time (no driver clock supplied) falls back to the
        # cohort's event_time -- the pre-disorder-aware behaviour.
        push_time = at_time if at_time == at_time else record.event_time
        self._push_times.append(push_time)
        if record.trace is not None:
            record.trace.mark("enqueued", push_time)
        self._queued_weight += record.weight
        self.pushed_weight += record.weight
        if record.event_time > self._frontier_event_time:
            self._frontier_event_time = record.event_time

    def pull(self, max_weight: float) -> List[Record]:
        """SUT side: dequeue up to ``max_weight`` events (FIFO).

        The head cohort is split if only part of it fits the budget;
        total weight is conserved exactly.
        """
        if max_weight <= 0:
            return []
        pulled: List[Record] = []
        remaining = max_weight
        while self._items and remaining > 1e-9:
            head = self._items[0]
            if head.weight <= remaining:
                self._items.popleft()
                self._push_times.popleft()
                taken = head
            else:
                taken = Record(
                    key=head.key,
                    value=head.value,
                    event_time=head.event_time,
                    weight=remaining,
                    stream=head.stream,
                    # The trace leaves with the first (admitted) part so
                    # it observes the earliest ingestion of the cohort.
                    trace=head.trace,
                )
                head.trace = None
                head.weight -= remaining
            self._queued_weight -= taken.weight
            self.pulled_weight += taken.weight
            remaining -= taken.weight
            if taken.event_time > self._last_pulled_event_time:
                self._last_pulled_event_time = taken.event_time
            pulled.append(taken)
        if not self._items:
            # Clear float residue so emptiness and zero weight agree.
            self._queued_weight = 0.0
        elif self._queued_weight < 0.0:
            self._queued_weight = 0.0
        return pulled

    def shed(self, max_weight: float, drop_oldest: bool = True) -> float:
        """Load shedding: discard up to ``max_weight`` queued events.

        ``drop_oldest`` sheds from the head (bounding queueing delay),
        otherwise from the tail (favouring already-waiting history).  A
        boundary cohort is split so exactly the requested weight is
        shed.  Shed cohorts leave the weight ledger through
        :attr:`shed_weight` (``pushed == pulled + queued + shed``) and
        any rider trace is marked dropped -- shed data must never look
        like ingested data.  Returns the weight actually shed.
        """
        if max_weight <= 0 or not self._items:
            return 0.0
        shed = 0.0
        remaining = max_weight
        while self._items and remaining > 1e-9:
            victim = self._items[0] if drop_oldest else self._items[-1]
            if victim.weight <= remaining:
                if drop_oldest:
                    self._items.popleft()
                    self._push_times.popleft()
                else:
                    self._items.pop()
                    self._push_times.pop()
                if victim.trace is not None:
                    victim.trace.drop()
                dropped = victim.weight
            else:
                # Partial shed: the cohort survives at reduced weight
                # and keeps its trace -- part of the traced arrival is
                # still queued and may yet complete its lifecycle.
                victim.weight -= remaining
                dropped = remaining
            self._queued_weight -= dropped
            self.shed_weight += dropped
            shed += dropped
            remaining -= dropped
        if not self._items:
            self._queued_weight = 0.0
        elif self._queued_weight < 0.0:
            self._queued_weight = 0.0
        return shed

    def lose_queued(self) -> float:
        """Driver-side data loss: everything queued leaves the ledger
        through :attr:`lost_weight`; riding traces are marked dropped.
        Returns the weight lost."""
        if not self._items:
            return 0.0
        for record in self._items:
            if record.trace is not None:
                record.trace.drop()
        self._items.clear()
        self._push_times.clear()
        lost = self._queued_weight
        self.lost_weight += lost
        self._queued_weight = 0.0
        return lost
