"""In-memory queues between the data generators and the SUT sources.

Section III-B: "we add a queue between each data generator and the SUT's
source operators in order to even out the difference in the rates of
data generation and data ingestion"; each generator/queue pair shares a
driver machine, and queue data stays in memory.  Crucially (Section
III-C), *throughput is measured at these queues* and events are
timestamped at generation -- "the longer an event stays in a queue, the
higher its latency."

The queue also implements the failure rule of Section VI-A: "If the SUT
drops one or more connections to the data generator queue, then the
driver halts the experiment with the conclusion that the SUT cannot
sustain the given throughput."  A queue that exceeds its capacity models
exactly that connection drop.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

import numpy as np

from repro.core.batch import (
    OwedSum,
    RecordBlock,
    chain_sub,
    consume_front,
    fold_add,
    left_sum,
    owed_ledger,
)
from repro.sim.failures import ConnectionDropped


class DriverQueue:
    """FIFO queue of event cohorts between one generator and the SUT.

    Weights are fractional: a pull may split a cohort so that exactly
    the granted event budget is consumed, preserving total weight.
    """

    pushed_weight = owed_ledger(
        "pushed", "Weight ever admitted by a push (folded when read)."
    )
    pulled_weight = owed_ledger(
        "pulled", "Weight ever taken by a pull (folded when read)."
    )

    def __init__(
        self,
        name: str,
        capacity_weight: float = float("inf"),
    ) -> None:
        self.name = name
        self.capacity_weight = capacity_weight
        # One item kind: each push appends one RecordBlock (a generator
        # emission or a broker hop), split and trimmed in place by pulls
        # and sheds.
        self._items: Deque[RecordBlock] = deque()
        # Enqueue timestamp per queued cohort, parallel to _items.  The
        # queueing wait is measured against THIS clock, not event-time:
        # under the disorder workloads a late-but-freshly-pushed record
        # carries an old event_time, and conflating the two made the
        # sustainability criteria reject rates that were sustainable.
        self._push_times: Deque[float] = deque()
        self._queued_weight = 0.0
        # Only samplers and diagnostics read the two throughput ledgers,
        # so their per-block folds are owed until then.
        self._pushed = OwedSum()
        self._pulled = OwedSum()
        self.shed_weight = 0.0
        self.lost_weight = 0.0
        self._frontier_event_time = float("-inf")
        self._last_pulled_event_time = float("-inf")
        self.dropped = False
        self.retired = False
        """Set when the queue's generator is dead and the backlog has
        been accounted for: a retired+empty queue no longer holds the
        fleet watermark back (its frontier will never advance again)."""

    @property
    def queued_weight(self) -> float:
        """Events currently waiting in the queue."""
        return self._queued_weight

    @property
    def frontier_event_time(self) -> float:
        """Event-time of the newest record ever pushed."""
        return self._frontier_event_time

    @property
    def watermark(self) -> float:
        """Event-time through which the SUT has consumed this queue.

        If the queue is empty, everything generated so far has been
        ingested, so the watermark advances to the generation frontier.
        """
        if not self._items:
            return self._frontier_event_time
        return self._last_pulled_event_time

    def _occupancy_fold(self, weights: np.ndarray):
        """``(occupancy, over)`` of pushing cohorts of ``weights`` in
        order (the per-cohort pushes' strict left fold): ``occupancy``
        once every cohort before the first overflowing one is pushed,
        and ``over`` = ``(index, occupancy it would reach)`` of that
        cohort, None if all fit.

        Cohort weights are positive, so the whole block's fold -- a
        memoised :func:`~repro.core.batch.fold_add` -- decides "no
        overflow" alone; only an overflow, which ends the trial, folds
        cohort by cohort to find the culprit.
        """
        total = fold_add(self._queued_weight, weights)
        if total <= self.capacity_weight:
            return total, None
        acc = np.empty(len(weights) + 1)
        acc[0] = self._queued_weight
        acc[1:] = weights
        np.add.accumulate(acc, out=acc)
        over = int(np.nonzero(acc[1:] > self.capacity_weight)[0][0])
        return float(acc[over]), (over, float(acc[over + 1]))

    def overflow_index(self, weights: np.ndarray) -> Optional[int]:
        """Index of the first cohort whose push would overflow, or None.

        A pure pre-check for the generator's sampler and the broker's
        ledger: pushing cohorts of ``weights`` in order, which one
        trips the overflow test of :meth:`push_block`?  Returns 0 when
        the connection is already dropped.
        """
        if self.dropped:
            return 0
        if self.capacity_weight == float("inf") or len(weights) == 0:
            return None
        over = self._occupancy_fold(weights)[1]
        return None if over is None else over[0]

    def push_block(
        self, block: RecordBlock, at_time: float = float("nan")
    ) -> None:
        """Generator side: enqueue a whole columnar block at once.

        Semantically the record-at-a-time push of each cohort in turn
        (``tests/oracle/queues.py``): on overflow at cohort ``j`` the
        prefix ``[0, j)`` is admitted (ledgers, traces, frontier updated
        exactly as that loop would have left them) and
        :class:`ConnectionDropped` is raised -- the paper's
        SUT-cannot-sustain failure condition -- with the message that
        loop would have produced for cohort ``j``.
        """
        if self.dropped:
            raise ConnectionDropped(
                f"queue {self.name} connection already dropped", at_time=at_time
            )
        n = len(block)
        if n == 0:
            return
        push_time = at_time if at_time == at_time else block.event_time
        # The overflow pre-check *is* the occupancy fold (and, after the
        # sampler's `overflow_index` on the same array, a memo hit).
        occupancy, over = self._occupancy_fold(block.weights)
        admit = n if over is None else over[0]
        if admit:
            admitted = block if over is None else block.take_prefix(admit)
            self._items.append(admitted)
            self._push_times.append(push_time)
            for _, trace in admitted.traces:
                trace.mark("enqueued", push_time)
            self._queued_weight = occupancy
            self._pushed.owe(admitted.weights)
            if block.event_time > self._frontier_event_time:
                self._frontier_event_time = block.event_time
        if over is not None:
            self.dropped = True
            raise ConnectionDropped(
                f"queue {self.name} overflowed "
                f"({over[1]:.0f} events > "
                f"capacity {self.capacity_weight:.0f})",
                at_time=at_time,
            )

    def pull_blocks(self, max_weight: float) -> List[RecordBlock]:
        """SUT side: dequeue up to ``max_weight`` events (FIFO) as blocks.

        The head cohort is split if only part of it fits the budget;
        total weight is conserved exactly.  Bitwise-identical to the
        record-at-a-time pull over the expanded cohort sequence
        (``tests/oracle/queues.py``) -- :func:`~repro.core.batch.
        consume_front` replicates its head-take/split ladder, and the
        ledgers advance by the same strict left folds the per-cohort
        loop would have run.  Nothing reads the occupancy between two
        takes and a drained queue resets it, so its countdown is owed
        until the loop ends and then runs as one chained fold.
        """
        if max_weight <= 0:
            return []
        pulled: List[RecordBlock] = []
        owed: List[np.ndarray] = []  # taken weights, not yet off _queued_weight
        remaining = max_weight
        while self._items and remaining > 1e-9:
            head = self._items[0]
            taken_block, remaining_after, emptied = consume_front(
                head, remaining
            )
            if emptied:
                self._items.popleft()
                self._push_times.popleft()
            if taken_block is None or len(taken_block) == 0:
                remaining = remaining_after
                break
            owed.append(taken_block.weights)
            self._pulled.owe(taken_block.weights)
            remaining = remaining_after
            if taken_block.event_time > self._last_pulled_event_time:
                self._last_pulled_event_time = taken_block.event_time
            pulled.append(taken_block)
        if not self._items:
            self._queued_weight = 0.0
        else:
            self._queued_weight = chain_sub(self._queued_weight, owed)
            if self._queued_weight < 0.0:
                self._queued_weight = 0.0
        return pulled

    # Aliases with no body of their own: ``benchmarks/perf/boundaries.py``
    # times the queue by these names and fails on a missing one.  They
    # leave with that script's side doors (ROADMAP item 3c).
    push = push_block
    pull = pull_blocks

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
            # One cohort at a time over the block edge: a whole cohort
            # leaves with its trace dropped; a boundary cohort is
            # trimmed and keeps its trace -- part of the traced arrival
            # is still queued and may yet complete its lifecycle.
            edge = 0 if drop_oldest else len(victim.weights) - 1
            w = float(victim.weights[edge])
            if w <= remaining:
                if drop_oldest:
                    victim.drop_front_cohort()
                else:
                    victim.drop_back_cohort()
                if len(victim) == 0:
                    if drop_oldest:
                        self._items.popleft()
                        self._push_times.popleft()
                    else:
                        self._items.pop()
                        self._push_times.pop()
                dropped = w
            else:
                # Copy on write: the weights may be an emitted
                # (read-only) array or shared with a pulled prefix.
                trimmed = victim.weights.copy()
                trimmed[edge] = trimmed[edge] - remaining
                victim.weights = trimmed
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
        """Driver-side data loss: the node holding this queue lost its
        in-memory backlog (:class:`~repro.faults.schedule.DriverQueueLoss`).

        Everything queued leaves the ledger through :attr:`lost_weight`
        (``pushed == pulled + queued + shed + lost``); riding traces are
        marked dropped -- lost data must never look ingested.  The
        already-pulled prefix is untouched, and the SUT's watermark
        advances past the hole exactly as a real at-most-once driver
        outage would let it.  Returns the weight lost.
        """
        if not self._items:
            return 0.0
        for block in self._items:
            for _, trace in block.traces:
                trace.drop()
        self._items.clear()
        self._push_times.clear()
        lost = self._queued_weight
        self.lost_weight += lost
        self._queued_weight = 0.0
        return lost

    def retire(self) -> None:
        """Mark the feeding generator as permanently gone."""
        self.retired = True

    def head_push_time(self) -> Optional[float]:
        """Enqueue time of the oldest queued cohort, or None when empty.

        A partially pulled cohort keeps its original push time: the
        remainder has been waiting since the cohort was enqueued.
        """
        if not self._push_times:
            return None
        return self._push_times[0]

    def oldest_wait(self, now: float) -> float:
        """How long the oldest queued cohort has been waiting (0 if empty).

        Measured against the cohort's *enqueue* time, not its event
        time: event-time disorder (late records) must not masquerade as
        queueing delay in the sustainability criteria.
        """
        head = self.head_push_time()
        if head is None:
            return 0.0
        return max(0.0, now - head)


class QueueSet:
    """All driver queues of a deployment, with aggregate views.

    The driver samples aggregate occupancy (the sustainability signal)
    and throughput (pulled weight per interval) here, keeping all
    measurement strictly outside the SUT.
    """

    def __init__(self, queues: List[DriverQueue]) -> None:
        if not queues:
            raise ValueError("need at least one queue")
        self.queues = list(queues)

    def __iter__(self):
        return iter(self.queues)

    def __len__(self) -> int:
        return len(self.queues)

    @property
    def total_queued_weight(self) -> float:
        return left_sum(q.queued_weight for q in self.queues)

    @property
    def total_pulled_weight(self) -> float:
        return left_sum(q.pulled_weight for q in self.queues)

    @property
    def total_pushed_weight(self) -> float:
        return left_sum(q.pushed_weight for q in self.queues)

    @property
    def total_shed_weight(self) -> float:
        return left_sum(q.shed_weight for q in self.queues)

    @property
    def total_lost_weight(self) -> float:
        return left_sum(q.lost_weight for q in self.queues)

    @property
    def watermark(self) -> float:
        """SUT ingestion watermark: the minimum over all queues.

        A retired queue that has been drained is skipped: its frontier
        is frozen forever (the generator is dead), and letting it pin
        the fleet watermark would wedge window closing for the whole
        trial.  If every queue is retired-and-empty the plain minimum
        is used (nothing is flowing anyway).
        """
        live = [
            q
            for q in self.queues
            if not (q.retired and q.queued_weight == 0.0)
        ]
        if not live:
            return min(q.watermark for q in self.queues)
        return min(q.watermark for q in live)

    def max_oldest_wait(self, now: float) -> float:
        return max(q.oldest_wait(now) for q in self.queues)
