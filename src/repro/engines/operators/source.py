"""The SUT-side source operator.

Sources pull from the driver queues (round-robin, so no queue starves),
stamp every record with its **ingest time** -- the anchor of
processing-time latency (Definition 2: "the time that the event has
reached the input operator of the streaming system") -- and maintain the
engine's ingestion watermark, i.e. the event-time through which *all*
queues have been consumed.  Windows may only close once the watermark
passes their end: under backpressure the watermark lags generation time,
which is precisely how queue-waiting time surfaces in event-time latency
while staying invisible to processing-time latency (Experiment 6).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.batch import RecordBlock, chain_sub
from repro.core.queues import QueueSet


class SourceSet:
    """Round-robin puller over all driver queues."""

    def __init__(self, queues: QueueSet) -> None:
        self._queues = queues
        self._next = 0
        self._disconnected: Dict[int, float] = {}

    def disconnect(self, queue_index: int, until: float) -> None:
        """Make one queue unreachable until the given time (an injected
        transient network fault, see
        :class:`repro.faults.schedule.QueueDisconnect`).  While a queue
        is disconnected its partition backlogs and the watermark stalls;
        after reconnect the source drains the stranded backlog."""
        index = queue_index % len(self._queues)
        self._disconnected[index] = max(
            self._disconnected.get(index, until), until
        )

    def pull_batch(
        self, max_weight: float, ingest_time: float
    ) -> List[RecordBlock]:
        """Pull up to ``max_weight`` events across queues, stamping them.

        The budget is spread round-robin in small rounds so that one
        deep queue cannot monopolise ingestion (real sources poll their
        partitions fairly); it counts down by one strict left fold over
        each batch's cohort weights, chained across the batch's blocks.
        """
        if max_weight <= 0:
            return []
        pulled: List[RecordBlock] = []
        remaining = max_weight
        n = len(self._queues)
        share = max(1.0, max_weight / n)
        idle_rounds = 0
        while remaining > 1e-9 and idle_rounds < n:
            index = self._next
            queue = self._queues.queues[index]
            self._next = (self._next + 1) % n
            if self._disconnected:
                until = self._disconnected.get(index)
                if until is not None:
                    if ingest_time < until:
                        idle_rounds += 1
                        continue
                    del self._disconnected[index]
            batch = queue.pull_blocks(min(share, remaining))
            if not batch:
                idle_rounds += 1
                continue
            idle_rounds = 0
            remaining = chain_sub(remaining, [b.weights for b in batch])
            for block in batch:
                block.ingest_time = ingest_time
                for _, trace in block.traces:
                    trace.mark("ingested", ingest_time)
                pulled.append(block)
        return pulled

    def shed(self, max_weight: float, drop_oldest: bool = True) -> float:
        """Shed up to ``max_weight`` queued events across all queues.

        The shed budget is spread proportionally to each queue's
        backlog so the per-partition latency bound degrades evenly
        (shedding one deep queue to zero while another overflows would
        defeat the bound).  Returns the weight actually shed.
        """
        if max_weight <= 0:
            return 0.0
        total = self._queues.total_queued_weight
        if total <= 0:
            return 0.0
        shed = 0.0
        for queue in self._queues.queues:
            if queue.queued_weight <= 0:
                continue
            share = max_weight * (queue.queued_weight / total)
            shed += queue.shed(share, drop_oldest=drop_oldest)
        return shed

    @property
    def watermark(self) -> float:
        """Event-time through which every queue has been ingested."""
        return self._queues.watermark

    @property
    def backlog_weight(self) -> float:
        return self._queues.total_queued_weight
