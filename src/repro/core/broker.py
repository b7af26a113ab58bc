"""An optional message-broker mediator between generators and the SUT.

The paper argues *against* placing a broker (Kafka-style) between the
data generator and the SUT (Section III-A): the broker persists events
to disk, adds a de-/serialisation layer, and may re-partition data
before it reaches the SUT sources -- all of which made the broker the
bottleneck of the Yahoo streaming benchmark.  This module exists to
*reproduce that argument*: the ablation benchmark inserts a
:class:`BrokerStage` in front of the driver queues and shows the
mediator capping throughput and polluting latency.

The broker model: events pushed by a generator are persisted (fixed
per-event cost), optionally re-partitioned (a fraction pays an extra
hop), and released to the SUT-facing queue no faster than the broker's
forwarding capacity.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.batch import RecordBlock, fold_add
from repro.core.queues import DriverQueue
from repro.sim.simulator import PeriodicProcess, Simulator


#: Aggregate rate the broker can serve to consumers -- the Yahoo
#: benchmark's observed bottleneck.
FORWARD_CAPACITY_EVENTS_PER_S = 0.7e6
#: Write-to-log + page-cache latency before an event is consumable.
PERSISTENCE_DELAY_S = 0.05
#: Fraction of events landing in a partition that does not match the
#: SUT's partitioning and paying an extra forwarding hop.
REPARTITION_FRACTION = 0.5
#: The extra hop's delay.
REPARTITION_DELAY_S = 0.04
#: Seconds between two forwarding passes.
TICK_INTERVAL_S = 0.05


class BrokerStage:
    """A mediator stage feeding one SUT-facing driver queue.

    Generators push into the broker; a periodic forwarder releases
    events to the downstream queue at the broker's capacity, after the
    persistence (and possibly re-partition) delay.  Event-time
    timestamps are untouched -- the added delay therefore shows up in
    event-time latency, exactly the distortion the paper describes.
    """

    def __init__(
        self,
        sim: Simulator,
        downstream: DriverQueue,
        share: float = 1.0,
    ) -> None:
        if not 0 < share <= 1:
            raise ValueError(f"share must be in (0, 1], got {share}")
        self.sim = sim
        self.downstream = downstream
        self.share = share
        self._staged = DriverQueue(name=f"{downstream.name}-broker")
        self.forwarded_weight = 0.0
        self._process: Optional[PeriodicProcess] = sim.every(
            TICK_INTERVAL_S, self._forward
        )

    def push_block(
        self, block: RecordBlock, at_time: float = float("nan")
    ) -> None:
        """Generator-facing push (same interface as DriverQueue)."""
        self._staged.push_block(block, at_time=at_time)

    def overflow_index(self, weights: np.ndarray) -> Optional[int]:
        """Delegate capacity probing to the staged queue."""
        return self._staged.overflow_index(weights)

    def _forward(self, sim: Simulator) -> None:
        budget = (
            FORWARD_CAPACITY_EVENTS_PER_S
            * self.share
            * TICK_INTERVAL_S
        )
        # Only events past their persistence (+ repartition) delay may
        # be served; later-generated ones wait a tick.
        persisted = sim.now + PERSISTENCE_DELAY_S
        rerouted_at = persisted + REPARTITION_DELAY_S
        keep = 1.0 - REPARTITION_FRACTION
        for block in self._staged.pull_blocks(budget):
            # A deterministic share of each cohort's weight pays the
            # extra hop; a trace rides the first non-empty part.
            direct = block.weights * keep
            rerouted = block.weights - direct
            direct_traces, rerouted_traces = [], []
            for i, trace in block.traces:
                hop = direct_traces if direct[i] > 0 else rerouted_traces
                hop.append((i, trace))
            self._release(block, direct, direct_traces, persisted)
            self._release(block, rerouted, rerouted_traces, rerouted_at)

    def _release(
        self,
        block: RecordBlock,
        weights: np.ndarray,
        traces: List[Tuple[int, object]],
        at_time: float,
    ) -> None:
        """Schedule one hop of ``block``: the cohorts whose part of the
        weight is positive (a zero part is dropped per cohort)."""
        keys = block.keys
        positive = weights > 0
        if not positive.all():
            if not positive.any():
                return
            index = np.cumsum(positive) - 1
            traces = [(int(index[i]), trace) for i, trace in traces]
            keys, weights = keys[positive], weights[positive]
        # Read-only like the generator's: the delivery's overflow
        # pre-check and its push fold it once (the fold memo).
        weights.flags.writeable = False
        part = RecordBlock(
            keys,
            weights,
            value=block.value,
            event_time=block.event_time,
            stream=block.stream,
            traces=traces,
            _checked=True,
        )
        self.sim.schedule_at(max(at_time, self.sim.now), self._deliver, part)

    def _deliver(self, block: RecordBlock) -> None:
        # On overflow push_block admits the prefix that fits, then raises.
        over = self.downstream.overflow_index(block.weights)
        admitted = block.weights if over is None else block.weights[:over]
        self.forwarded_weight = fold_add(self.forwarded_weight, admitted)
        self.downstream.push_block(block, at_time=self.sim.now)

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None
