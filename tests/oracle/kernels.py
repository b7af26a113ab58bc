"""The two driver-side kernels whose record-at-a-time bodies left ``src/``.

``SourceSet.pull`` and the per-key loops of ``DataGenerator._emit_dense``
(6d71cc3), verbatim, as plain functions over the production objects
(``self`` is the ``SourceSet`` / ``DataGenerator`` they were methods
of).  The oracle engines receive blocks at the engine door, so these two
are compared against production at unit level (``test_source_pull.py``,
``test_dense_emit.py``), the way ``tests/core/test_queue_blocks.py``
compares the queue.
"""

from __future__ import annotations

from typing import List

from repro.core.generator import DataGenerator
from repro.core.records import PURCHASES, Record
from repro.engines.operators.source import SourceSet


def source_pull(
    self: SourceSet, max_weight: float, ingest_time: float
) -> List[Record]:
    """Pull up to ``max_weight`` events across queues, stamping them.

    The budget is spread round-robin in small rounds so that one
    deep queue cannot monopolise ingestion (real sources poll their
    partitions fairly).
    """
    if max_weight <= 0:
        return []
    pulled: List[Record] = []
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
        batch = queue.pull(min(share, remaining))
        if not batch:
            idle_rounds += 1
            continue
        idle_rounds = 0
        for record in batch:
            record.ingest_time = ingest_time
            remaining -= record.weight
            if record.trace is not None:
                record.trace.mark("ingested", ingest_time)
        pulled.extend(batch)
    return pulled


def emit_dense(
    self: DataGenerator, stream: str, weight: float, now: float
) -> None:
    """``DataGenerator._emit_dense`` as the per-key loop it was: one
    ``Record`` pushed per positive-mass catalog key."""
    pmf = self.query.keys.pmf()
    value = self._mean_price if stream == PURCHASES else 0.0
    sampler = self.sampler
    push = self.queue.push
    if sampler is None:
        for key, mass in enumerate(pmf):
            if mass <= 0:
                continue
            push(
                Record(
                    key=key,
                    value=value,
                    event_time=now,
                    weight=weight * mass,
                    stream=stream,
                ),
                at_time=now,
            )
        return
    # Batched sampling: count down a local int instead of paying a
    # sampler call per cohort (see TraceSampler.due_in/take/sync).
    # Unsampled cohorts build the exact Record the sampler-None loop
    # builds -- the trace kwarg is only paid on the 1-in-N hit.
    countdown = sampler.due_in()
    for key, mass in enumerate(pmf):
        if mass <= 0:
            continue
        countdown -= 1
        if countdown:
            push(
                Record(
                    key=key,
                    value=value,
                    event_time=now,
                    weight=weight * mass,
                    stream=stream,
                ),
                at_time=now,
            )
            continue
        cohort_weight = weight * mass
        trace = sampler.take(key, stream, cohort_weight, now)
        countdown = sampler.sample_rate
        push(
            Record(
                key=key,
                value=value,
                event_time=now,
                weight=cohort_weight,
                stream=stream,
                trace=trace,
            ),
            at_time=now,
        )
    sampler.sync(countdown)
