"""The kernels whose record-at-a-time bodies left ``src/``.

``SourceSet.pull`` and the per-key loops of ``DataGenerator._emit_dense``
(6d71cc3), verbatim, as plain functions over the production objects
(``self`` is the ``SourceSet`` / ``DataGenerator`` they were methods
of), running on the record-at-a-time :class:`~tests.oracle.queues.
RecordQueue`.  The oracle engines receive blocks at the engine door, so
these two are compared against production at unit level
(``test_source_pull.py``, ``test_dense_emit.py``), the way
``tests/core/test_queue_blocks.py`` compares the queue.

``TraceSampler.maybe_trace`` (61fc6e0), verbatim: the per-cohort step of
the 1-in-N counter that production's ``due_in`` / ``take`` / ``sync``
countdown replaces (``tests/obs/test_trace.py``).

``aggregation_outputs`` and ``join_window_outputs`` (0920fa1), verbatim,
over the dict-shaped closed windows of :mod:`tests.oracle.stores`.  The
oracle engines close into production's columns and run production's
output builders, so these two -- with the dict ``close``, ``absorb``,
``pop_ready`` and ``stored_weight`` -- are compared at unit level too
(``test_close_kernels.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.batch import left_sum
from repro.core.generator import DataGenerator
from repro.core.records import PURCHASES, OutputRecord, Record
from repro.engines.operators.join import ClosedJoinWindow
from repro.engines.operators.source import SourceSet
from repro.obs.trace import EventTrace, TraceSampler

from tests.oracle.stores import DictWindowContents


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


def maybe_trace(
    self: TraceSampler, key: int, stream: str, weight: float, event_time: float
) -> Optional[EventTrace]:
    """Return a started trace for every N-th cohort, else None."""
    self._counter += 1
    if self._counter < self.sample_rate:
        return None
    self._counter = 0
    return self.take(key, stream, weight, event_time)


def aggregation_outputs_by_key(
    contents: DictWindowContents, emit_time: float
) -> List[OutputRecord]:
    """One output tuple per key of a closed window (Definition 3 / 4).

    ``emit_time`` is the simulated time at which the SUT's output
    operator actually emits -- window close plus any engine-specific
    evaluation delay; the driver derives both latencies from the
    returned records.
    """
    traces_by_key = None
    if contents.traces:
        traces_by_key = {}
        for trace in contents.traces:
            traces_by_key.setdefault(trace.key, []).append(trace)
    outputs = []
    for key, acc in contents.by_key.items():
        outputs.append(
            OutputRecord(
                key=key,
                value=acc.value,
                event_time=acc.max_event_time,
                processing_time=acc.max_processing_time,
                emit_time=emit_time,
                weight=1.0,
                window_end=contents.end_time,
                traces=(
                    traces_by_key.pop(key, None)
                    if traces_by_key is not None
                    else None
                ),
            )
        )
    return outputs


def join_window_outputs_by_key(
    closed: ClosedJoinWindow,
    selectivity: float,
    emit_time: float,
) -> List[OutputRecord]:
    """Join one closed window pair into output tuples.

    For every key present on both sides, the output weight is the key's
    share (by purchase weight) of ``selectivity * total purchase
    weight``.  All outputs of the window carry the window-level
    max-event-time anchor, per the paper's join latency definition.
    """
    if selectivity < 0:
        raise ValueError(f"selectivity must be >= 0, got {selectivity}")
    p_keys: Dict[int, float] = {
        key: acc.weight for key, acc in closed.purchases.by_key.items()
    }
    a_keys = closed.ads.by_key
    matched_purchase_weight = left_sum(
        weight for key, weight in p_keys.items() if key in a_keys
    )
    if matched_purchase_weight <= 0 or selectivity == 0:
        return []
    total_output_weight = selectivity * closed.purchases.total_weight
    event_time = closed.max_event_time
    processing_time = closed.max_processing_time
    traces_by_key = None
    all_traces = closed.purchases.traces + closed.ads.traces
    if all_traces:
        traces_by_key = {}
        for trace in all_traces:
            traces_by_key.setdefault(trace.key, []).append(trace)
    outputs = []
    for key, p_weight in p_keys.items():
        a_acc = a_keys.get(key)
        if a_acc is None:
            continue
        out_weight = total_output_weight * (p_weight / matched_purchase_weight)
        if out_weight <= 0:
            continue
        outputs.append(
            OutputRecord(
                key=key,
                value=closed.purchases.by_key[key].value,
                event_time=event_time,
                processing_time=processing_time,
                emit_time=emit_time,
                weight=out_weight,
                window_end=closed.end_time,
                # Traces from either side of the window whose key joined
                # (an unmatched key's trace stays incomplete -- its
                # events produced no output).
                traces=(
                    traces_by_key.pop(key, None)
                    if traces_by_key is not None
                    else None
                ),
            )
        )
    return outputs
