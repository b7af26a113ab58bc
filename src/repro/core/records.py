"""Records and cohorts: the data-plane currency of the framework.

The paper's generator emits 100M individual events per run.  Simulating
every event as a Python object would be prohibitively slow, so the
generator emits **cohorts**: a :class:`Record` with ``weight = n`` stands
for ``n`` same-key events produced in one generation tick, all carrying
the cohort's ``event_time`` (the generator timestamps events at creation,
Section III-C).  All framework semantics -- window assignment, the
max-event-time rule for windowed outputs, queueing, latency measurement
-- are defined per-record and are therefore identical for weight-1
records (used throughout the unit tests) and weighted cohorts (used at
benchmark scale).  Weights only scale cost/byte accounting and weighted
statistics.

Two streams exist, mirroring Listing 1 of the paper:

- ``PURCHASES(userID, gemPackID, price, time)`` -- ``value`` is the price.
- ``ADS(userID, gemPackID, time)`` -- ``value`` is unused (0.0).

``key`` is the join/grouping key: ``gemPackID`` for the aggregation
query and the composite ``(userID, gemPackID)`` -- reduced to one integer
key -- for the join query.
"""

from __future__ import annotations

from typing import List, Optional

PURCHASES = "purchases"
ADS = "ads"
STREAMS = (PURCHASES, ADS)


class Record:
    """One event cohort flowing from generator to sink.

    Attributes
    ----------
    key:
        Integer grouping/join key (gemPackID or composite).
    value:
        Payload aggregated by queries (gem-pack price for purchases).
    event_time:
        Generator timestamp (simulated seconds) -- Definition 1's anchor.
    weight:
        Number of real events this cohort stands for (>= 1).
    stream:
        ``"purchases"`` or ``"ads"``.
    ingest_time:
        Stamped by the SUT source operator when the record enters the
        system (Definition 2's anchor); ``None`` until ingested.
    trace:
        Optional lifecycle trace attached by the observability sampler
        (:mod:`repro.obs.trace`); ``None`` for all but 1-in-N cohorts.
        When a cohort splits, exactly one part keeps the trace.
    """

    __slots__ = (
        "key", "value", "event_time", "weight", "stream", "ingest_time",
        "trace",
    )

    def __init__(
        self,
        key: int,
        value: float,
        event_time: float,
        weight: float = 1.0,
        stream: str = PURCHASES,
        ingest_time: Optional[float] = None,
        trace: Optional[object] = None,
    ) -> None:
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if stream not in STREAMS:
            raise ValueError(f"unknown stream {stream!r}; expected one of {STREAMS}")
        self.key = key
        self.value = value
        self.event_time = event_time
        self.weight = weight
        self.stream = stream
        self.ingest_time = ingest_time
        self.trace = trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Record(key={self.key}, value={self.value!r}, "
            f"event_time={self.event_time:.3f}, weight={self.weight:g}, "
            f"stream={self.stream!r}, ingest_time={self.ingest_time!r})"
        )


class OutputRecord:
    """A result tuple emitted by the SUT's output (sink) operator.

    Carries both latency anchors:

    - ``event_time``: the *maximum event-time of all contributing inputs*
      (Definition 3 / 4 of the paper), so buffering time inside a window
      is excluded from event-time latency;
    - ``processing_time``: the maximum ingest-time of all contributing
      inputs (Definition 4).

    The driver computes latencies at emission:
    ``event_latency = emit_time - event_time`` and
    ``processing_latency = emit_time - processing_time``.
    """

    __slots__ = (
        "key",
        "value",
        "event_time",
        "processing_time",
        "emit_time",
        "weight",
        "window_end",
        "traces",
    )

    def __init__(
        self,
        key: int,
        value: float,
        event_time: float,
        processing_time: float,
        emit_time: float,
        weight: float = 1.0,
        window_end: float = float("nan"),
        traces: Optional[List[object]] = None,
    ) -> None:
        self.key = key
        self.value = value
        self.event_time = event_time
        self.processing_time = processing_time
        self.emit_time = emit_time
        self.weight = weight
        self.window_end = window_end
        # Lifecycle traces of sampled input cohorts that contributed to
        # this output (None unless tracing is on AND a traced cohort
        # landed in this output's window+key).
        self.traces = traces

    @property
    def event_time_latency(self) -> float:
        """Definition 1: emission time minus (max contributing) event-time."""
        return self.emit_time - self.event_time

    @property
    def processing_time_latency(self) -> float:
        """Definition 2: emission time minus (max contributing) ingest-time."""
        return self.emit_time - self.processing_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OutputRecord(key={self.key}, value={self.value!r}, "
            f"event_latency={self.event_time_latency:.3f}, "
            f"processing_latency={self.processing_time_latency:.3f}, "
            f"weight={self.weight:g})"
        )


def split_cohort(record: Record, parts: int) -> List[Record]:
    """Split a cohort into ``parts`` equal-weight cohorts (same times).

    Used when a cohort must be divided across ingestion boundaries (e.g.
    partially admitted by a rate limiter).  Weights are divided exactly;
    the split is lossless with respect to total weight.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    share = record.weight / parts
    return [
        Record(
            key=record.key,
            value=record.value,
            event_time=record.event_time,
            weight=share,
            stream=record.stream,
            ingest_time=record.ingest_time,
            # The trace follows exactly one part so each traced event
            # has a single end-to-end carrier.
            trace=record.trace if i == 0 else None,
        )
        for i in range(parts)
    ]
