"""Sampled event-lifecycle tracing.

Aggregate trial statistics (Tables I-IV) say *how much* latency there
is; a trace says *where* it comes from.  A deterministic 1-in-N sampler
attaches an :class:`EventTrace` to generator cohorts; the trace rides
its cohort (an entry of a :class:`~repro.core.batch.RecordBlock`'s
``traces``) through the pipeline and collects timestamped **marks** at
every lifecycle boundary:

- ``created``   -- generation (the event-time anchor, Definition 1);
- ``enqueued``  -- push into the driver queue (Section III-B); a
  brokered cohort is marked again when the broker releases it to the
  SUT-facing queue, so the broker hop is a span of its own;
- ``ingested``  -- pulled by the SUT source operator (Definition 2's
  anchor);
- ``closed``    -- the first containing window closes;
- ``emitted``   -- the output carrying this event leaves the sink.

Consecutive marks delimit **spans** (``enqueue``, ``queue_wait``,
``window_buffer``, ``emit``) that partition the traced event's
event-time latency exactly: the span durations telescope to
``emitted - created``, so a complete trace *decomposes* Definition 1's
latency into wait/buffer/compute components without ever re-measuring
it.  Engines may insert extra marks (e.g. Storm's executor queues);
spans just become finer.

Design constraints (the hot path must not notice tracing):

- when sampling is off, no trace objects exist anywhere -- the only
  residual cost is empty ``traces`` lists at the lifecycle
  boundaries;
- the sampler is deterministic (a cohort counter, not an RNG draw), so
  trials are bit-for-bit reproducible at any sample rate;
- a split cohort hands its trace to the first split part, so every
  trace follows exactly one carrier end to end.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

# Canonical mark names, in lifecycle order.
CREATED = "created"
ENQUEUED = "enqueued"
INGESTED = "ingested"
CLOSED = "closed"
EMITTED = "emitted"

# Span names derived from canonical consecutive mark pairs.
SPAN_NAMES = {
    (CREATED, ENQUEUED): "enqueue",
    (ENQUEUED, INGESTED): "queue_wait",
    (INGESTED, CLOSED): "window_buffer",
    (CLOSED, EMITTED): "emit",
}


class EventTrace:
    """The lifecycle record of one sampled generator cohort."""

    __slots__ = (
        "trace_id",
        "key",
        "stream",
        "weight",
        "marks",
        "dropped",
        "annotations",
    )

    def __init__(
        self, trace_id: int, key: int, stream: str, weight: float
    ) -> None:
        self.trace_id = trace_id
        self.key = key
        self.stream = stream
        self.weight = weight
        self.marks: List[Tuple[str, float]] = []
        self.dropped = False
        self.annotations: List[Dict[str, Any]] = []

    def mark(self, name: str, at_time: float) -> None:
        """Record one lifecycle boundary crossing.

        Marks must be appended in non-decreasing time order; the guard
        clamps float jitter (an emit scheduled with a zero delay can
        land a ulp before the close mark) rather than raising, because a
        trace must never be able to fail a trial.
        """
        if self.marks and at_time < self.marks[-1][1]:
            at_time = self.marks[-1][1]
        self.marks.append((name, at_time))

    def drop(self) -> None:
        """The carrier record was discarded (late arrival); the trace
        will never complete."""
        self.dropped = True

    @property
    def created_at(self) -> float:
        return self.marks[0][1] if self.marks else float("nan")

    @property
    def last_time(self) -> float:
        return self.marks[-1][1] if self.marks else float("nan")

    @property
    def complete(self) -> bool:
        return bool(self.marks) and self.marks[-1][0] == EMITTED

    def spans(self) -> List[Tuple[str, float, float]]:
        """``(name, start, end)`` spans between consecutive marks.

        Contiguous and non-overlapping by construction; canonical mark
        pairs get their taxonomy name, anything else ``a->b``.
        """
        out = []
        for (a, t0), (b, t1) in zip(self.marks, self.marks[1:]):
            out.append((SPAN_NAMES.get((a, b), f"{a}->{b}"), t0, t1))
        return out

    def span_durations(self) -> Dict[str, float]:
        durations: Dict[str, float] = {}
        for name, t0, t1 in self.spans():
            durations[name] = durations.get(name, 0.0) + (t1 - t0)
        return durations

    @property
    def event_time_latency(self) -> float:
        """Definition 1 latency of the traced event itself: sink
        emission minus generation time (NaN until complete)."""
        if not self.complete:
            return float("nan")
        return self.marks[-1][1] - self.marks[0][1]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "key": self.key,
            "stream": self.stream,
            "weight": self.weight,
            "complete": self.complete,
            "dropped": self.dropped,
            "event_time_latency_s": (
                None if not self.complete else self.event_time_latency
            ),
            "marks": [{"name": n, "t": t} for n, t in self.marks],
            "spans": [
                {"name": n, "start": t0, "end": t1, "duration_s": t1 - t0}
                for n, t0, t1 in self.spans()
            ],
            "annotations": list(self.annotations),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        path = "->".join(name for name, _ in self.marks)
        return f"EventTrace(id={self.trace_id}, key={self.key}, {path})"


class TraceSampler:
    """Deterministic 1-in-N sampler over generator cohorts.

    ``sample_rate`` is the paper-style "1 in N" denominator: rate 1
    traces every cohort, rate 1000 every thousandth, rate 0 disables
    sampling (the factory then returns ``None`` so callers keep a plain
    ``is None`` fast path).  The counter is global across generator
    instances to keep the sampled stream stable under fleet-size
    changes of the *same* total cohort sequence.
    """

    __slots__ = ("sample_rate", "_counter", "_next_id", "log")

    def __init__(self, sample_rate: int, log: "TraceLog") -> None:
        if sample_rate < 1:
            raise ValueError(
                f"sample_rate must be >= 1 (use None for no sampler), "
                f"got {sample_rate}"
            )
        self.sample_rate = int(sample_rate)
        self._counter = 0
        self._next_id = 0
        self.log = log

    # The counter is never stepped per cohort: an emission reads
    # ``due_in()`` once, takes the cohorts at the countdown's zero
    # crossings and ``sync``s the counter back afterwards -- the same
    # decisions as stepping it cohort by cohort (the per-cohort
    # reference is ``maybe_trace`` in ``tests/oracle/kernels.py``).  An
    # emission the countdown does not reach makes one ``skip`` call.

    def due_in(self) -> int:
        """Cohorts left until the next sampled one (always >= 1)."""
        return self.sample_rate - self._counter

    def skip(self, n: int) -> int:
        """``due_in()`` when one of the next ``n`` cohorts is sampled.

        Otherwise none is: the counter steps past all ``n`` (what
        ``sync(due_in() - n)`` would leave) and the result is 0.
        """
        due = self.sample_rate - self._counter
        if due > n:
            self._counter += n
            return 0
        return due

    def take(
        self, key: int, stream: str, weight: float, event_time: float
    ) -> EventTrace:
        """Unconditionally start a trace for the current cohort."""
        trace = EventTrace(self._next_id, key, stream, weight)
        self._next_id += 1
        trace.mark(CREATED, event_time)
        self.log.on_start(trace)
        return trace

    def sync(self, countdown: int) -> None:
        """Restore the counter after a batched countdown loop: the
        caller's local countdown was ``due_in()`` cohorts from firing
        when it started and resets to ``sample_rate`` on each fire."""
        self._counter = self.sample_rate - countdown


#: Traces a log keeps (bounds trace memory; later starts only count).
MAX_TRACES = 100_000
#: Completed traces a log's JSON payload carries in full.
MAX_EXPORT = 200


class TraceLog:
    """Driver-side store of every started trace plus timeline events.

    Engines and the fault machinery post timeline **events** (fault
    injections, recovery milestones); at export time each trace is
    annotated with the events that fall inside its lifetime, so a
    latency excursion in a trace points at the fault that caused it.
    """

    def __init__(self) -> None:
        self.started: List[EventTrace] = []
        self.completed: List[EventTrace] = []
        self.events: List[Dict[str, Any]] = []
        self.overflow = 0

    def on_start(self, trace: EventTrace) -> None:
        if len(self.started) >= MAX_TRACES:
            self.overflow += 1
            return
        self.started.append(trace)

    def on_complete(self, trace: EventTrace) -> None:
        self.completed.append(trace)

    def add_event(self, kind: str, at_time: float, **fields: Any) -> None:
        event: Dict[str, Any] = {"kind": kind, "t": float(at_time)}
        event.update(fields)
        self.events.append(event)

    def annotate(self) -> None:
        """Attach timeline events to the traces whose lifetime contains
        them (called once, at trial teardown)."""
        if not self.events:
            return
        for trace in self.started:
            if not trace.marks:
                continue
            t0, t1 = trace.created_at, trace.last_time
            trace.annotations = [
                e for e in self.events if t0 <= e["t"] <= t1
            ]

    @property
    def started_count(self) -> int:
        return len(self.started) + self.overflow

    @property
    def completed_count(self) -> int:
        return len(self.completed)

    def to_dict(self) -> Dict[str, Any]:
        """JSON payload: counts, timeline events, and up to
        :data:`MAX_EXPORT` completed traces (full mark/span detail)."""
        return {
            "started": self.started_count,
            "completed": self.completed_count,
            "dropped": sum(1 for t in self.started if t.dropped),
            "overflow": self.overflow,
            "events": list(self.events),
            "traces": [t.to_dict() for t in self.completed[:MAX_EXPORT]],
        }
