"""Backpressure mechanisms of the three engines.

The paper attributes much of the latency/throughput behaviour it
measures to the engines' very different flow-control designs:

- Flink uses fine-grained, credit-like flow control: ingestion smoothly
  tracks downstream capacity "in the order of tuples" (Experiment 5),
  giving the near-constant pull rate of Figure 9c.
- Spark's rate controller reacts at *job/stage* granularity: "once the
  stage is overloaded, passing this information to upstream stages works
  in the order of job stage execution time", producing the fluctuating
  pull rate of Figure 9b and the scheduler-delay coupling of Figure 11.
- Storm "lacks an efficient backpressure mechanism to find a
  near-constant data ingestion rate" (Figure 9a): an on/off throttle
  oscillates between full-rate pulls and pauses, and under high load the
  mechanism can stall the whole topology.

Each mechanism answers one question per engine tick: *how many events may
be ingested now*, given a capacity estimate and the engine's internal
buffer occupancy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional

import numpy as np


class BackpressureMechanism(ABC):
    """Flow control: converts capacity + buffer state into an ingest grant."""

    stall_count = 0
    """Topology stalls so far."""

    @classmethod
    def for_engine(cls, engine) -> "BackpressureMechanism":
        """The mechanism as ``engine`` runs it (an engine names its
        mechanism in ``backpressure_cls``); default: no parameters."""
        return cls()

    @abstractmethod
    def ingest_budget(
        self,
        dt: float,
        capacity_events_per_s: float,
        buffered_events: float,
        buffer_capacity_events: float,
    ) -> float:
        """Events the engine may ingest during this ``dt``-second tick."""

    def on_tick_end(self, now: float) -> None:
        """Clock sync: engines call this at the end of EVERY tick --
        including ticks where ``ingest_budget`` is skipped (JVM pauses,
        recovery outages) -- with the engine's simulated time.

        Mechanisms with internal clocks (:class:`OnOffThrottle`) must
        advance them here; before this hook was wired up, a throttle's
        clock only moved inside ``ingest_budget``, so every skipped tick
        froze it and stall windows silently stretched in simulated time
        (and the stall time reported to the metrics registry drifted
        from the throughput dip the driver observes).  Default: no-op.
        """

    def metrics(self) -> Dict[str, float]:
        """Flow-control counters published to the metrics registry
        (stall/off/limited time in *simulated seconds*); default none."""
        return {}

    def force_stall(self, duration_s: Optional[float] = None) -> None:
        """Stall the topology now (Storm's surge detector asks).  A
        mechanism without a stall state absorbs the request: it is
        counted, and ingest goes on."""
        self.stall_count += 1


class CreditBased(BackpressureMechanism):
    """Flink-style credit flow control.

    Ingest is granted up to remaining buffer credit and processing
    capacity, every tick, with no hysteresis: the pull rate tracks the
    bottleneck smoothly.
    """

    def __init__(self) -> None:
        self.credit_limited_s = 0.0
        """Simulated time during which the buffer credit (not raw
        processing capacity) was the binding constraint on ingest."""

    def ingest_budget(
        self,
        dt: float,
        capacity_events_per_s: float,
        buffered_events: float,
        buffer_capacity_events: float,
    ) -> float:
        credit = max(0.0, buffer_capacity_events - buffered_events)
        if credit < capacity_events_per_s * dt:
            self.credit_limited_s += dt
        return min(capacity_events_per_s * dt, credit)

    def metrics(self) -> Dict[str, float]:
        return {"credit_limited_s": self.credit_limited_s}


class OnOffThrottle(BackpressureMechanism):
    """Storm-style watermark throttle (disruptor-queue high/low marks).

    While *on*, the spout pulls at ``burst_factor`` times the processing
    capacity; when the internal buffer passes the high watermark the
    spout stops emitting entirely until the buffer drains below the low
    watermark.  The result is the oscillating ingest of Figure 9a.

    With ``stall_rng`` set, sustained operation close to the high
    watermark occasionally triggers a topology stall (the paper: "With
    high workloads, it is possible that the backpressure stalls the
    topology, causing spouts to stop emitting tuples"), modelled as a
    multi-second zero-ingest period.
    """

    def __init__(
        self,
        high_watermark: float = 0.9,
        low_watermark: float = 0.4,
        burst_factor: float = 1.3,
        stall_rng: Optional[np.random.Generator] = None,
        stall_rate_per_s: float = 0.0,
        stall_duration_s: float = 4.0,
        stall_fill_threshold: float = 0.6,
        stall_cooldown_s: float = 120.0,
    ) -> None:
        if not 0 < low_watermark < high_watermark <= 1.0:
            raise ValueError(
                f"need 0 < low < high <= 1, got ({low_watermark}, {high_watermark})"
            )
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.burst_factor = burst_factor
        self._emitting = True
        self._stall_rng = stall_rng
        self.stall_rate_per_s = stall_rate_per_s
        self.stall_duration_s = stall_duration_s
        self.stall_fill_threshold = stall_fill_threshold
        self.stall_cooldown_s = stall_cooldown_s
        self._hazard_suppressed_until = -1.0
        self._stalled_until = -1.0
        self._now = 0.0
        self.stall_count = 0
        self.stalled_s = 0.0
        """Simulated seconds spent inside stall windows."""
        self.off_s = 0.0
        """Simulated seconds the throttle spent *off* (above the high
        watermark, not counting stall time)."""

    @classmethod
    def for_engine(cls, engine) -> "OnOffThrottle":
        """Storm's throttle: watermarks and burst from the engine
        config; the stall hazard grows linearly with workers/2, the
        stall length with its square root (more executors, longer
        recovery coordination)."""
        cfg, workers = engine.config, engine.cluster.workers
        return cls(
            high_watermark=cfg.high_watermark,
            low_watermark=cfg.low_watermark,
            burst_factor=cfg.burst_factor,
            stall_rng=engine.rng,
            stall_rate_per_s=cfg.stall_rate_per_s * workers / 2.0,
            stall_duration_s=cfg.stall_duration_s * (workers / 2.0) ** 0.5,
        )

    @property
    def emitting(self) -> bool:
        return self._emitting

    @property
    def stalled(self) -> bool:
        return self._now < self._stalled_until

    def _advance_clock(self, target: float) -> None:
        """Advance the throttle clock to ``target``, attributing the
        elapsed interval to the stall/off counters.

        The clock previously advanced only inside ``ingest_budget``
        (``_now += dt``), so ticks where the engine skipped flow control
        -- JVM pauses, post-fault recovery outages -- froze it.  A stall
        window scheduled as ``[_now, _now + duration)`` then outlasted
        ``duration`` in *simulated* time by however long the engine was
        paused, and the stall time the throttle reported disagreed with
        the zero-ingest dip the driver's throughput monitor observed.
        Engines now sync the clock via :meth:`on_tick_end` every tick.
        """
        if target <= self._now:
            return
        stall_overlap = max(0.0, min(target, self._stalled_until) - self._now)
        self.stalled_s += stall_overlap
        if not self._emitting:
            self.off_s += (target - self._now) - stall_overlap
        self._now = target

    def on_tick_end(self, now: float) -> None:
        self._advance_clock(now)

    def metrics(self) -> Dict[str, float]:
        return {
            "stalled_s": self.stalled_s,
            "off_s": self.off_s,
            "stall_count": float(self.stall_count),
        }

    def ingest_budget(
        self,
        dt: float,
        capacity_events_per_s: float,
        buffered_events: float,
        buffer_capacity_events: float,
    ) -> float:
        self._advance_clock(self._now + dt)
        if self.stalled:
            return 0.0
        fill = buffered_events / max(buffer_capacity_events, 1e-9)
        if self._emitting and fill >= self.high_watermark:
            self._emitting = False
        elif not self._emitting and fill <= self.low_watermark:
            self._emitting = True
        if fill > self.stall_fill_threshold:
            # Loaded internal queues are the risky regime: the stall
            # hazard applies for as long as the disruptor queues stay
            # loaded, which is why Storm's latency tails grow with load
            # and cluster size (Table II).
            self._maybe_stall(dt)
        if not self._emitting or self.stalled:
            return 0.0
        grant = self.burst_factor * capacity_events_per_s * dt
        headroom = max(0.0, buffer_capacity_events - buffered_events)
        return min(grant, headroom)

    def _maybe_stall(self, dt: float) -> None:
        if self._stall_rng is None or self.stall_rate_per_s <= 0:
            return
        if self._now < self._hazard_suppressed_until:
            # Post-stall drain keeps the queues loaded; without a
            # hazard cooldown every stall would chain into the next.
            return
        p = min(1.0, self.stall_rate_per_s * max(dt, 1e-3))
        if self._stall_rng.random() < p:
            self.force_stall()

    def force_stall(self, duration_s: Optional[float] = None) -> None:
        """Stall the topology now (surge-induced stalls, Experiment 5)."""
        self._stalled_until = self._now + (
            self.stall_duration_s if duration_s is None else duration_s
        )
        self._hazard_suppressed_until = self._stalled_until + self.stall_cooldown_s
        self.stall_count += 1


class RateController(BackpressureMechanism):
    """Spark-style PID rate controller, updated at batch boundaries.

    The controller keeps an events/second limit.  After each batch it
    compares the batch's processing time to the batch interval: if the
    job overran, the limit shrinks; if it finished early and no jobs are
    queued, the limit grows toward the offered load.  Within a batch the
    limit is enforced per tick -- the coarse (batch-level) reaction time
    is exactly the sluggishness the paper describes for Spark.
    """

    def __init__(
        self,
        batch_interval_s: float,
        initial_rate: float = float("inf"),
        decrease_factor: float = 0.97,
        increase_factor: float = 1.10,
        min_rate: float = 1000.0,
        receiver_headroom: float = 1.05,
    ) -> None:
        if batch_interval_s <= 0:
            raise ValueError("batch_interval_s must be positive")
        self.batch_interval_s = batch_interval_s
        self.rate_limit = initial_rate
        self.decrease_factor = decrease_factor
        self.increase_factor = increase_factor
        self.min_rate = min_rate
        self.receiver_headroom = receiver_headroom
        """Receivers can briefly ingest slightly above the steady-state
        processing capacity (into blocks); the controller then corrects.
        This bounds the initial over-ingestion of Figure 11."""
        self.adjustments = 0
        self.rate_limited_s = 0.0
        """Simulated time during which the controller's rate limit (not
        capacity or buffer headroom) was the binding constraint."""

    @classmethod
    def for_engine(cls, engine) -> "RateController":
        """Spark's controller, updated once per batch interval."""
        return cls(batch_interval_s=engine.config.batch_interval_s)

    def ingest_budget(
        self,
        dt: float,
        capacity_events_per_s: float,
        buffered_events: float,
        buffer_capacity_events: float,
    ) -> float:
        headroom = max(0.0, buffer_capacity_events - buffered_events)
        ceiling = capacity_events_per_s * self.receiver_headroom
        limit_grant = self.rate_limit * dt
        if limit_grant < min(ceiling * dt, headroom):
            self.rate_limited_s += dt
        return min(limit_grant, ceiling * dt, headroom)

    def metrics(self) -> Dict[str, float]:
        # rate_limit is +inf until the first downward adjustment; report
        # -1 for "uncapped" so exported series stay finite.
        rate = self.rate_limit if self.rate_limit != float("inf") else -1.0
        return {
            "rate_limited_s": self.rate_limited_s,
            "rate_limit": rate,
            "adjustments": float(self.adjustments),
        }

    def on_batch_complete(
        self,
        processing_time_s: float,
        batch_events: float,
        queued_jobs: int,
    ) -> None:
        """Feedback from the DAG scheduler after a batch job finishes."""
        self.adjustments += 1
        achieved_rate = batch_events / self.batch_interval_s
        if processing_time_s > self.batch_interval_s or queued_jobs > 1:
            target = achieved_rate * (
                self.batch_interval_s / max(processing_time_s, 1e-9)
            )
            self.rate_limit = max(
                self.min_rate, min(self.rate_limit, target) * self.decrease_factor
            )
        else:
            if self.rate_limit == float("inf"):
                return
            self.rate_limit = max(
                self.min_rate, self.rate_limit * self.increase_factor
            )
