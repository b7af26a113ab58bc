"""Driver-side throughput and queue-occupancy measurement.

Section III-C: "we measure throughput at the queues between the data
generator and the SUT" -- throughput is the rate at which the SUT
*pulls* events out of the driver queues, not the rate of result tuples
(which differs from the input rate for aggregations, as the paper notes
about prior work).  The same monitor samples queue occupancy, which is
the raw signal behind the sustainable-throughput test and behind
"observing backpressure" from outside the SUT (Experiment 7).

The monitor also answers, at any sample, whether the trial's
Definition 5 verdict is already settled as "unsustainable"
(:meth:`ThroughputMonitor.verdict_settled`) -- the anytime rule the
driver uses to stop a search probe whose tail nobody needs.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.criteria import SustainabilityCriteria
from repro.core.metrics import TimeSeries
from repro.core.queues import QueueSet
from repro.sim.simulator import PeriodicProcess, Simulator

SETTLE_SAMPLES = 10
"""Horizon ``H`` of the anytime rule (:meth:`ThroughputMonitor.
verdict_settled`): the verdict counts as settled only after this many
consecutive post-warm-up samples agree.  A constant, not an option: at
ten 1 s samples no fault-free constant-rate probe of the Table I / III
sweeps is cut before its verdict is final (DESIGN.md section 19); a
recovery pause outlasts any horizon worth having, which is why the
search never installs the rule on a trial that can have one."""

THROUGHPUT_INTERVAL_S = 1.0
"""Simulated seconds between two samples of a trial's throughput
monitor."""

QUEUE_DELAY_TAIL_FRACTION = 0.25
"""Final fraction of a run over which :meth:`ThroughputMonitor.
queue_delay_at_end` averages the oldest queued event's age."""


class ThroughputMonitor:
    """Periodic sampler of the driver queues.

    Series produced -- each raw sample is timestamped at the moment it
    is taken, i.e. at the *end* of the interval it covers (note that
    :meth:`TimeSeries.binned` views of these series stamp bin *starts*,
    so a binned view shifts labels one interval earlier than the raw
    samples):

    - ``ingest_series``: events/s pulled by the SUT (Figure 9);
    - ``offered_series``: events/s pushed by the generators;
    - ``occupancy_series``: events waiting across all queues;
    - ``queue_delay_series``: age (since *enqueue*, robust to event-time
      disorder) of the oldest queued cohort, i.e. the latency floor
      imposed by queueing right now.
    """

    def __init__(
        self,
        sim: Simulator,
        queues: QueueSet,
        on_sample: Optional[Callable[[Simulator], None]] = None,
    ) -> None:
        """``on_sample`` (if given) runs at the end of every sampling
        tick, after the four series took their sample -- it sees the
        current sample and costs no simulator event of its own."""
        self._sim = sim
        self._queues = queues
        self._on_sample = on_sample
        self.ingest_series = TimeSeries()
        self.offered_series = TimeSeries()
        self.occupancy_series = TimeSeries()
        self.queue_delay_series = TimeSeries()
        self._last_pulled = queues.total_pulled_weight
        self._last_pushed = queues.total_pushed_weight
        self._process: Optional[PeriodicProcess] = sim.every(
            THROUGHPUT_INTERVAL_S, self._sample
        )

    def _sample(self, sim: Simulator) -> None:
        pulled = self._queues.total_pulled_weight
        pushed = self._queues.total_pushed_weight
        self.ingest_series.append(
            sim.now, (pulled - self._last_pulled) / THROUGHPUT_INTERVAL_S
        )
        self.offered_series.append(
            sim.now, (pushed - self._last_pushed) / THROUGHPUT_INTERVAL_S
        )
        self.occupancy_series.append(sim.now, self._queues.total_queued_weight)
        self.queue_delay_series.append(
            sim.now, self._queues.max_oldest_wait(sim.now)
        )
        self._last_pulled = pulled
        self._last_pushed = pushed
        if self._on_sample is not None:
            self._on_sample(sim)

    def stop(self) -> None:
        if self._process is not None:
            self._process.stop()
            self._process = None

    @property
    def sample_count(self) -> int:
        """Number of sampling ticks taken so far."""
        return len(self.ingest_series)

    def perf_counters(self) -> dict:
        """Driver-side metrology counters for TrialResult.diagnostics."""
        return {
            "monitor.samples": float(self.sample_count),
            "monitor.interval_s": float(THROUGHPUT_INTERVAL_S),
        }

    def mean_ingest_rate(self, start_time: float = 0.0) -> float:
        """Average pull rate after ``start_time`` (the measured
        throughput reported in Tables I and III)."""
        window = self.ingest_series.window(start_time)
        return window.mean() if len(window) else 0.0

    def occupancy_slope(self, start_time: float = 0.0) -> float:
        """Queue growth in events/s -- the backlog trend."""
        return self._queues_window(self.occupancy_series, start_time).slope_per_s()

    def queue_delay_at_end(self) -> float:
        """Mean oldest-event age over the final fraction of the run."""
        series = self.queue_delay_series
        if not len(series):
            return 0.0
        t0 = series.times[0]
        t1 = series.times[-1]
        cut = t1 - (t1 - t0) * QUEUE_DELAY_TAIL_FRACTION
        tail = series.window(cut)
        return tail.mean() if len(tail) else 0.0

    def verdict_settled(
        self, criteria: SustainabilityCriteria, warmup_s: float
    ) -> bool:
        """Whether Definition 5 can no longer come out "sustainable".

        True at a sample taken ``SETTLE_SAMPLES`` intervals or more
        after warm-up iff, over the last ``SETTLE_SAMPLES`` samples,
        (a) the oldest queued event was always older than
        ``max_queue_delay_s``, (b) that age is not shrinking, (c) the
        backlog rose faster than the tolerated drift, and (d) the
        backlog trend over the whole measurement period so far exceeds
        the tolerated drift too.  (d) is the very comparison
        ``assess()`` makes on the backlog, on the same samples, so a
        trial stopped here *is* unsustainable by that rule; (a)-(c) are
        what makes it safe to assume the full-length trial would be.
        Nothing is evaluated during warm-up: the SUT is not yet itself.
        """
        horizon = SETTLE_SAMPLES
        ages = self.queue_delay_series
        if len(ages) < horizon:
            return False
        if ages.times[-1] < warmup_s + horizon * THROUGHPUT_INTERVAL_S:
            return False
        recent = ages.values[-horizon:]
        if not (recent > criteria.max_queue_delay_s).all():
            return False
        if recent[-1] < recent[0]:
            return False
        offered = self.offered_series.window(warmup_s).mean()
        if not offered > 0:
            return False
        tolerated = criteria.max_occupancy_slope_frac * offered
        backlog = self.occupancy_series
        times = backlog.times[-horizon:]
        values = backlog.values[-horizon:]
        if not (values[-1] - values[0]) > tolerated * (times[-1] - times[0]):
            return False
        return self.occupancy_slope(warmup_s) > tolerated

    @staticmethod
    def _queues_window(series: TimeSeries, start_time: float) -> TimeSeries:
        return series.window(start_time)
