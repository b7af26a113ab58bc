"""Unit tests for the queue-side throughput monitor."""

import pytest

from repro.core.criteria import SustainabilityCriteria
from repro.core.queues import DriverQueue, QueueSet
from repro.core.throughput import SETTLE_SAMPLES, ThroughputMonitor
from repro.sim.simulator import Simulator

from tests.cohorts import cohort


@pytest.fixture
def rig():
    sim = Simulator()
    queue = DriverQueue("q")
    queues = QueueSet([queue])
    monitor = ThroughputMonitor(sim, queues)
    return sim, queue, monitor


class TestSampling:
    def test_ingest_rate_per_interval(self, rig):
        sim, queue, monitor = rig

        def produce_and_consume(s):
            queue.push_block(cohort(event_time=s.now, weight=100.0))
            queue.pull_blocks(100.0)

        sim.every(0.5, produce_and_consume)
        sim.run_until(3.0)
        # 200 events pushed+pulled per 1 s interval.
        assert monitor.ingest_series.values[-1] == pytest.approx(200.0)
        assert monitor.offered_series.values[-1] == pytest.approx(200.0)

    def test_occupancy_tracks_backlog(self, rig):
        sim, queue, monitor = rig
        sim.every(0.5, lambda s: queue.push_block(cohort(s.now, weight=10.0)))
        sim.run_until(2.0)
        # Pushes at 0.5/1.0/1.5/2.0; the monitor's 2.0 sample fires
        # before the co-timed push (it was scheduled earlier), so the
        # last sample sees the three earlier pushes.
        assert monitor.occupancy_series.values[-1] == pytest.approx(30.0)
        assert queue.queued_weight == pytest.approx(40.0)

    def test_queue_delay_series(self, rig):
        sim, queue, monitor = rig
        queue.push_block(cohort(event_time=0.0))
        sim.run_until(3.0)
        assert monitor.queue_delay_series.values[-1] == pytest.approx(3.0)

    def test_queue_delay_ignores_event_time_disorder(self, rig):
        """Regression: late (disordered) records pushed freshly must not
        inflate the queue-delay signal.  Before the fix, a record with
        event_time = now - 100 looked 100 s 'old' the moment it was
        enqueued, and sustainability trials falsely failed."""
        sim, queue, monitor = rig

        def push_late(s):
            queue.push_block(
                cohort(event_time=s.now - 100.0), at_time=s.now
            )

        sim.every(0.5, push_late)
        sim.run_until(3.0)
        # Oldest cohort was enqueued at t=0.5; at the t=3 sample it has
        # waited 2.5 s -- not 100+ s of event-time lag.
        assert monitor.queue_delay_series.values[-1] == pytest.approx(2.5)

    def test_mean_ingest_rate_with_warmup_cut(self, rig):
        sim, queue, monitor = rig

        def consume(s):
            queue.push_block(cohort(s.now, weight=50.0))
            queue.pull_blocks(50.0)

        sim.every(1.0, consume, start=0.2)
        sim.run_until(10.0)
        rate = monitor.mean_ingest_rate(start_time=5.0)
        assert rate == pytest.approx(50.0, rel=0.05)

    def test_occupancy_slope_positive_under_overload(self, rig):
        sim, queue, monitor = rig
        sim.every(1.0, lambda s: queue.push_block(cohort(s.now, weight=30.0)))
        sim.run_until(10.0)
        assert monitor.occupancy_slope() == pytest.approx(30.0, rel=0.1)

    def test_stop_halts_sampling(self, rig):
        sim, queue, monitor = rig
        sim.run_until(2.0)
        monitor.stop()
        sim.run_until(10.0)
        assert len(monitor.ingest_series) == 2

    def test_queue_delay_at_end_uses_tail(self, rig):
        sim, queue, monitor = rig
        queue.push_block(cohort(event_time=0.0))
        sim.run_until(10.0)
        # Oldest event is 10 s old at the end; tail mean is close to that.
        assert monitor.queue_delay_at_end() > 8.0


WARMUP_S = 10.0
OFFERED = 1000.0
"""Tolerated backlog drift is 0.5 % of this: 5 events/s."""


def scripted_monitor(ages, backlog, first_t=1.0):
    """A monitor whose series hold hand-built 1 s samples, one per
    ``(age, backlog)`` pair, starting at ``first_t``."""
    monitor = ThroughputMonitor(Simulator(), QueueSet([DriverQueue("q")]))
    for index, (age, queued) in enumerate(zip(ages, backlog)):
        t = first_t + index
        monitor.ingest_series.append(t, OFFERED)
        monitor.offered_series.append(t, OFFERED)
        monitor.occupancy_series.append(t, queued)
        monitor.queue_delay_series.append(t, age)
    return monitor


def settled(ages, backlog, first_t=1.0):
    monitor = scripted_monitor(ages, backlog, first_t)
    return monitor.verdict_settled(SustainabilityCriteria(), WARMUP_S)


def rising(n, per_s=100.0):
    return [per_s * i for i in range(n)]


class TestVerdictSettled:
    """The anytime rule on hand-built series (H = 10 samples, warm-up
    10 s, age limit 5 s).  Each condition has a test that a mutant
    dropping or loosening it fails."""

    def test_horizon_is_ten_samples(self):
        assert SETTLE_SAMPLES == 10

    def test_old_queue_under_rising_backlog_settles(self):
        assert settled([6.0] * 30, rising(30))

    def test_healthy_trial_never_settles(self):
        assert not settled([0.5] * 30, [200.0] * 30)

    def test_age_equal_to_the_limit_does_not_count(self):
        ages = [6.0] * 30
        ages[25] = 5.0
        assert not settled(ages, rising(30))

    def test_nine_qualifying_samples_do_not_stop_the_tenth_does(self):
        ages = [1.0] * 21 + [6.0] * 9  # old at t = 22 .. 30
        assert not settled(ages, rising(30))
        assert settled(ages + [6.0], rising(31))

    def test_one_dip_restarts_the_count(self):
        ages = [6.0] * 35
        ages[24] = 4.0  # the sample at t = 25
        assert not settled(ages[:30], rising(30))  # window 21 .. 30
        assert not settled(ages[:34], rising(34))  # window 25 .. 34
        assert settled(ages, rising(35))  # window 26 .. 35

    def test_shrinking_age_does_not_stop_even_if_backlog_rises(self):
        ages = [6.0] * 20 + [20.0 - i for i in range(10)]  # 20 -> 11
        assert not settled(ages, rising(30))

    def test_steady_age_counts_as_not_shrinking(self):
        assert settled([9.0] * 30, rising(30))

    def test_nothing_fires_before_warmup_plus_horizon(self):
        # Every sample qualifies from t = 1 on; the first verdict is
        # due at t = warm-up + 10 samples = 20.
        for n in range(1, 20):
            assert not settled([6.0] * n, rising(n)), n
        assert settled([6.0] * 20, rising(20))

    def test_flat_recent_backlog_does_not_stop(self):
        # Rose early, then a plateau: the trend since warm-up is still
        # positive, the last ten samples are not.
        backlog = rising(20, per_s=1000.0) + [20_000.0] * 10
        assert not settled([6.0] * 30, backlog)

    def test_recent_rise_inside_a_draining_trend_does_not_stop(self):
        # The backlog drains for 20 s after warm-up, then creeps up:
        # assess() of this trial would not fail the backlog rule, so
        # the driver must not claim the verdict is settled.
        backlog = (
            [100_000.0] * 10
            + [100_000.0 - 4000.0 * i for i in range(20)]
            + [24_000.0 + 100.0 * i for i in range(10)]
        )
        monitor = scripted_monitor([6.0] * 40, backlog)
        assert monitor.occupancy_slope(WARMUP_S) < 0
        assert not monitor.verdict_settled(SustainabilityCriteria(), WARMUP_S)

    def test_drift_within_tolerance_does_not_stop(self):
        assert not settled([6.0] * 30, rising(30, per_s=4.0))

    def test_criteria_tolerances_are_the_ones_given(self):
        monitor = scripted_monitor([6.0] * 30, rising(30))
        loose = SustainabilityCriteria(max_queue_delay_s=6.0)
        assert not monitor.verdict_settled(loose, WARMUP_S)
        loose = SustainabilityCriteria(max_occupancy_slope_frac=0.2)
        assert not monitor.verdict_settled(loose, WARMUP_S)

    def test_on_sample_runs_after_the_sample_is_taken(self):
        sim = Simulator()
        seen = []
        monitor = ThroughputMonitor(
            sim,
            QueueSet([DriverQueue("q")]),
            on_sample=lambda s: seen.append((s.now, monitor.sample_count)),
        )
        sim.run_until(3.0)
        assert seen == [(1.0, 1), (2.0, 2), (3.0, 3)]
