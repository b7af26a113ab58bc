"""Unit tests for the three backpressure mechanisms."""

import numpy as np
import pytest

from repro.engines.backpressure import (
    BURST_FACTOR,
    MIN_RATE,
    STALL_DURATION_S,
    CreditBased,
    OnOffThrottle,
    RateController,
)
from repro.engines.storm import StormConfig


class TestCreditBased:
    def test_grants_capacity_when_buffer_empty(self):
        bp = CreditBased()
        assert bp.ingest_budget(0.1, 1000.0, 0.0, 500.0) == pytest.approx(100.0)

    def test_limited_by_remaining_credit(self):
        bp = CreditBased()
        assert bp.ingest_budget(1.0, 1000.0, 450.0, 500.0) == pytest.approx(50.0)

    def test_zero_when_buffer_full(self):
        bp = CreditBased()
        assert bp.ingest_budget(1.0, 1000.0, 500.0, 500.0) == 0.0

    def test_smooth_no_hysteresis(self):
        bp = CreditBased()
        a = bp.ingest_budget(0.1, 1000.0, 499.0, 500.0)
        b = bp.ingest_budget(0.1, 1000.0, 0.0, 500.0)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(100.0)


class TestOnOffThrottle:
    def test_bursts_above_capacity_while_on(self):
        bp = OnOffThrottle()
        grant = bp.ingest_budget(1.0, 1000.0, 0.0, 10_000.0)
        assert grant == pytest.approx(BURST_FACTOR * 1000.0)

    def test_stops_at_high_watermark(self):
        bp = OnOffThrottle()
        assert bp.ingest_budget(1.0, 1000.0, 9500.0, 10_000.0) == 0.0
        assert not bp.emitting

    def test_stays_off_until_low_watermark(self):
        bp = OnOffThrottle()
        bp.ingest_budget(1.0, 1000.0, 9500.0, 10_000.0)  # trips off
        assert bp.ingest_budget(1.0, 1000.0, 5000.0, 10_000.0) == 0.0
        assert bp.ingest_budget(1.0, 1000.0, 3000.0, 10_000.0) > 0.0
        assert bp.emitting

    def test_oscillation_cycle(self):
        # What ``for_engine`` passes for Storm on 2 workers.
        bp = OnOffThrottle(
            stall_rng=np.random.default_rng(0),
            stall_rate_per_s=StormConfig().stall_rate_per_s,
            stall_duration_s=STALL_DURATION_S,
        )
        buffered = 0.0
        capacity, cap_buf = 100.0, 100.0
        grants = []
        for _ in range(200):
            g = bp.ingest_budget(0.1, capacity, buffered, cap_buf)
            grants.append(g)
            buffered = max(0.0, buffered + g - capacity * 0.1)
        # The first grant, from an empty buffer, is Storm's burst.
        assert grants[0] == BURST_FACTOR * capacity * 0.1 == 15.0
        # The throttle alternates: some zero-grants and some burst grants.
        assert any(g == 0.0 for g in grants[50:])
        assert any(g > 0.0 for g in grants[50:])

    def test_stall_blocks_ingest(self):
        rng = np.random.default_rng(0)
        bp = OnOffThrottle(
            stall_rng=rng, stall_rate_per_s=100.0, stall_duration_s=2.0
        )
        # Force a high-watermark hit; the huge stall rate guarantees a stall.
        bp.ingest_budget(0.1, 1000.0, 9500.0, 10_000.0)
        assert bp.stalled
        assert bp.stall_count == 1
        assert bp.ingest_budget(0.1, 1000.0, 0.0, 10_000.0) == 0.0

    def test_stall_expires(self):
        rng = np.random.default_rng(0)
        bp = OnOffThrottle(
            stall_rng=rng, stall_rate_per_s=100.0, stall_duration_s=0.5
        )
        bp.ingest_budget(0.1, 1000.0, 9500.0, 10_000.0)
        for _ in range(10):  # advance internal clock past the stall
            bp.ingest_budget(0.1, 1000.0, 3000.0, 10_000.0)
        assert not bp.stalled


class TestOnOffThrottleStallAccounting:
    """Regression: stall time must be measured on the *simulated* clock.

    The throttle's clock used to advance only inside ``ingest_budget``,
    so ticks the engine skipped (JVM pauses, recovery outages) froze it
    and a stall window silently outlasted its nominal duration in
    simulated time.  Engines now sync the clock through ``on_tick_end``
    on every tick; these tests pin the invariant down at the unit level
    (the integration pin against the driver's ThroughputMonitor lives
    in tests/integration/test_stall_accounting.py).
    """

    def make_stalled(self, duration_s=2.0):
        bp = OnOffThrottle(stall_duration_s=duration_s)
        bp.ingest_budget(0.1, 1000.0, 0.0, 10_000.0)
        bp.force_stall()
        return bp

    def test_stalled_s_equals_duration_under_normal_ticking(self):
        bp = self.make_stalled(duration_s=2.0)
        for _ in range(40):
            bp.ingest_budget(0.1, 1000.0, 0.0, 10_000.0)
            bp.on_tick_end(bp._now)
        assert bp.stalled_s == pytest.approx(2.0)

    def test_skipped_ticks_do_not_stretch_the_stall(self):
        """The old bug: freeze the clock for 3 s of engine pause in the
        middle of a 2 s stall and the stall ran 5 s of simulated time.
        With the on_tick_end sync it must still account exactly 2 s."""
        bp = self.make_stalled(duration_s=2.0)
        now = bp._now
        for _ in range(10):  # 1 s of normal ticking
            now += 0.1
            bp.ingest_budget(0.1, 1000.0, 0.0, 10_000.0)
            bp.on_tick_end(now)
        for _ in range(30):  # 3 s of paused engine: no ingest_budget
            now += 0.1
            bp.on_tick_end(now)
        assert not bp.stalled  # the stall ended during the pause
        for _ in range(20):
            now += 0.1
            bp.ingest_budget(0.1, 1000.0, 0.0, 10_000.0)
            bp.on_tick_end(now)
        assert bp.stalled_s == pytest.approx(2.0)

    def test_off_time_accounted_separately_from_stall(self):
        bp = OnOffThrottle()
        bp.ingest_budget(1.0, 1000.0, 9500.0, 10_000.0)  # trips off
        bp.ingest_budget(1.0, 1000.0, 8000.0, 10_000.0)  # stays off 1 s
        bp.ingest_budget(1.0, 1000.0, 3000.0, 10_000.0)  # back on
        assert bp.off_s == pytest.approx(2.0)
        assert bp.stalled_s == 0.0

    def test_metrics_exports_all_counters(self):
        bp = self.make_stalled()
        metrics = bp.metrics()
        assert set(metrics) == {"stalled_s", "off_s", "stall_count"}
        assert metrics["stall_count"] == 1.0


class TestBackpressureMetrics:
    def test_credit_based_reports_limited_time(self):
        bp = CreditBased()
        bp.ingest_budget(1.0, 1000.0, 900.0, 1000.0)  # credit-bound
        bp.ingest_budget(1.0, 1000.0, 0.0, 1e9)  # capacity-bound
        assert bp.metrics() == {"credit_limited_s": 1.0}

    def test_rate_controller_reports_limited_time_and_finite_limit(self):
        rc = RateController(batch_interval_s=4.0)
        rc.rate_limit = 500.0
        rc.ingest_budget(1.0, 1000.0, 0.0, 1e9)  # limit-bound
        metrics = rc.metrics()
        assert metrics["rate_limited_s"] == 1.0
        assert metrics["rate_limit"] == 500.0

    def test_uncapped_rate_limit_exported_as_minus_one(self):
        rc = RateController(batch_interval_s=4.0)
        assert rc.metrics()["rate_limit"] == -1.0


class TestRateController:
    def test_initial_rate_unlimited_but_receiver_capped(self):
        rc = RateController(batch_interval_s=4.0)
        grant = rc.ingest_budget(1.0, 1000.0, 0.0, 1e9)
        assert grant == pytest.approx(1050.0)  # capacity * headroom

    def test_overrun_decreases_limit(self):
        rc = RateController(batch_interval_s=4.0)
        rc.rate_limit = 100_000.0
        rc.on_batch_complete(
            processing_time_s=5.0, batch_events=400_000.0, queued_jobs=0
        )
        assert rc.rate_limit < 100_000.0

    def test_queued_jobs_decrease_limit(self):
        rc = RateController(batch_interval_s=4.0)
        rc.rate_limit = 100_000.0
        rc.on_batch_complete(
            processing_time_s=3.0, batch_events=400_000.0, queued_jobs=3
        )
        assert rc.rate_limit < 100_000.0

    def test_underrun_increases_limit(self):
        rc = RateController(batch_interval_s=4.0)
        rc.rate_limit = 100_000.0
        rc.on_batch_complete(
            processing_time_s=2.0, batch_events=400_000.0, queued_jobs=0
        )
        assert rc.rate_limit == pytest.approx(110_000.0)

    def test_infinite_limit_untouched_by_underrun(self):
        rc = RateController(batch_interval_s=4.0)
        rc.on_batch_complete(
            processing_time_s=2.0, batch_events=100.0, queued_jobs=0
        )
        assert rc.rate_limit == float("inf")

    def test_min_rate_floor(self):
        rc = RateController(batch_interval_s=4.0)
        rc.rate_limit = 2000.0
        for _ in range(50):
            rc.on_batch_complete(
                processing_time_s=40.0, batch_events=8000.0, queued_jobs=5
            )
        assert rc.rate_limit == MIN_RATE

    def test_adjustments_counted(self):
        rc = RateController(batch_interval_s=4.0)
        rc.rate_limit = 1000.0
        rc.on_batch_complete(2.0, 100.0, 0)
        rc.on_batch_complete(5.0, 100.0, 0)
        assert rc.adjustments == 2

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            RateController(batch_interval_s=0.0)
