"""Unit tests for load shedding and admission ramps."""

import pytest

from repro.core.queues import DriverQueue
from repro.recovery.degradation import (
    SHED_NEWEST,
    SHED_NONE,
    SHED_OLDEST,
    DegradationPolicy,
)

from tests.cohorts import cohort, expand


class TestPolicyValidation:
    def test_defaults_are_inert(self):
        policy = DegradationPolicy()
        assert policy.shed == SHED_NONE
        assert not policy.sheds
        assert policy.shed_excess(1e9, 1.0) == 0.0
        assert policy.admission_fraction(10.0, 5.0) == 1.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            DegradationPolicy(shed="middle")
        with pytest.raises(ValueError):
            DegradationPolicy(max_queue_delay_s=0.0)
        with pytest.raises(ValueError):
            DegradationPolicy(readmission_ramp_s=-1.0)


class TestShedExcess:
    POLICY = DegradationPolicy(shed=SHED_OLDEST, max_queue_delay_s=5.0)

    def test_backlog_within_bound_untouched(self):
        # 1000 ev/s capacity clears a 5000-event backlog in exactly the
        # 5 s bound: nothing to shed.
        assert self.POLICY.shed_excess(5_000.0, 1_000.0) == 0.0

    def test_excess_is_dropped(self):
        assert self.POLICY.shed_excess(7_500.0, 1_000.0) == pytest.approx(
            2_500.0
        )

    def test_no_shedding_while_paused(self):
        # Zero capacity means the engine is in a recovery pause; the
        # bound is enforced against live capacity only (shedding data a
        # recovered engine could still clear in time would be waste).
        assert self.POLICY.shed_excess(1e9, 0.0) == 0.0


class TestAdmissionFraction:
    POLICY = DegradationPolicy(shed=SHED_OLDEST, readmission_ramp_s=4.0)

    def test_no_ramp_configured(self):
        assert DegradationPolicy().admission_fraction(3.0, 2.0) == 1.0

    def test_no_pause_yet(self):
        # ramp_from_s < 0 means no recovery pause has ended yet.
        assert self.POLICY.admission_fraction(100.0, -1.0) == 1.0

    def test_linear_ramp(self):
        p = self.POLICY
        assert p.admission_fraction(10.0, 10.0) == pytest.approx(0.25)
        assert p.admission_fraction(12.0, 10.0) == pytest.approx(0.625)
        assert p.admission_fraction(14.0, 10.0) == 1.0
        assert p.admission_fraction(99.0, 10.0) == 1.0


def filled_queue(weights, capacity=1e9):
    queue = DriverQueue("q0", capacity_weight=capacity)
    for i, weight in enumerate(weights):
        queue.push_block(
            cohort(key=i, event_time=float(i), weight=weight),
            at_time=float(i),
        )
    return queue


class TestQueueShedding:
    def test_shed_oldest_pops_head(self):
        queue = filled_queue([10.0, 20.0, 30.0])
        dropped = queue.shed(10.0, drop_oldest=True)
        assert dropped == pytest.approx(10.0)
        assert queue.shed_weight == pytest.approx(10.0)
        # The head cohort (event_time 0) is gone.
        remaining = expand(queue.pull_blocks(1e9))
        assert [r.event_time for r in remaining] == [1.0, 2.0]

    def test_shed_newest_pops_tail(self):
        queue = filled_queue([10.0, 20.0, 30.0])
        dropped = queue.shed(30.0, drop_oldest=False)
        assert dropped == pytest.approx(30.0)
        remaining = expand(queue.pull_blocks(1e9))
        assert [r.event_time for r in remaining] == [0.0, 1.0]

    def test_partial_cohort_shed_splits(self):
        queue = filled_queue([10.0, 20.0])
        dropped = queue.shed(15.0, drop_oldest=True)
        assert dropped == pytest.approx(15.0)
        remaining = expand(queue.pull_blocks(1e9))
        # First cohort fully shed, second reduced to 15.
        assert len(remaining) == 1
        assert remaining[0].weight == pytest.approx(15.0)

    def test_conservation_ledger_balances(self):
        queue = filled_queue([10.0, 20.0, 30.0])
        queue.shed(25.0)
        queue.pull_blocks(12.0)
        assert queue.pushed_weight == pytest.approx(
            queue.pulled_weight + queue.queued_weight + queue.shed_weight
        )

    def test_shed_more_than_queued(self):
        queue = filled_queue([10.0])
        assert queue.shed(1e9) == pytest.approx(10.0)
        assert queue.queued_weight == 0.0

    def test_shed_nothing(self):
        queue = filled_queue([10.0])
        assert queue.shed(0.0) == 0.0
        assert queue.shed_weight == 0.0
