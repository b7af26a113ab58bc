"""Unit tests for the operator-rescheduling layer."""

import pytest

from repro.core.experiment import ExperimentSpec
from repro.faults.checkpoint import DETECTION_TIMEOUT_S
from repro.recovery import reschedule
from repro.recovery.reschedule import (
    MIGRATION_NIC_FRACTION,
    MODE_NONE,
    MODE_SPREAD,
    MODE_STANDBY,
    ReschedulePlan,
    migration_pause_s,
    plan_crash,
    plan_scale_in,
    plan_straggler,
    plan_suspect,
    resolve_mode,
)
from repro.sim.cluster import NIC_BYTES_PER_S


class TestPolicyValidation:
    def test_defaults(self):
        # No mode given: a standby pool selects standby promotion,
        # none keeps the legacy lose-capacity behaviour.
        assert resolve_mode(None, 0) == MODE_NONE
        assert resolve_mode(None, 2) == MODE_STANDBY
        assert resolve_mode(MODE_SPREAD, 2) == MODE_SPREAD
        assert ExperimentSpec().reschedule is None

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(standby=-1).cluster()
        with pytest.raises(ValueError):
            resolve_mode("teleport", 0)


class TestPlanCrash:
    def test_mode_none_is_legacy(self):
        # Capacity simply vanishes: nothing promoted, nothing migrated,
        # no modelled migration cost.
        plan = plan_crash(
            MODE_NONE,
            kill=1, active=4, standbys_left=3, state_bytes=1e9
        )
        assert plan.promoted == 0
        assert plan.survivors == 3
        assert plan.migrated_bytes == 0.0
        assert plan.migration_pause_s == 0.0
        assert not plan.fatal

    def test_mode_none_last_worker_fatal(self):
        plan = plan_crash(
            MODE_NONE,
            kill=2, active=2, standbys_left=5, state_bytes=1e9
        )
        assert plan.fatal

    def test_standby_promotion(self):
        plan = plan_crash(
            MODE_STANDBY,
            kill=1, active=4, standbys_left=2, state_bytes=8e8
        )
        assert plan.promoted == 1
        assert plan.survivors == 3
        assert plan.restored == 4
        # The dead node's share of state moves: state_bytes * kill/active.
        assert plan.migrated_bytes == pytest.approx(2e8)
        assert plan.migration_pause_s > 0

    def test_standby_rescues_last_worker(self):
        # The headline scenario: the last worker dies, but a standby
        # exists, so the job survives instead of aborting.
        plan = plan_crash(
            MODE_STANDBY,
            kill=2, active=2, standbys_left=1, state_bytes=1e9
        )
        assert not plan.fatal
        assert plan.promoted == 1
        assert plan.survivors == 0
        assert plan.restored == 1

    def test_fatal_when_pool_empty(self):
        plan = plan_crash(
            MODE_STANDBY,
            kill=2, active=2, standbys_left=0, state_bytes=1e9
        )
        assert plan.fatal
        assert plan.restored == 0

    def test_spread_migrates_without_promotion(self):
        plan = plan_crash(
            MODE_SPREAD,
            kill=1, active=4, standbys_left=3, state_bytes=8e8
        )
        assert plan.promoted == 0
        assert plan.survivors == 3
        assert plan.migrated_bytes == pytest.approx(2e8)

    def test_migration_pause_scales_with_nic(self, monkeypatch):
        monkeypatch.setattr(reschedule, "MIGRATION_NIC_FRACTION", 0.5)
        pause = migration_pause_s(1e9, receivers=2)
        # bytes / (receivers * nic * fraction)
        assert pause == pytest.approx(1e9 / (2 * NIC_BYTES_PER_S * 0.5))
        # More receivers pull the state in parallel: shorter pause.
        assert migration_pause_s(1e9, receivers=4) < pause
        assert migration_pause_s(0.0, receivers=2) == 0.0
        monkeypatch.undo()
        assert migration_pause_s(1e9, receivers=2) == pytest.approx(
            1e9 / (2 * NIC_BYTES_PER_S * MIGRATION_NIC_FRACTION)
        )

    def test_invalid_plan_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_crash(
                MODE_STANDBY,
                kill=0, active=2, standbys_left=0, state_bytes=0.0,
            )
        with pytest.raises(ValueError):
            plan_crash(
                MODE_STANDBY,
                kill=1, active=0, standbys_left=0, state_bytes=0.0,
            )


class TestPlanStraggler:
    def kwargs(self, **overrides):
        base = dict(
            nodes=1,
            duration_s=10.0,
            standbys_left=1,
            state_bytes=8e8,
            active=2,
        )
        base.update(overrides)
        return base

    def test_short_blip_never_migrates(self):
        # Strictly below the failure detector's timeout, nobody notices
        # the straggler -- migrating state for a blip would cost more
        # than riding it out.
        plan = plan_straggler(
            MODE_STANDBY, **self.kwargs(duration_s=DETECTION_TIMEOUT_S - 1e-9)
        )
        assert plan.promoted == 0
        assert plan.migrated_bytes == 0.0

    def test_boundary_fault_is_detected(self):
        # Regression: a fault lasting *exactly* DETECTION_TIMEOUT_S was
        # waved through (`<=`), contradicting the detector layer's
        # inclusive conviction at elapsed == timeout.  The boundary is
        # detection, so the straggler is replaced.
        plan = plan_straggler(
            MODE_STANDBY, **self.kwargs(duration_s=DETECTION_TIMEOUT_S)
        )
        assert plan.promoted == 1
        assert plan.migrated_bytes > 0.0

    def test_detected_straggler_is_replaced(self):
        plan = plan_straggler(MODE_STANDBY, **self.kwargs())
        assert plan.promoted == 1
        assert plan.migrated_bytes == pytest.approx(4e8)
        assert plan.migration_pause_s > 0

    def test_no_standby_means_ride_it_out(self):
        plan = plan_straggler(MODE_STANDBY, **self.kwargs(standbys_left=0))
        assert plan.promoted == 0

    def test_non_standby_modes_never_replace(self):
        for mode in (MODE_NONE, MODE_SPREAD):
            assert plan_straggler(mode, **self.kwargs()).promoted == 0


class TestPlanSuspect:
    def kwargs(self, **overrides):
        base = dict(active=2, standbys_left=1, state_bytes=8e8)
        base.update(overrides)
        return base

    def test_standby_promotion_keeps_headcount(self):
        plan = plan_suspect(MODE_STANDBY, **self.kwargs())
        assert plan.promoted == 1
        assert plan.survivors == 1
        # One worker's share of state moves, and the pause is real --
        # this is what a false positive costs.
        assert plan.migrated_bytes == pytest.approx(4e8)
        assert plan.migration_pause_s > 0

    def test_spread_shrinks_capacity(self):
        plan = plan_suspect(MODE_SPREAD, **self.kwargs(active=3))
        assert plan.promoted == 0
        assert plan.survivors == 2
        assert plan.migrated_bytes > 0

    def test_mode_none_declines(self):
        plan = plan_suspect(MODE_NONE, **self.kwargs())
        assert plan.promoted == 0
        assert plan.survivors == 2
        assert plan.migration_pause_s == 0.0

    def test_never_kills_the_last_worker_on_a_suspicion(self):
        plan = plan_suspect(MODE_SPREAD, **self.kwargs(active=1))
        assert plan.survivors == 1
        assert not plan.fatal

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            plan_suspect(MODE_STANDBY, **self.kwargs(active=0))


class TestPlanValidation:
    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ReschedulePlan(
                promoted=-1, survivors=2, migrated_bytes=0.0,
                migration_pause_s=0.0, fatal=False,
            )
        with pytest.raises(ValueError):
            ReschedulePlan(
                promoted=0, survivors=2, migrated_bytes=-1.0,
                migration_pause_s=0.0, fatal=False,
            )

    def test_non_fatal_plan_must_keep_a_worker(self):
        # The autoscale guard: a plan that empties the cluster without
        # declaring the job dead is rejected at construction.
        with pytest.raises(ValueError):
            ReschedulePlan(
                promoted=0, survivors=0, migrated_bytes=0.0,
                migration_pause_s=0.0, fatal=False,
            )
        # Fatal plans may legitimately leave zero workers.
        plan = ReschedulePlan(
            promoted=0, survivors=0, migrated_bytes=0.0,
            migration_pause_s=0.0, fatal=True,
        )
        assert plan.restored == 0


class TestPlanScaleIn:
    def plan(self, **kwargs):
        merged = dict(remove=1, active=4, state_bytes=8e8)
        merged.update(kwargs)
        return plan_scale_in(**merged)

    def test_departing_share_drains_to_survivors(self):
        plan = self.plan(remove=1, active=4, state_bytes=8e8)
        assert plan.survivors == 3
        assert plan.promoted == 0
        assert not plan.fatal
        # The victims' share of keyed state: state_bytes * remove/active.
        assert plan.migrated_bytes == pytest.approx(2e8)
        expected_pause = migration_pause_s(2e8, 3)
        assert plan.migration_pause_s == pytest.approx(expected_pause)
        assert plan.migration_pause_s > 0

    def test_pause_scales_with_fewer_receivers(self):
        # Removing more workers moves more bytes onto fewer NICs: the
        # pause must grow on both axes.
        one = self.plan(remove=1, active=4)
        two = self.plan(remove=2, active=4)
        assert two.migrated_bytes > one.migrated_bytes
        assert two.migration_pause_s > one.migration_pause_s

    def test_last_worker_never_removed(self):
        with pytest.raises(ValueError):
            self.plan(remove=1, active=1)
        with pytest.raises(ValueError):
            self.plan(remove=4, active=4)
        with pytest.raises(ValueError):
            self.plan(remove=5, active=4)

    def test_remove_must_be_positive(self):
        with pytest.raises(ValueError):
            self.plan(remove=0)
        with pytest.raises(ValueError):
            self.plan(remove=-1)

    def test_stateless_scale_in_is_pause_free(self):
        plan = self.plan(state_bytes=0.0)
        assert plan.migrated_bytes == 0.0
        assert plan.migration_pause_s == 0.0
