"""Unit tests for scaling policies: bands, cooldown, anti-flapping."""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autoscale import policy as policy_module
from repro.autoscale.policy import (
    POLICY_NAMES,
    AutoscaleSpec,
    ScalingSignals,
    TargetUtilizationPolicy,
    ThresholdPolicy,
)

NAN = float("nan")


def signals(
    now,
    *,
    delay=NAN,
    lag=NAN,
    stall=NAN,
    offered=NAN,
    capacity=NAN,
    workers=2,
):
    return ScalingSignals(
        now=now,
        queue_delay_s=delay,
        watermark_lag_s=lag,
        backpressure_stall_s=stall,
        offered_rate=offered,
        capacity_events_per_s=capacity,
        active_workers=workers,
    )


class TestAutoscaleSpec:
    def test_defaults_build_both_policies(self):
        for name in POLICY_NAMES:
            policy = AutoscaleSpec(policy=name).build_policy()
            assert policy.cooldown_s == 20.0

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            AutoscaleSpec(policy="psychic")
        with pytest.raises(ValueError):
            AutoscaleSpec(min_workers=0)
        with pytest.raises(ValueError):
            AutoscaleSpec(min_workers=4, max_workers=3)
        with pytest.raises(ValueError):
            AutoscaleSpec(cooldown_s=-1.0)

    def test_spec_is_picklable_key_material(self):
        # Scorecard fingerprints repr() the config; specs must be
        # hashable value objects.
        assert AutoscaleSpec() == AutoscaleSpec()
        assert hash(AutoscaleSpec()) == hash(AutoscaleSpec())


class TestScalingSignals:
    def test_utilization(self):
        s = signals(0.0, offered=50.0, capacity=100.0)
        assert s.utilization == pytest.approx(0.5)

    def test_utilization_nan_safe(self):
        assert math.isnan(signals(0.0).utilization)
        assert math.isnan(signals(0.0, offered=1.0, capacity=0.0).utilization)


@pytest.fixture
def make(monkeypatch):
    """Build ``policy_cls`` with ``cooldown_s``; every other keyword
    patches the policy module's constant of that (upper-cased) name."""

    def build(policy_cls, cooldown_s=10.0, **constants):
        for name, value in constants.items():
            monkeypatch.setattr(policy_module, name.upper(), value)
        return policy_cls(cooldown_s)

    return build


class TestThresholdPolicy:
    @pytest.fixture
    def make(self, make):
        return lambda **kwargs: make(
            ThresholdPolicy, **{"settle_samples": 2, **kwargs}
        )

    def test_scale_out_on_first_hot_sample(self, make):
        policy = make()
        decision = policy.decide(signals(1.0, delay=5.0))
        assert decision is not None
        assert decision.delta == 2
        assert decision.reason == "lag"
        assert decision.detect_s == 0.0

    def test_watermark_lag_also_triggers(self, make):
        decision = make().decide(signals(1.0, lag=9.0))
        assert decision is not None and decision.delta > 0

    def test_cooldown_blocks_second_decision(self, make):
        policy = make(cooldown_s=10.0)
        assert policy.decide(signals(1.0, delay=5.0)) is not None
        assert policy.decide(signals(2.0, delay=50.0)) is None
        assert policy.decide(signals(10.9, delay=50.0)) is None
        late = policy.decide(signals(11.1, delay=50.0))
        assert late is not None
        # The wait inside the cooldown is charged to detection.
        assert late.detect_s == pytest.approx(11.1 - 2.0)

    def test_stall_duty_cycle_triggers(self, make):
        policy = make()
        # Cumulative stall seconds: 0.9 s stalled out of a 1 s interval.
        assert policy.decide(signals(1.0, stall=0.0)) is None
        decision = policy.decide(signals(2.0, stall=0.9))
        assert decision is not None
        assert decision.reason == "stall"

    def test_scale_in_requires_settle_streak(self, make):
        policy = make(settle_samples=3, cooldown_s=0.0)
        idle = dict(delay=0.1, lag=0.1, offered=10.0, capacity=100.0)
        assert policy.decide(signals(1.0, **idle)) is None
        assert policy.decide(signals(2.0, **idle)) is None
        decision = policy.decide(signals(3.0, **idle))
        assert decision is not None
        assert decision.delta == -2
        assert decision.reason == "idle"
        assert decision.detect_s == pytest.approx(2.0)

    def test_scale_in_blocked_outside_calm_band(self, make):
        # Low utilization but queue delay above the calm band (half the
        # high threshold): the backlog drain must not be starved.
        policy = make(settle_samples=1, cooldown_s=0.0)
        busy = dict(delay=3.0, offered=10.0, capacity=100.0)
        assert policy.decide(signals(1.0, **busy)) is None
        assert policy.decide(signals(2.0, **busy)) is None

    def test_no_evidence_no_decision(self, make):
        policy = make(cooldown_s=0.0, settle_samples=1)
        for t in range(1, 20):
            assert policy.decide(signals(float(t))) is None


class TestTargetUtilizationPolicy:
    @pytest.fixture
    def make(self, make):
        return lambda **kwargs: make(
            TargetUtilizationPolicy, **{"settle_samples": 2, **kwargs}
        )

    def test_above_target_scales_out(self, make):
        policy = make()
        hot = dict(offered=150.0, capacity=100.0, workers=2)
        decision = policy.decide(signals(1.0, **hot))
        assert decision is not None
        assert decision.delta > 0
        assert decision.reason == "above-target"
        # Second breach lands inside the cooldown.
        assert policy.decide(signals(2.0, **hot)) is None

    def test_step_clamped(self, make):
        policy = make(step_workers=2)
        # Error of 10x target on 8 workers asks for far more than 2.
        hot = dict(offered=1000.0, capacity=100.0, workers=8)
        decision = policy.decide(signals(1.0, **hot))
        assert decision is not None
        assert decision.delta == 2

    def test_below_target_debounced_then_scales_in(self, make):
        policy = make(cooldown_s=0.0, settle_samples=3)
        cold = dict(offered=10.0, capacity=100.0, workers=4, delay=0.0, lag=0.0)
        assert policy.decide(signals(1.0, **cold)) is None
        assert policy.decide(signals(2.0, **cold)) is None
        decision = policy.decide(signals(3.0, **cold))
        assert decision is not None
        assert decision.delta < 0
        assert decision.reason == "below-target"

    def test_scale_in_blocked_while_backlogged(self, make):
        # The flash-crowd aftermath: offered rate collapsed, queues
        # still deep.  Utilization alone says shrink; the calm gate
        # must veto it.
        policy = make(cooldown_s=0.0, settle_samples=1)
        draining = dict(offered=10.0, capacity=100.0, workers=4, delay=9.0)
        for t in range(1, 10):
            assert policy.decide(signals(float(t), **draining)) is None
        # Backlog clears: now the shrink goes through.
        calm = dict(offered=10.0, capacity=100.0, workers=4, delay=0.1)
        assert policy.decide(signals(10.0, **calm)) is not None

    def test_deadband_holds(self, make):
        policy = make(cooldown_s=0.0, settle_samples=1)
        near = dict(offered=74.0, capacity=100.0, workers=2, delay=0.0)
        for t in range(1, 10):
            assert policy.decide(signals(float(t), **near)) is None

    def test_unknown_utilization_holds(self, make):
        policy = make(cooldown_s=0.0)
        assert policy.decide(signals(1.0, delay=50.0)) is None


def _signal_strategy():
    maybe_nan = st.one_of(st.just(NAN), st.floats(0.0, 50.0))
    return st.tuples(
        maybe_nan,                     # queue delay
        maybe_nan,                     # watermark lag
        st.floats(0.0, 100.0),         # cumulative stall
        st.floats(0.0, 1e6),           # offered
        st.floats(1.0, 1e6),           # capacity
        st.integers(1, 16),            # workers
    )


class TestNoFlapping:
    """The contract both policies advertise: consecutive decisions are
    separated by >= cooldown_s of simulated time, whatever the signals
    do -- in particular a hostile series cannot make the policy thrash
    out/in/out within one cooldown window."""

    @given(
        series=st.lists(_signal_strategy(), min_size=4, max_size=40),
        cooldown=st.floats(1.0, 30.0),
        dt=st.floats(0.25, 5.0),
        threshold=st.booleans(),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_decisions_respect_cooldown(self, series, cooldown, dt, threshold):
        with pytest.MonkeyPatch.context() as patch:
            # Scale-ins fire on the first calm sample: the most
            # decisions a series can produce.
            patch.setattr(policy_module, "SETTLE_SAMPLES", 1)
            if threshold:
                policy = ThresholdPolicy(cooldown)
            else:
                policy = TargetUtilizationPolicy(cooldown)
            decided_at = []
            for i, signal in enumerate(series):
                delay, lag, stall, offered, capacity, workers = signal
                now = (i + 1) * dt
                decision = policy.decide(
                    signals(
                        now,
                        delay=delay,
                        lag=lag,
                        stall=stall,
                        offered=offered,
                        capacity=capacity,
                        workers=workers,
                    )
                )
                if decision is not None:
                    assert decision.delta != 0
                    decided_at.append(now)
            for earlier, later in zip(decided_at, decided_at[1:]):
                assert later - earlier >= cooldown - 1e-9

    @given(
        cooldown=st.floats(0.0, 5.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_threshold_oscillating_signal_cannot_reverse_quickly(
        self, cooldown, seed
    ):
        # Alternate overload/idle every sample: opposite-signed
        # decisions must still be >= cooldown apart.
        with pytest.MonkeyPatch.context() as patch:
            # Scale-ins fire on the first calm sample: the most
            # decisions a series can produce.
            patch.setattr(policy_module, "SETTLE_SAMPLES", 1)
            policy = ThresholdPolicy(cooldown)
            last = None
            for i in range(40):
                now = float(i)
                if i % 2 == (seed % 2):
                    s = signals(now, delay=50.0)
                else:
                    s = signals(now, delay=0.0, offered=1.0, capacity=100.0)
                decision = policy.decide(s)
                if decision is None:
                    continue
                if last is not None and decision.delta * last[1] < 0:
                    assert now - last[0] >= cooldown - 1e-9
                last = (now, decision.delta)
