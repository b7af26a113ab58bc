"""Unit tests for rate profiles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import profiles
from repro.workloads.profiles import (
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    FluctuatingRate,
    StepRate,
    fig6_profile,
)


class TestConstantRate:
    def test_constant(self):
        p = ConstantRate(5e5)
        assert p.rate_at(0) == 5e5
        assert p.rate_at(1e6) == 5e5

    def test_peak(self):
        assert ConstantRate(3.0).peak(100) == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConstantRate(-1.0)

    def test_scaled_for_90_percent_runs(self):
        p = ConstantRate(1.0e6).scaled(0.9)
        assert p.rate_at(5.0) == pytest.approx(0.9e6)


class TestStepRate:
    def test_steps_apply_in_order(self):
        p = StepRate([(0.0, 10.0), (5.0, 20.0), (10.0, 5.0)])
        assert p.rate_at(0.0) == 10.0
        assert p.rate_at(4.9) == 10.0
        assert p.rate_at(5.0) == 20.0
        assert p.rate_at(12.0) == 5.0

    def test_before_first_step_uses_first_rate(self):
        p = StepRate([(2.0, 7.0)])
        assert p.rate_at(0.0) == 7.0

    def test_unordered_steps_rejected(self):
        with pytest.raises(ValueError):
            StepRate([(5.0, 1.0), (0.0, 2.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            StepRate([])

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            StepRate([(0.0, -1.0)])


class TestFluctuatingRate:
    def test_high_low_high(self):
        p = FluctuatingRate(high=100.0, low=20.0, drop_at=10.0, recover_at=20.0)
        assert p.rate_at(5.0) == 100.0
        assert p.rate_at(15.0) == 20.0
        assert p.rate_at(25.0) == 100.0

    def test_peak_is_high(self):
        p = FluctuatingRate(high=100.0, low=20.0, drop_at=10.0, recover_at=20.0)
        assert p.peak(30.0) == 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FluctuatingRate(high=10, low=20, drop_at=1, recover_at=2)
        with pytest.raises(ValueError):
            FluctuatingRate(high=20, low=10, drop_at=5, recover_at=5)


class TestFig6Profile:
    def test_paper_rates(self):
        p = fig6_profile()
        assert p.rate_at(0.0) == pytest.approx(0.84e6)
        assert p.rate_at(150.0) == pytest.approx(0.28e6)
        assert p.rate_at(250.0) == pytest.approx(0.84e6)

    def test_phase_boundaries_at_thirds(self, monkeypatch):
        monkeypatch.setattr(profiles, "FIG6_DURATION_S", 90.0)
        p = fig6_profile()
        assert p.drop_at == pytest.approx(30.0)
        assert p.recover_at == pytest.approx(60.0)


class TestExactPeaks:
    """``peak`` must see features narrower than any sampling grid --
    driver queues are provisioned from it (PR 7 regression)."""

    def test_step_sub_resolution_spike_counted(self):
        # A 100 ms spike between two 1 s samples: the sampled base
        # implementation would report 10.0, the exact override must not.
        p = StepRate([(0.0, 10.0), (5.4, 500.0), (5.5, 10.0)])
        assert p.peak(20.0, resolution_s=1.0) == 500.0

    def test_step_spike_beyond_horizon_ignored(self):
        p = StepRate([(0.0, 10.0), (30.0, 500.0)])
        assert p.peak(20.0) == 10.0
        assert p.peak(30.0) == 500.0

    def test_scaled_peak_composes_with_exact_base(self):
        p = StepRate([(0.0, 10.0), (5.4, 500.0), (5.5, 10.0)]).scaled(0.5)
        assert p.peak(20.0) == 250.0


class TestDiurnalRate:
    def test_trough_and_crest(self):
        p = DiurnalRate(low=10.0, high=110.0, period_s=100.0)
        assert p.rate_at(0.0) == pytest.approx(10.0)
        assert p.rate_at(50.0) == pytest.approx(110.0)
        assert p.rate_at(100.0) == pytest.approx(10.0)

    def test_phase_shifts_the_curve(self):
        p = DiurnalRate(low=10.0, high=110.0, period_s=100.0, phase_s=50.0)
        assert p.rate_at(0.0) == pytest.approx(110.0)

    def test_peak_exact_when_crest_inside_horizon(self):
        p = DiurnalRate(low=10.0, high=110.0, period_s=100.0)
        assert p.peak(50.0) == 110.0
        assert p.peak(1000.0) == 110.0

    def test_peak_before_first_crest_uses_endpoint(self):
        p = DiurnalRate(low=10.0, high=110.0, period_s=100.0)
        # Rising edge: the maximum over [0, 20] is at t=20, far below
        # the crest -- and narrower than any grid could misreport.
        assert p.peak(20.0) == pytest.approx(p.rate_at(20.0))
        assert p.peak(20.0) < 110.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalRate(low=-1.0, high=10.0)
        with pytest.raises(ValueError):
            DiurnalRate(low=20.0, high=10.0)
        with pytest.raises(ValueError):
            DiurnalRate(low=1.0, high=2.0, period_s=0.0)


class TestFlashCrowdRate:
    def test_spike_inside_burst_base_outside(self):
        p = FlashCrowdRate(
            base=10.0, spike=100.0, horizon_s=60.0, spikes=2,
            spike_duration_s=5.0, seed=3,
        )
        assert len(p.bursts) == 2
        for start, end in p.bursts:
            assert p.rate_at((start + end) / 2.0) == 100.0
            assert end - start == pytest.approx(5.0)
        assert p.rate_at(p.bursts[0][1] + 1e-9) in (10.0, 100.0)

    def test_bursts_deterministic_per_seed(self):
        kwargs = dict(
            base=10.0, spike=100.0, horizon_s=60.0, spikes=3,
            spike_duration_s=4.0,
        )
        a = FlashCrowdRate(seed=7, **kwargs)
        b = FlashCrowdRate(seed=7, **kwargs)
        c = FlashCrowdRate(seed=8, **kwargs)
        assert a.bursts == b.bursts
        assert a.bursts != c.bursts

    def test_bursts_never_overlap(self):
        p = FlashCrowdRate(
            base=1.0, spike=2.0, horizon_s=100.0, spikes=5,
            spike_duration_s=20.0, seed=0,
        )
        for (_, end), (start, _) in zip(p.bursts, p.bursts[1:]):
            assert end <= start

    def test_peak_exact_for_sub_resolution_burst(self):
        # A 50 ms flash crowd: invisible on a 1 s sampling grid, still
        # the peak the queues must be provisioned for.
        p = FlashCrowdRate(
            base=10.0, spike=1000.0, horizon_s=60.0, spikes=1,
            spike_duration_s=0.05, seed=5,
        )
        assert p.peak(60.0, resolution_s=1.0) == 1000.0
        sampled = max(p.rate_at(float(i)) for i in range(61))
        assert sampled == 10.0  # the grid really would have missed it

    def test_peak_before_first_burst_is_base(self):
        p = FlashCrowdRate(
            base=10.0, spike=100.0, horizon_s=60.0, spikes=1,
            spike_duration_s=5.0, seed=0,
        )
        first_start = p.bursts[0][0]
        assert p.peak(first_start / 2.0) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FlashCrowdRate(base=-1.0, spike=10.0, horizon_s=10.0)
        with pytest.raises(ValueError):
            FlashCrowdRate(base=10.0, spike=5.0, horizon_s=10.0)
        with pytest.raises(ValueError):
            FlashCrowdRate(base=1.0, spike=2.0, horizon_s=0.0)
        with pytest.raises(ValueError):
            FlashCrowdRate(base=1.0, spike=2.0, horizon_s=10.0, spikes=0)
        with pytest.raises(ValueError):
            # duration longer than a segment
            FlashCrowdRate(
                base=1.0, spike=2.0, horizon_s=10.0, spikes=2,
                spike_duration_s=6.0,
            )


class TestProfileProperties:
    """Hypothesis: the invariants every autoscale workload relies on."""

    @given(
        low=st.floats(0.0, 1e6),
        span=st.floats(0.0, 1e6),
        period=st.floats(1.0, 1e5),
        phase=st.floats(0.0, 1e5),
        t=st.floats(0.0, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_diurnal_rate_within_band(self, low, span, period, phase, t):
        p = DiurnalRate(low=low, high=low + span, period_s=period, phase_s=phase)
        rate = p.rate_at(t)
        assert low - 1e-6 * (low + span) <= rate <= low + span + 1e-6 * (low + span)

    @given(
        low=st.floats(0.0, 1e6),
        span=st.floats(0.0, 1e6),
        period=st.floats(1.0, 1e5),
        t=st.floats(0.0, 1e5),
        horizon=st.floats(0.1, 1e5),
    )
    @settings(max_examples=200, deadline=None)
    def test_diurnal_peak_bounds_every_sample(self, low, span, period, t, horizon):
        p = DiurnalRate(low=low, high=low + span, period_s=period)
        if t <= horizon:
            assert p.rate_at(t) <= p.peak(horizon) * (1 + 1e-12) + 1e-9

    @given(
        period=st.floats(1.0, 1e4),
        t=st.floats(0.0, 1e4),
    )
    @settings(max_examples=100, deadline=None)
    def test_diurnal_is_periodic(self, period, t):
        p = DiurnalRate(low=5.0, high=15.0, period_s=period)
        assert p.rate_at(t) == pytest.approx(p.rate_at(t + period), rel=1e-6, abs=1e-6)

    @given(
        base=st.floats(0.0, 1e5),
        extra=st.floats(0.0, 1e6),
        horizon=st.floats(1.0, 1e4),
        spikes=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
        t=st.floats(0.0, 2e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_flash_crowd_rate_is_base_or_spike(
        self, base, extra, horizon, spikes, seed, t
    ):
        duration = horizon / spikes / 2.0
        p = FlashCrowdRate(
            base=base, spike=base + extra, horizon_s=horizon,
            spikes=spikes, spike_duration_s=duration, seed=seed,
        )
        assert p.rate_at(t) in (p.base, p.spike)
        assert p.rate_at(t) >= 0.0

    @given(
        seed=st.integers(0, 2**31 - 1),
        spikes=st.integers(1, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_flash_crowd_seed_determinism(self, seed, spikes):
        kwargs = dict(
            base=3.0, spike=9.0, horizon_s=120.0, spikes=spikes,
            spike_duration_s=5.0,
        )
        a = FlashCrowdRate(seed=seed, **kwargs)
        b = FlashCrowdRate(seed=seed, **kwargs)
        assert a.bursts == b.bursts
        for t in (0.0, 17.3, 59.9, 119.9):
            assert a.rate_at(t) == b.rate_at(t)

    @given(
        factor=st.floats(0.0, 10.0),
        t=st.floats(0.0, 200.0),
        horizon=st.floats(1.0, 200.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_scaled_composition(self, factor, t, horizon):
        base = FlashCrowdRate(
            base=10.0, spike=100.0, horizon_s=100.0, spikes=2,
            spike_duration_s=5.0, seed=1,
        )
        scaled = base.scaled(factor)
        assert scaled.rate_at(t) == pytest.approx(base.rate_at(t) * factor)
        assert scaled.peak(horizon) == pytest.approx(base.peak(horizon) * factor)
