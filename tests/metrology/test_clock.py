"""Unit tests for the per-node clock model (`repro.sim.clock`)."""

import numpy as np
import pytest

from repro.sim.clock import ClockSkewSpec, NodeClock


class TestClockSkewSpec:
    def test_defaults_are_paper_realistic(self):
        spec = ClockSkewSpec()
        assert spec.offset_s == pytest.approx(0.005)
        assert spec.drift_ppm == pytest.approx(20.0)
        assert spec.corrected

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            ClockSkewSpec(offset_s=-0.001)
        with pytest.raises(ValueError):
            ClockSkewSpec(drift_ppm=-1.0)
        with pytest.raises(ValueError):
            ClockSkewSpec(ntp_interval_s=0.0)
        with pytest.raises(ValueError):
            ClockSkewSpec(ntp_residual_s=-0.1)

    def test_disciplined_error_bound(self):
        # Between syncs the estimate ages at the drift rate: the bound
        # is the residual plus a full interval of drift.
        spec = ClockSkewSpec(
            drift_ppm=50.0, ntp_interval_s=10.0, ntp_residual_s=0.001
        )
        assert spec.disciplined_error_bound_s == pytest.approx(
            0.001 + 50e-6 * 10.0
        )

    def test_fleet_is_deterministic_in_the_rng(self):
        spec = ClockSkewSpec()
        a = spec.build_fleet(np.random.default_rng(5), count=4)
        b = spec.build_fleet(np.random.default_rng(5), count=4)
        assert [c.offset_s for c in a] == [c.offset_s for c in b]
        assert [c.drift_rate for c in a] == [c.drift_rate for c in b]

    def test_fleet_respects_spec_magnitudes(self):
        spec = ClockSkewSpec(offset_s=0.002, drift_ppm=10.0)
        for clock in spec.build_fleet(np.random.default_rng(0), count=32):
            assert abs(clock.offset_s) <= 0.002
            assert abs(clock.drift_rate) <= 10e-6


class TestNodeClock:
    def _clock(self, **spec_kw) -> NodeClock:
        spec = ClockSkewSpec(**spec_kw)
        (clock,) = spec.build_fleet(np.random.default_rng(3), count=1)
        return clock

    def test_raw_error_is_offset_plus_drift(self):
        clock = self._clock(corrected=False)
        t = 100.0
        assert clock.error(t) == pytest.approx(
            clock.offset_s + clock.drift_rate * t
        )
        assert clock.measurement_error(t) == clock.error(t)

    def test_read_applies_the_error(self):
        clock = self._clock()
        assert clock.read(50.0) == pytest.approx(
            50.0 + clock.measurement_error(50.0)
        )

    def test_disciplined_error_within_bound_everywhere(self):
        clock = self._clock(
            offset_s=0.050, drift_ppm=100.0, ntp_interval_s=15.0,
            ntp_residual_s=0.0005,
        )
        # What the NTP methodology promises a disciplined clock.
        bound = clock.spec.disciplined_error_bound_s
        for t in np.linspace(0.0, 600.0, 4001):
            assert abs(clock.disciplined_error(float(t))) <= bound

    def test_discipline_beats_raw_error_at_late_times(self):
        # A 50 ms offset never decays raw, but one NTP sync removes it.
        clock = self._clock(offset_s=0.050, drift_ppm=20.0)
        t = 400.0
        assert abs(clock.disciplined_error(t)) < abs(clock.error(t))

    def test_sync_residuals_are_deterministic(self):
        clock = self._clock()
        assert clock.disciplined_error(95.0) == clock.disciplined_error(95.0)
        # Different epochs draw independent residuals.
        epochs = {round(clock.disciplined_error(30.0 * k + 1.0), 12)
                  for k in range(1, 9)}
        assert len(epochs) > 1
