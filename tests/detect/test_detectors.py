"""Unit tests for the three failure-detector contracts."""

import pytest

from repro.detect import (
    PhiAccrualDetector,
    QuorumDetector,
    TimeoutDetector,
)
from repro.detect import detectors
from repro.detect.detectors import OBSERVERS


class TestTimeoutDetector:
    def test_boundary_is_inclusive(self):
        # A silence of *exactly* timeout_s convicts -- the same boundary
        # plan_straggler uses, so the two layers agree on what
        # "detected" means.
        det = TimeoutDetector(timeout_s=2.0)
        det.observe(0, 0, 10.0)
        assert not det.suspect(0, 11.999)
        assert det.suspect(0, 12.0)
        assert det.suspect(0, 12.001)

    def test_never_observed_is_never_suspected(self):
        # A node the plane has not started tracking yet must not be
        # convicted for having no history.
        det = TimeoutDetector(timeout_s=2.0)
        assert not det.suspect(5, 100.0)

    def test_fresh_heartbeat_clears(self):
        det = TimeoutDetector(timeout_s=2.0)
        det.observe(0, 0, 10.0)
        assert det.suspect(0, 12.5)
        det.observe(0, 0, 12.4)
        assert not det.suspect(0, 12.5)

    def test_single_observer_only(self):
        # The fixed-timeout contract is one control-plane observer;
        # other observers' deliveries must not refresh it.
        det = TimeoutDetector(timeout_s=2.0)
        det.observe(0, 0, 10.0)
        det.observe(0, 1, 13.0)
        assert det.suspect(0, 13.0)

    def test_stale_arrival_does_not_rewind(self):
        det = TimeoutDetector(timeout_s=2.0)
        det.observe(0, 0, 10.0)
        det.observe(0, 0, 9.0)  # reordered delivery
        assert det.suspect(0, 12.0)

    def test_forget_drops_state(self):
        det = TimeoutDetector(timeout_s=2.0)
        det.observe(0, 0, 10.0)
        det.forget(0)
        assert not det.suspect(0, 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeoutDetector(timeout_s=0.0)


class TestPhiAccrualDetector:
    def _warm(self, det, node=0, beats=10, interval=0.5, start=0.0):
        for i in range(beats):
            det.observe(node, 0, start + i * interval)
        return start + (beats - 1) * interval

    def test_cold_detector_stays_silent(self):
        det = PhiAccrualDetector()
        det.observe(0, 0, 0.0)
        det.observe(0, 0, 0.5)
        # Two arrivals = one interval < min_history: no verdict however
        # long the silence.
        assert not det.suspect(0, 1_000.0)

    def test_regular_stream_not_suspected(self):
        det = PhiAccrualDetector()
        last = self._warm(det)
        assert not det.suspect(0, last + 0.5)

    def test_long_silence_convicts(self):
        det = PhiAccrualDetector()
        last = self._warm(det)
        assert det.suspect(0, last + 5.0)

    def test_phi_grows_with_silence(self):
        det = PhiAccrualDetector()
        last = self._warm(det)
        assert det.phi(0, last + 0.6) < det.phi(0, last + 1.2) < det.phi(
            0, last + 3.0
        )

    def test_max_std_caps_variance_adaptation(self):
        # A degrading stream stretches its intervals; without the
        # max_std_s cap the model's variance inflates with them and the
        # effective threshold converges to a fixed timeout's (the
        # documented fail-slow blindness).  With the cap, the stretched
        # tail still convicts.
        capped = PhiAccrualDetector()
        t = 0.0
        interval = 0.5
        for _ in range(20):
            capped.observe(0, 0, t)
            t += interval
            interval *= 1.15  # fail-slow ramp
        assert capped.suspect(0, t + 3.0 * interval)

    def test_forget_drops_history(self):
        det = PhiAccrualDetector()
        last = self._warm(det)
        det.forget(0)
        assert det.phi(0, last + 10.0) == 0.0


class TestQuorumDetector:
    def test_k_of_n_agreement(self):
        det = QuorumDetector(timeout_s=2.0)
        for obs in range(3):
            det.observe(0, obs, 10.0)
        assert det.suspect(0, 12.5)

    def test_single_blinded_observer_cannot_split(self):
        # The asymmetric-partition scenario: observer 0 stops seeing
        # the node but observers 1 and 2 keep hearing it -- one stale
        # vote is below k, so no conviction.
        det = QuorumDetector(timeout_s=2.0)
        for obs in range(3):
            det.observe(0, obs, 10.0)
        det.observe(0, 1, 12.4)
        det.observe(0, 2, 12.4)
        assert not det.suspect(0, 12.5)

    def test_k_blinded_observers_do_split(self):
        det = QuorumDetector(timeout_s=2.0)
        for obs in range(3):
            det.observe(0, obs, 10.0)
        det.observe(0, 2, 12.4)
        assert det.suspect(0, 12.5)

    def test_out_of_range_observers_ignored(self):
        det = QuorumDetector(timeout_s=2.0)
        for obs in range(OBSERVERS):
            det.observe(0, obs, 10.0)
        det.observe(0, OBSERVERS, 12.4)  # not a registered observer
        assert det.suspect(0, 12.5)

    def test_forget_drops_all_observers(self, monkeypatch):
        # At k=1 a single observer timestamp that forget() left behind
        # would convict the node, so this checks every observer is gone.
        monkeypatch.setattr(detectors, "QUORUM_K", 1)
        det = QuorumDetector(timeout_s=2.0)
        for obs in range(OBSERVERS):
            det.observe(0, obs, 10.0)
        det.forget(0)
        assert not det.suspect(0, 100.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuorumDetector(timeout_s=0.0)
