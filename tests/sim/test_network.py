"""Unit tests for the data-plane model."""

import pytest

from repro.sim import network
from repro.sim.network import SEGMENT_BYTES_PER_S, DataPlane
from repro.sim.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def plane(sim, monkeypatch):
    # A 0.1 s bank keeps the bucket arithmetic below round.
    monkeypatch.setattr(network, "BURST_SECONDS", 0.1)
    return DataPlane(sim)


class TestSpec:
    def test_segment_bytes_per_s(self):
        assert SEGMENT_BYTES_PER_S == pytest.approx(125e6)

    def test_events_capacity_at_104_bytes_is_about_1_2M(self):
        cap = SEGMENT_BYTES_PER_S / 104
        assert cap == pytest.approx(1.202e6, rel=0.01)


def banked(plane):
    """Capacity banked in the bucket right now (drains it)."""
    return plane.allocate(float("inf"))


class TestTokenBucket:
    def test_initial_burst_available(self, plane):
        # burst_seconds * rate banked at t=0.
        assert banked(plane) == pytest.approx(12.5e6)

    def test_allocate_grants_up_to_available(self, plane):
        granted = plane.allocate(5e6)
        assert granted == pytest.approx(5e6)
        assert banked(plane) == pytest.approx(7.5e6)

    def test_allocate_caps_at_available(self, plane):
        granted = plane.allocate(100e6)
        assert granted == pytest.approx(12.5e6)
        assert plane.allocate(1.0) == 0.0

    def test_refill_over_time(self, sim, plane):
        plane.allocate(12.5e6)
        sim.schedule(0.05, lambda: None)
        sim.run()
        # 0.05 s at 125 MB/s = 6.25 MB banked.
        assert banked(plane) == pytest.approx(6.25e6, rel=1e-6)

    def test_bank_is_capped_at_burst(self, sim, plane):
        sim.schedule(10.0, lambda: None)
        sim.run()
        assert banked(plane) == pytest.approx(12.5e6)

    def test_steady_state_rate_is_link_rate(self, sim, plane):
        plane.allocate(12.5e6)  # drain the initial bank
        total = 0.0
        for i in range(100):
            sim.schedule_at((i + 1) * 0.01, lambda: None)
            sim.run()
            total += plane.allocate(10e9)
        # 1 second of link time at 125 MB/s.
        assert total == pytest.approx(125e6, rel=0.01)

    def test_negative_request_rejected(self, plane):
        with pytest.raises(ValueError):
            plane.allocate(-1.0)


class TestAccounting:
    def test_ingest_and_result_tracked_separately(self, plane):
        plane.allocate(1e6, kind="ingest")
        plane.allocate(2e6, kind="result")
        assert plane.total_ingest_bytes == pytest.approx(1e6)
        assert plane.total_result_bytes == pytest.approx(2e6)

    def test_shared_capacity_between_kinds(self, plane):
        plane.allocate(10e6, kind="result")
        granted = plane.allocate(10e6, kind="ingest")
        assert granted == pytest.approx(2.5e6)
