"""Unit tests for operator-state memory accounting."""

import pytest

from repro.engines import state
from repro.engines.state import StateBackend
from repro.sim.cluster import ClusterSpec
from repro.sim.failures import OutOfMemory


def backend(can_spill, workers=2):
    return StateBackend(ClusterSpec(workers), can_spill=can_spill)


class TestBudget:
    def test_budget_from_cluster_ram(self, monkeypatch):
        monkeypatch.setattr(state, "HEAP_FRACTION", 0.5)
        b = backend(can_spill=True, workers=2)
        assert b.budget_bytes == pytest.approx(0.5 * 2 * 16 * 1024**3)

    def test_charge_and_release(self):
        b = backend(can_spill=True)
        b.charge(1e9)
        assert b.used_bytes == pytest.approx(1e9)
        b.release(4e8)
        assert b.used_bytes == pytest.approx(6e8)

    def test_release_floors_at_zero(self):
        b = backend(can_spill=True)
        b.charge(1.0)
        b.release(5.0)
        assert b.used_bytes == 0.0

    def test_peak_tracked(self):
        b = backend(can_spill=True)
        b.charge(5e9)
        b.release(5e9)
        assert b.peak_bytes == pytest.approx(5e9)

    def test_negative_amounts_rejected(self):
        b = backend(can_spill=True)
        with pytest.raises(ValueError):
            b.charge(-1.0)
        with pytest.raises(ValueError):
            b.release(-1.0)

    def test_utilisation(self):
        b = backend(can_spill=True)
        b.charge(b.budget_bytes / 2)
        assert b.utilisation() == pytest.approx(0.5)


class TestSpilling:
    def test_spill_engages_above_budget(self):
        b = backend(can_spill=True)
        b.charge(b.budget_bytes * 1.2)
        assert b.spilling
        assert b.cost_multiplier == 2.5
        assert b.spilled_bytes == pytest.approx(b.budget_bytes * 0.2)

    def test_in_memory_bytes(self):
        # What spills is what exceeds the budget: the rest stays resident.
        b = backend(can_spill=True)
        b.charge(b.budget_bytes * 1.5)
        assert b.used_bytes - b.spilled_bytes == pytest.approx(b.budget_bytes)

    def test_spill_clears_when_released(self):
        b = backend(can_spill=True)
        b.charge(b.budget_bytes * 1.2)
        b.release(b.budget_bytes * 0.5)
        assert not b.spilling
        assert b.cost_multiplier == 1.0


class TestOutOfMemory:
    def test_no_spill_oom_above_headroom(self):
        b = backend(can_spill=False)
        b.oom_headroom = 1.0
        with pytest.raises(OutOfMemory):
            b.charge(b.budget_bytes * 1.01, at_time=12.0)

    def test_headroom_tolerates_transients(self):
        b = backend(can_spill=False)
        b.oom_headroom = 1.35
        b.charge(b.budget_bytes * 1.2)  # pressure, not fatal
        assert b.used_bytes > b.budget_bytes

    def test_oom_carries_time(self):
        b = backend(can_spill=False)
        b.oom_headroom = 1.0
        try:
            b.charge(b.budget_bytes * 2, at_time=42.0)
        except OutOfMemory as exc:
            assert exc.at_time == 42.0
        else:  # pragma: no cover
            pytest.fail("expected OutOfMemory")

    def test_set_policy_switches_to_spillable(self):
        # Storm's user-supplied spillable state sets the flag after
        # construction.
        b = backend(can_spill=False)
        b.can_spill = True
        b.charge(b.budget_bytes * 2)
        assert b.spilling
