"""Unit tests for the discrete-event simulator core."""

import pytest

from repro.sim.simulator import (
    EventHandle,
    PeriodicProcess,
    SimulationError,
    Simulator,
)


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(1.5, fired.append, "middle")
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for name in ["a", "b", "c"]:
            sim.schedule(1.0, fired.append, name)
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_never_compare_their_payload(self):
        # Heap order is decided by (time, seq) alone: dict args (and the
        # callbacks themselves) are mutually non-comparable and must
        # never be asked.
        sim = Simulator()
        fired = []
        for tag in range(8):
            sim.schedule(1.0, lambda payload: fired.append(payload), {"tag": tag})
        sim.run()
        assert fired == [{"tag": tag} for tag in range(8)]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]
        assert sim.now == 3.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.run_until(10.0)
        fired = []
        sim.schedule_at(12.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == 12.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.schedule_at(4.9, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if sim.now < 3.0:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_callback_args_passed(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, "two")
        sim.run()
        assert got == [(1, "two")]


class TestCancel:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        assert sim.cancel(handle) is True
        sim.run()
        assert fired == []

    def test_cancel_twice_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False

    def test_cancel_none_is_noop(self):
        sim = Simulator()
        assert sim.cancel(None) is False

    def test_cancel_after_fire_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.cancel(handle) is False

    def test_cancelled_among_same_time_events_keeps_order(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(1.0, fired.append, name) for name in "abcd"]
        sim.cancel(handles[1])
        assert sim.pending == 3
        sim.run()
        assert fired == ["a", "c", "d"]
        assert sim.pending == 0

    def test_pending_counts_live_events(self):
        sim = Simulator()
        h1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        sim.cancel(h1)
        assert sim.pending == 1


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "in")
        sim.schedule(5.0, fired.append, "out")
        sim.run_until(2.0)
        assert fired == ["in"]
        assert sim.now == 2.0

    def test_run_until_includes_boundary_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.run_until(2.0)
        assert fired == ["edge"]

    def test_run_until_skips_a_cancelled_head(self):
        sim = Simulator()
        fired = []
        head = sim.schedule(1.0, fired.append, "cancelled")
        sim.schedule(1.0, fired.append, "same-time")
        sim.schedule(3.0, fired.append, "beyond")
        sim.cancel(head)
        sim.run_until(2.0)
        assert fired == ["same-time"]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_run_until_with_only_a_cancelled_head_advances_the_clock(self):
        sim = Simulator()
        sim.cancel(sim.schedule(5.0, lambda: None))
        sim.run_until(2.0)
        assert sim.now == 2.0
        assert sim.pending == 0

    def test_run_until_past_is_rejected(self):
        sim = Simulator()
        sim.run_until(3.0)
        with pytest.raises(SimulationError):
            sim.run_until(2.0)

    def test_remaining_events_fire_on_next_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "later")
        sim.run_until(1.0)
        assert fired == []
        sim.run()
        assert fired == ["later"]

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, fired.append, 2)
        sim.run_until(10.0)
        assert fired == [1]
        # The clock does not jump to the horizon after an explicit stop
        # mid-run; it stays at the stopping event... run_until clamps to
        # max(now, time) after the loop, so the remaining event is intact.
        sim.run()
        assert 2 in fired


class TestPeriodicProcess:
    def test_fires_at_interval(self):
        sim = Simulator()
        times = []
        sim.every(1.0, lambda s: times.append(s.now))
        sim.run_until(3.5)
        assert times == [1.0, 2.0, 3.0]

    def test_custom_start(self):
        sim = Simulator()
        times = []
        sim.every(2.0, lambda s: times.append(s.now), start=0.5)
        sim.run_until(5.0)
        assert times == [0.5, 2.5, 4.5]

    def test_stop_halts_future_firings(self):
        sim = Simulator()
        times = []
        proc = sim.every(1.0, lambda s: times.append(s.now))
        sim.run_until(2.0)
        proc.stop()
        sim.run_until(5.0)
        assert times == [1.0, 2.0]
        assert proc.stopped

    def test_stop_from_within_callback(self):
        sim = Simulator()
        count = []
        proc = sim.every(1.0, lambda s: (count.append(1), proc.stop()))
        sim.run_until(10.0)
        assert len(count) == 1

    def test_interval_change_applies_after_next_firing(self):
        # The next firing was already scheduled with the old interval
        # when the change happens; subsequent gaps use the new one.
        sim = Simulator()
        times = []
        proc = sim.every(1.0, lambda s: times.append(s.now))
        sim.run_until(1.0)
        proc.interval = 3.0
        sim.run_until(8.0)
        assert times == [1.0, 2.0, 5.0, 8.0]

    def test_zero_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda s: None)

    def test_fire_count(self):
        sim = Simulator()
        proc = sim.every(1.0, lambda s: None)
        sim.run_until(4.2)
        assert proc.fire_count == 4

    def test_double_start_rejected(self):
        sim = Simulator()
        proc = sim.every(1.0, lambda s: None)
        with pytest.raises(SimulationError):
            proc.start_at(2.0)
