"""Fault-event and schedule validation."""

import pytest

from repro.faults.schedule import (
    AsymmetricPartition,
    DegradingNode,
    FaultSchedule,
    FlappingNode,
    NetworkPartition,
    NodeCrash,
    ProcessRestart,
    QueueDisconnect,
    SlowNode,
)


class TestEvents:
    def test_at_s_must_be_positive(self):
        with pytest.raises(ValueError):
            NodeCrash(at_s=0.0)
        with pytest.raises(ValueError):
            SlowNode(at_s=-1.0)

    def test_nodes_must_be_positive(self):
        with pytest.raises(ValueError):
            NodeCrash(at_s=10.0, nodes=0)
        with pytest.raises(ValueError):
            ProcessRestart(at_s=10.0, nodes=-1)

    def test_slow_factor_bounds(self):
        with pytest.raises(ValueError):
            SlowNode(at_s=10.0, factor=0.0)
        with pytest.raises(ValueError):
            SlowNode(at_s=10.0, factor=1.0)
        SlowNode(at_s=10.0, factor=0.5)  # ok

    def test_transient_duration_must_be_positive(self):
        with pytest.raises(ValueError):
            NetworkPartition(at_s=10.0, duration_s=0.0)
        with pytest.raises(ValueError):
            QueueDisconnect(at_s=10.0, duration_s=-5.0)

    def test_end_s(self):
        assert NodeCrash(at_s=10.0).end_s == 10.0
        assert NetworkPartition(at_s=10.0, duration_s=5.0).end_s == 15.0

    def test_describe_carries_kind_and_time(self):
        assert NodeCrash(at_s=60.0).describe() == "crash@60s"
        assert "slow@30s for 20s" == SlowNode(
            at_s=30.0, duration_s=20.0
        ).describe()


class TestSchedule:
    def test_ordered_sorts_by_time(self):
        schedule = FaultSchedule(
            (NodeCrash(at_s=90.0), SlowNode(at_s=30.0), NodeCrash(at_s=60.0))
        )
        assert [e.at_s for e in schedule.ordered()] == [30.0, 60.0, 90.0]
        assert [e.at_s for e in schedule] == [30.0, 60.0, 90.0]

    def test_repeated_events_allowed(self):
        schedule = FaultSchedule(
            (NodeCrash(at_s=30.0), NodeCrash(at_s=60.0), NodeCrash(at_s=90.0))
        )
        assert len(schedule) == 3

    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            FaultSchedule(("crash@60",))

    def test_validate_against_rejects_late_events(self):
        schedule = FaultSchedule((NodeCrash(at_s=50.0), NodeCrash(at_s=120.0)))
        with pytest.raises(ValueError, match="never fire"):
            schedule.validate_against(100.0)
        with pytest.raises(ValueError, match="crash@120s"):
            schedule.validate_against(120.0)  # at the boundary: too late
        schedule.validate_against(121.0)  # ok

    def test_describe(self):
        assert FaultSchedule().describe() == "no faults"
        text = FaultSchedule(
            (NodeCrash(at_s=60.0), NetworkPartition(at_s=30.0, duration_s=10.0))
        ).describe()
        assert text == "partition@30s for 10s; crash@60s"


class TestGrayEvents:
    def test_flap_down_segments_are_deterministic_and_bounded(self):
        flap = FlappingNode(at_s=10.0, duration_s=20.0, seed=3)
        segments = flap.down_segments()
        assert segments == flap.down_segments()  # pure function of fields
        assert segments  # a 20s window at period ~6s always flaps
        previous_end = flap.at_s
        for start, end in segments:
            assert flap.at_s <= start < end <= flap.end_s
            assert start >= previous_end  # non-overlapping, ordered
            previous_end = end

    def test_flap_seed_changes_segments(self):
        base = FlappingNode(at_s=10.0, duration_s=20.0, seed=0)
        other = FlappingNode(at_s=10.0, duration_s=20.0, seed=1)
        assert base.down_segments() != other.down_segments()

    def test_degrade_ramp_reaches_the_floor(self):
        ramp = DegradingNode(
            at_s=10.0, duration_s=8.0, floor_factor=0.25, steps=4
        )
        segments = ramp.capacity_segments()
        assert len(segments) == 4
        factors = [factor for _, _, factor in segments]
        assert factors == sorted(factors, reverse=True)  # monotone ramp
        assert factors[-1] == pytest.approx(0.25)
        assert ramp.factor_at(9.9) == 1.0
        assert ramp.factor_at(10.0) < 1.0
        assert ramp.factor_at(17.9) == pytest.approx(0.25)
        assert ramp.factor_at(18.0) == 1.0

    def test_gray_validation(self):
        with pytest.raises(ValueError):
            FlappingNode(at_s=10.0, duration_s=5.0, node=-1)
        with pytest.raises(ValueError):
            FlappingNode(at_s=10.0, duration_s=5.0, duty=1.0)
        with pytest.raises(ValueError):
            FlappingNode(at_s=10.0, duration_s=5.0, period_s=0.0)
        with pytest.raises(ValueError):
            DegradingNode(at_s=10.0, duration_s=5.0, floor_factor=0.0)
        with pytest.raises(ValueError):
            DegradingNode(at_s=10.0, duration_s=5.0, steps=0)
        with pytest.raises(ValueError):
            AsymmetricPartition(at_s=10.0, duration_s=5.0, direction="up")
        with pytest.raises(ValueError):
            AsymmetricPartition(
                at_s=10.0, duration_s=5.0, observers_affected=0
            )

    def test_describe_names_the_node(self):
        assert "node 1" in FlappingNode(
            at_s=10.0, duration_s=5.0, node=1
        ).describe()
        text = AsymmetricPartition(
            at_s=10.0, duration_s=5.0, node=1, direction="data"
        ).describe()
        assert "node 1" in text and "data" in text


class TestGrayOverlapContract:
    def test_same_node_gray_overlap_rejected(self):
        schedule = FaultSchedule((
            FlappingNode(at_s=10.0, duration_s=10.0, node=0),
            DegradingNode(at_s=15.0, duration_s=10.0, node=0),
        ))
        with pytest.raises(ValueError, match="do not compose"):
            schedule.validate_against(60.0)

    def test_different_nodes_may_overlap(self):
        FaultSchedule((
            FlappingNode(at_s=10.0, duration_s=10.0, node=0),
            DegradingNode(at_s=15.0, duration_s=10.0, node=1),
        )).validate_against(60.0)

    def test_disjoint_windows_on_one_node_allowed(self):
        FaultSchedule((
            FlappingNode(at_s=10.0, duration_s=5.0, node=0),
            DegradingNode(at_s=15.0, duration_s=5.0, node=0),
        )).validate_against(60.0)

    def test_gray_overlapping_slow_target_range_rejected(self):
        schedule = FaultSchedule((
            SlowNode(at_s=10.0, nodes=2, duration_s=10.0),
            DegradingNode(at_s=15.0, duration_s=10.0, node=1),
        ))
        with pytest.raises(ValueError, match="target range"):
            schedule.validate_against(60.0)

    def test_gray_outside_slow_target_range_allowed(self):
        FaultSchedule((
            SlowNode(at_s=10.0, nodes=1, duration_s=10.0),
            DegradingNode(at_s=15.0, duration_s=10.0, node=1),
        )).validate_against(60.0)

    def test_asympart_carries_no_capacity_overlap_constraint(self):
        # The heartbeat direction touches no capacity at all, so it may
        # coexist with any capacity fault on the same node.
        FaultSchedule((
            FlappingNode(at_s=10.0, duration_s=10.0, node=0),
            AsymmetricPartition(at_s=12.0, duration_s=5.0, node=0),
        )).validate_against(60.0)

    def test_legacy_slow_composition_still_allowed(self):
        # Pinned: overlapping SlowNodes compose (multiplicative stack,
        # injection-frozen multipliers) and stay accepted.
        FaultSchedule((
            SlowNode(at_s=10.0, nodes=1, duration_s=10.0),
            SlowNode(at_s=15.0, nodes=1, duration_s=10.0),
        )).validate_against(60.0)
