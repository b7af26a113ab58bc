"""Unit tests for the message-broker mediator (the design the paper
argues against; kept for the ablation that reproduces its bottleneck)."""

import pytest

from repro.core import broker
from repro.core.broker import BrokerStage
from repro.core.queues import DriverQueue
from repro.sim.simulator import Simulator

from tests.cohorts import cohort, expand


@pytest.fixture
def rig(monkeypatch):
    monkeypatch.setattr(broker, "FORWARD_CAPACITY_EVENTS_PER_S", 1000.0)
    monkeypatch.setattr(broker, "PERSISTENCE_DELAY_S", 0.1)
    monkeypatch.setattr(broker, "REPARTITION_FRACTION", 0.5)
    monkeypatch.setattr(broker, "REPARTITION_DELAY_S", 0.2)
    sim = Simulator()
    downstream = DriverQueue("q")
    stage = BrokerStage(sim, downstream)
    return sim, downstream, stage


class TestForwarding:
    def test_events_arrive_after_persistence_delay(self, rig):
        sim, downstream, stage = rig
        stage.push_block(cohort(event_time=0.0, weight=10.0))
        sim.run_until(0.1)
        assert downstream.queued_weight == 0.0  # still persisting
        sim.run_until(0.5)
        assert downstream.queued_weight == pytest.approx(10.0)

    def test_repartitioned_share_arrives_later(self, rig):
        sim, downstream, stage = rig
        stage.push_block(cohort(weight=10.0))
        # After persistence (0.1 s past the first forward tick) only the
        # direct half is there; the rerouted half needs +0.2 s more.
        sim.run_until(0.2)
        assert downstream.queued_weight == pytest.approx(5.0)
        sim.run_until(0.5)
        assert downstream.queued_weight == pytest.approx(10.0)

    def test_event_time_preserved(self, rig):
        sim, downstream, stage = rig
        stage.push_block(cohort(event_time=0.33, weight=4.0))
        sim.run_until(1.0)
        pulled = expand(downstream.pull_blocks(1e9))
        assert all(r.event_time == pytest.approx(0.33) for r in pulled)

    def test_forward_capacity_caps_rate(self, rig):
        sim, downstream, stage = rig
        # Push 10k events at once; capacity is 1000/s.
        stage.push_block(cohort(weight=10_000.0))
        sim.run_until(5.0)
        assert downstream.pushed_weight == pytest.approx(5000.0, rel=0.05)

    def test_weight_conserved_end_to_end(self, rig):
        sim, downstream, stage = rig
        total = 0.0
        for i in range(5):
            stage.push_block(cohort(event_time=i * 0.1, weight=50.0))
            total += 50.0
        sim.run_until(3.0)
        assert downstream.pushed_weight == pytest.approx(total)
        assert stage.forwarded_weight == pytest.approx(total)

    def test_stop_halts_forwarding(self, rig):
        sim, downstream, stage = rig
        stage.push_block(cohort(weight=10.0))
        stage.stop()
        sim.run_until(2.0)
        assert downstream.pushed_weight == 0.0

    def test_invalid_share_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            BrokerStage(sim, DriverQueue("q"), share=0.0)


class TestBrokeredExperiment:
    def test_broker_caps_sut_ingest(self, monkeypatch):
        from repro.core.experiment import ExperimentSpec, run_experiment

        monkeypatch.setattr(broker, "FORWARD_CAPACITY_EVENTS_PER_S", 0.5e6)
        spec = ExperimentSpec(
            engine="flink",
            profile=0.9e6,
            workers=2,
            duration_s=60.0,
            broker=True,
            monitor_resources=False,
        )
        result = run_experiment(spec)
        assert result.mean_ingest_rate < 0.55e6
