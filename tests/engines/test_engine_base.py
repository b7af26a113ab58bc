"""Unit tests for the shared engine machinery (StreamingEngine)."""

from dataclasses import dataclass

import pytest

from repro.core.queues import DriverQueue, QueueSet
from repro.engines.base import EngineConfig, StreamingEngine
from repro.engines.calibration import CostModel, register_cost_model
from repro.engines.operators.sink import Sink
from repro.sim.cluster import ClusterSpec
from repro.sim import network
from repro.sim.network import DataPlane
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery

from tests.cohorts import cohort, expand


@dataclass(frozen=True)
class RecordingConfig(EngineConfig):
    gc_rate_per_s: float = 0.0


register_cost_model(
    CostModel(
        engine="recording",
        query_kind="aggregation",
        pipeline_cost_us=100.0,  # 2 workers -> 0.32 M/s
        keyed_cost_us=0.0,
        bulk_emit_cost_us=0.0,
        scaling_efficiency={2: 1.0},
    )
)


class RecordingEngine(StreamingEngine):
    """Minimal concrete engine for exercising the base machinery."""

    name = "recording"
    config_cls = RecordingConfig

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.processed = []

    def _process_batch(self, blocks, dt):
        self.processed.extend(expand(blocks))


@pytest.fixture
def rig():
    sim = Simulator()
    plane = DataPlane(sim)
    engine = RecordingEngine(
        sim=sim,
        cluster=ClusterSpec(2),
        query=WindowedAggregationQuery(window=WindowSpec(4, 2)),
        plane=plane,
        rng=RngRegistry(0).stream("engine"),
        resources=None,
    )
    queue = DriverQueue("q")
    queues = QueueSet([queue])
    sink = Sink()
    return sim, engine, queue, queues, sink


class TestLifecycle:
    def test_start_twice_rejected(self, rig):
        sim, engine, queue, queues, sink = rig
        engine.start(queues, sink)
        with pytest.raises(RuntimeError):
            engine.start(queues, sink)

    def test_stop_halts_ticking(self, rig):
        sim, engine, queue, queues, sink = rig
        engine.start(queues, sink)
        queue.push_block(cohort(event_time=0.0, weight=10.0))
        engine.stop()
        sim.run_until(1.0)
        assert engine.ingested_weight == 0.0


class TestIngestion:
    def test_records_stamped_with_ingest_time(self, rig):
        sim, engine, queue, queues, sink = rig
        engine.start(queues, sink)
        queue.push_block(cohort(event_time=0.0, weight=5.0))
        sim.run_until(0.2)
        assert engine.processed
        for record in engine.processed:
            assert record.ingest_time is not None
            assert record.ingest_time >= 0.0
            assert record.ingest_time >= record.event_time

    def test_ingest_capped_by_cpu_capacity(self, rig):
        sim, engine, queue, queues, sink = rig
        engine.start(queues, sink)
        # Offer far above the 0.32 M/s capacity for 2 simulated seconds.
        sim.every(0.1, lambda s: queue.push_block(
            cohort(event_time=s.now, weight=100_000.0)
        ))
        sim.run_until(2.0)
        # Ingest rate ~ capacity * elapsed (within tick granularity).
        assert engine.ingested_weight <= 0.34e6 * 2.0

    def test_ingest_capped_by_network(self, rig, monkeypatch):
        sim, engine, queue, queues, sink = rig
        # A CPU-cheap engine against a slow wire: 10 MB/s at 104 B/event
        # allows ~96 k events/s.
        monkeypatch.setattr(network, "SEGMENT_BYTES_PER_S", 0.08e9 / 8.0)
        engine.plane = DataPlane(sim)
        engine.cost = CostModel(
            engine="recording",
            query_kind="aggregation",
            pipeline_cost_us=1.0,
            keyed_cost_us=0.0,
            bulk_emit_cost_us=0.0,
            scaling_efficiency={2: 1.0},
        )
        engine.start(queues, sink)
        sim.every(0.1, lambda s: queue.push_block(
            cohort(event_time=s.now, weight=100_000.0)
        ))
        sim.run_until(2.0)
        rate = engine.ingested_weight / 2.0
        assert rate == pytest.approx(0.08e9 / 8 / 104, rel=0.15)


class TestGcPauses:
    def test_pauses_suspend_ingestion(self, rig):
        sim, engine, queue, queues, sink = rig
        engine.config = EngineConfig(
            gc_rate_per_s=100.0, gc_pause_mean_s=10.0, gc_pause_sigma=0.01
        )
        engine.start(queues, sink)
        sim.every(0.1, lambda s: queue.push_block(
            cohort(event_time=s.now, weight=1000.0)
        ))
        sim.run_until(2.0)
        # With a guaranteed immediate 10 s pause, nothing is ingested.
        assert engine.ingested_weight == 0.0

    def test_no_pauses_when_rate_zero(self, rig):
        sim, engine, queue, queues, sink = rig
        assert engine.config.gc_rate_per_s == 0.0
        engine.start(queues, sink)
        queue.push_block(cohort(event_time=0.0, weight=10.0))
        sim.run_until(0.5)
        assert engine.ingested_weight > 0.0


class TestStateReconciliation:
    def test_update_state_usage_tracks_delta(self, rig):
        sim, engine, queue, queues, sink = rig
        engine._update_state_usage(1000.0)
        first = engine.state.used_bytes
        engine._update_state_usage(500.0)
        assert engine.state.used_bytes == pytest.approx(first / 2)
        engine._update_state_usage(0.0)
        assert engine.state.used_bytes == pytest.approx(0.0)


class TestFailureHandling:
    def test_engine_failure_freezes_ticking(self, rig):
        from repro.sim.failures import TopologyStalled

        sim, engine, queue, queues, sink = rig

        def poisoned_process(blocks, dt):
            raise TopologyStalled("boom", at_time=sim.now)

        engine._process_batch = poisoned_process
        engine.start(queues, sink)
        queue.push_block(cohort(event_time=0.0, weight=10.0))
        sim.run_until(1.0)
        assert engine.failed
        assert "boom" in str(engine.failure)


class TestEmissionAccounting:
    def test_emission_debits_plane_and_sink(self, rig):
        sim, engine, queue, queues, sink = rig
        engine.sink = sink
        before = engine.plane.total_result_bytes
        engine._account_emission(100.0)
        assert engine.plane.total_result_bytes > before

    def test_zero_emission_is_noop(self, rig):
        sim, engine, queue, queues, sink = rig
        before = engine.plane.total_result_bytes
        engine._account_emission(0.0)
        assert engine.plane.total_result_bytes == before
