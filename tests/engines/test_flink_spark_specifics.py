"""Engine-specific unit tests: Flink and Spark internals."""

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.engines.backpressure import CreditBased, OnOffThrottle, RateController
from repro.engines.flink import FlinkEngine
from repro.engines.spark import SparkConfig, SparkEngine
from repro.engines.storm import StormConfig, StormEngine
from repro.sim.cluster import ClusterSpec
from repro.sim.network import DataPlane
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)


def build(engine_cls, query=None, workers=2, config=None):
    sim = Simulator()
    return engine_cls(
        sim=sim,
        cluster=ClusterSpec(workers),
        query=query or WindowedAggregationQuery(window=WindowSpec(4, 2)),
        plane=DataPlane(sim),
        rng=RngRegistry(0).stream("e"),
        resources=None,
        config=config,
    )


class TestFlinkConstruction:
    def test_backpressure_is_credit_based(self):
        engine = build(FlinkEngine)
        assert isinstance(engine.backpressure, CreditBased)

    def test_supports_spill(self):
        assert FlinkEngine.supports_spill

    def test_join_uses_join_store(self):
        from repro.engines.operators.join import JoinWindowStore

        engine = build(FlinkEngine, query=WindowedJoinQuery(window=WindowSpec(4, 2)))
        assert isinstance(engine._store, JoinWindowStore)

    def test_cost_model_resolved_by_query_kind(self):
        agg = build(FlinkEngine)
        join = build(FlinkEngine, query=WindowedJoinQuery(window=WindowSpec(4, 2)))
        assert agg.cost.query_kind == "aggregation"
        assert join.cost.query_kind == "join"


class TestStormConstruction:
    def test_backpressure_is_on_off(self):
        engine = build(StormEngine)
        assert isinstance(engine.backpressure, OnOffThrottle)

    def test_no_spill_by_default(self):
        assert not StormEngine.supports_spill
        engine = build(StormEngine)
        assert not engine.state.can_spill

    def test_advanced_state_enables_spill(self):
        engine = build(StormEngine, config=StormConfig(advanced_state=True))
        assert engine.state.can_spill

    def test_emit_jitter_sigma_grows_with_workers(self):
        import numpy as np

        small = build(StormEngine, workers=2)
        big = build(StormEngine, workers=8)
        draws_small = [small._emit_jitter() for _ in range(2000)]
        draws_big = [big._emit_jitter() for _ in range(2000)]
        assert np.std(np.log(draws_big)) > np.std(np.log(draws_small))

    def test_generic_config_rejected(self):
        from repro.engines.base import EngineConfig

        with pytest.raises(ValueError, match="StormConfig.*EngineConfig"):
            build(StormEngine, config=EngineConfig())


class TestSparkConstruction:
    def test_backpressure_is_rate_controller(self):
        engine = build(SparkEngine)
        assert isinstance(engine.backpressure, RateController)

    def test_batch_alignment(self):
        assert SparkEngine._align_up(0.0, 4.0) == pytest.approx(4.0) or (
            SparkEngine._align_up(0.0, 4.0) == pytest.approx(0.0)
        )
        assert SparkEngine._align_up(3.2, 4.0) == pytest.approx(4.0)
        assert SparkEngine._align_up(4.0, 4.0) == pytest.approx(8.0)

    def test_generic_config_rejected(self):
        from repro.engines.base import EngineConfig

        with pytest.raises(ValueError, match="SparkConfig.*EngineConfig"):
            build(SparkEngine, config=EngineConfig())


class TestSparkJobDynamics:
    def run_spark(self, rate, duration=60.0, config=None, workers=2):
        spec = ExperimentSpec(
            engine="spark",
            query=WindowedAggregationQuery(window=WindowSpec(8, 4)),
            workers=workers,
            profile=rate,
            duration_s=duration,
            generator=GeneratorConfig(instances=2),
            engine_config=config,
            monitor_resources=False,
        )
        return run_experiment(spec)

    def test_jobs_fire_per_batch(self):
        result = self.run_spark(50_000.0)
        # ~1 job per 4 s batch interval.
        assert result.diagnostics["jobs_run"] == pytest.approx(
            60.0 / 4.0, abs=2
        )

    def test_smaller_batches_cut_latency(self):
        small = self.run_spark(50_000.0, config=SparkConfig(batch_interval_s=2.0))
        large = self.run_spark(50_000.0, config=SparkConfig(batch_interval_s=8.0))
        assert small.event_latency.mean < large.event_latency.mean

    def test_inverse_reduce_cuts_job_cost_on_large_windows(self):
        q = WindowedAggregationQuery(window=WindowSpec(60, 60))
        base = ExperimentSpec(
            engine="spark",
            query=q,
            workers=2,
            profile=0.3e6,
            duration_s=180.0,
            generator=GeneratorConfig(instances=2),
            monitor_resources=False,
        )
        from dataclasses import replace

        cached = run_experiment(base)
        inverse = run_experiment(
            replace(base, engine_config=SparkConfig(inverse_reduce=True))
        )
        assert (
            inverse.event_latency.mean < cached.event_latency.mean
        )

    def test_rate_limit_converges_below_overload(self):
        result = self.run_spark(0.6e6, duration=120.0)
        # Offered 0.6 M/s >> 2-node capacity 0.38 M/s: the controller
        # must have engaged and the limit must be finite.
        assert 0 < result.diagnostics["rate_limit"] < 0.6e6
