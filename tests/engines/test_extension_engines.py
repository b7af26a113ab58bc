"""Tests for the extension engines (Heron, Samza -- paper future work)."""

import importlib

import pytest

import repro.engines.ext
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.engines import ENGINES, engine_class
from repro.engines.base import EngineConfig
from repro.engines.storm import StormConfig
from repro.engines.ext.heron import HERON_COST_FACTOR, HeronEngine
from repro.engines.ext.samza import SamzaEngine
from repro.sim.cluster import ClusterSpec
from repro.sim.network import DataPlane
from repro.sim.rng import RngRegistry
from repro.sim.simulator import Simulator
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)


def spec(engine, **overrides):
    defaults = dict(
        engine=engine,
        query=WindowedAggregationQuery(window=WindowSpec(4, 2)),
        workers=2,
        profile=50_000.0,
        duration_s=60.0,
        seed=3,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRegistration:
    def test_engines_registered(self):
        assert engine_class("heron") is HeronEngine
        assert engine_class("samza") is SamzaEngine

    def test_registration_idempotent(self):
        importlib.reload(repro.engines.ext)
        importlib.reload(repro.engines.ext)
        assert ENGINES["heron"] is HeronEngine
        assert ENGINES["samza"] is SamzaEngine


class TestHeron:
    @pytest.mark.parametrize("config_cls", [EngineConfig, StormConfig])
    def test_foreign_config_is_rejected(self, config_cls):
        """Copying a base or Storm config over Heron's would replace
        Heron's defaults with those of the other class."""
        sim = Simulator()
        names = f"HeronConfig.*{config_cls.__name__}"
        with pytest.raises(ValueError, match=names):
            HeronEngine(
                sim=sim,
                cluster=ClusterSpec(2),
                query=WindowedAggregationQuery(window=WindowSpec(4, 2)),
                plane=DataPlane(sim),
                rng=RngRegistry(0).stream("e"),
                config=config_cls(gc_rate_per_s=0.0),
            )

    def test_runs_and_emits(self):
        result = run_experiment(spec("heron"))
        assert not result.failed
        assert len(result.collector) > 0

    def test_cost_scaled_from_storm(self):
        from repro.engines.calibration import cost_model_for

        storm = cost_model_for("storm", "aggregation")
        heron = cost_model_for("heron", "aggregation")
        assert heron.pipeline_cost_us == (
            storm.pipeline_cost_us * HERON_COST_FACTOR
        )
        result = run_experiment(spec("heron", duration_s=30.0))
        assert result.engine == "heron"
        # Lower per-tuple cost => higher capacity at the same size: a
        # rate above Storm's 2-node 0.40 M/s sustains on Heron.
        over_storm = run_experiment(
            spec("heron", profile=0.5e6, duration_s=120.0)
        )
        assert not over_storm.failed
        assert over_storm.mean_ingest_rate == pytest.approx(0.5e6, rel=0.05)

    def test_smoother_ingest_than_storm(self):
        from repro.analysis.stats import coefficient_of_variation

        def cv(engine, rate):
            r = run_experiment(spec(engine, profile=rate, duration_s=120.0))
            series = r.throughput.ingest_series.window(r.warmup_s)
            return coefficient_of_variation(series.values)

        assert cv("heron", 0.38e6) < cv("storm", 0.38e6)

    def test_naive_join_survives_on_four_workers(self):
        q = WindowedJoinQuery(window=WindowSpec(4, 2))
        result = run_experiment(
            spec("heron", query=q, workers=4, profile=0.15e6, duration_s=80.0)
        )
        assert not result.failed  # unlike Storm's naive join

    def test_cost_factor_documented_range(self):
        assert 0.4 < HERON_COST_FACTOR < 1.0


class TestSamza:
    def test_runs_and_emits(self):
        result = run_experiment(spec("samza"))
        assert not result.failed
        assert len(result.collector) > 0

    def test_latency_floor_is_commit_interval_scale(self):
        result = run_experiment(spec("samza"))
        # Commit interval 0.5 s: mean latency sits between Flink's
        # ~0.1 s and Spark's seconds.
        assert 0.1 < result.event_latency.mean < 1.2

    def test_latency_between_flink_and_spark(self):
        samza = run_experiment(spec("samza", profile=0.3e6, duration_s=120.0))
        flink = run_experiment(spec("flink", profile=0.3e6, duration_s=120.0))
        spark = run_experiment(spec("spark", profile=0.3e6, duration_s=120.0))
        assert (
            flink.event_latency.mean
            < samza.event_latency.mean
            < spark.event_latency.mean
        )

    def test_large_window_is_fine(self):
        q = WindowedAggregationQuery(window=WindowSpec(60, 60))
        result = run_experiment(
            spec("samza", query=q, profile=0.3e6, duration_s=150.0)
        )
        assert not result.failed  # RocksDB state: no OOM

    def test_single_key_serialises_on_one_task(self):
        from repro.workloads.keys import SingleKey

        q = WindowedAggregationQuery(window=WindowSpec(4, 2), keys=SingleKey())
        result = run_experiment(
            spec("samza", query=q, profile=0.5e6, duration_s=90.0)
        )
        # Keyed slot rate is 1e6/4.0 = 0.25 M/s: the 0.5 M/s offer backlogs.
        assert result.mean_ingest_rate < 0.3e6

    def test_node_failure_loses_nothing(self):
        from dataclasses import replace

        from repro.faults.schedule import FaultSchedule, NodeCrash

        s = replace(
            spec("samza", workers=4, profile=0.2e6, duration_s=120.0),
            faults=FaultSchedule((NodeCrash(at_s=50.0),)),
        )
        result = run_experiment(s)
        assert result.diagnostics["state_lost_weight"] == 0.0
