"""Tests for the out-of-order event extension (paper future work)."""

import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.sim.rng import RngRegistry
from repro.workloads.disorder import EXPONENTIAL, UNIFORM, DisorderSpec
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery


class TestDisorderSpec:
    def test_defaults_valid(self):
        spec = DisorderSpec()
        assert 0 < spec.fraction < 1
        assert spec.max_delay_s > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DisorderSpec(fraction=-0.1)
        with pytest.raises(ValueError):
            DisorderSpec(fraction=1.5)
        with pytest.raises(ValueError):
            DisorderSpec(max_delay_s=0.0)
        with pytest.raises(ValueError):
            DisorderSpec(distribution="pareto")

    @pytest.mark.parametrize("dist", [UNIFORM, EXPONENTIAL])
    def test_delays_bounded(self, dist):
        spec = DisorderSpec(max_delay_s=2.0, distribution=dist)
        rng = RngRegistry(1).stream("d")
        for _ in range(500):
            delay = spec.sample_delay(rng)
            assert 0.0 <= delay <= 2.0


def run_with_disorder(lateness_s, fraction=0.2, engine="flink"):
    return run_experiment(
        ExperimentSpec(
            engine=engine,
            query=WindowedAggregationQuery(window=WindowSpec(4, 2)),
            workers=2,
            profile=20_000.0,
            duration_s=60.0,
            seed=5,
            generator=GeneratorConfig(
                instances=2,
                disorder=DisorderSpec(fraction=fraction, max_delay_s=2.0),
            ),
            engine_config=None
            if lateness_s == 0
            else _flink_config(lateness_s),
            monitor_resources=False,
        )
    )


def _flink_config(lateness_s):
    from repro.engines.flink import FlinkConfig

    return FlinkConfig(allowed_lateness_s=lateness_s)


class TestLateEventHandling:
    def test_disorder_causes_drops_without_lateness(self):
        result = run_with_disorder(lateness_s=0.0)
        assert not result.failed
        assert result.diagnostics["late_dropped_weight"] > 0

    def test_allowed_lateness_recovers_stragglers(self):
        strict = run_with_disorder(lateness_s=0.0)
        tolerant = run_with_disorder(lateness_s=2.5)
        assert (
            tolerant.diagnostics["late_dropped_weight"]
            < strict.diagnostics["late_dropped_weight"] * 0.1
        )

    def test_allowed_lateness_costs_latency(self):
        strict = run_with_disorder(lateness_s=0.0)
        tolerant = run_with_disorder(lateness_s=2.5)
        # Windows held open 2.5 s longer emit 2.5 s later.
        assert (
            tolerant.event_latency.mean
            > strict.event_latency.mean + 1.5
        )

    def test_no_disorder_no_drops(self):
        result = run_experiment(
            ExperimentSpec(
                engine="flink",
                query=WindowedAggregationQuery(window=WindowSpec(4, 2)),
                workers=2,
                profile=20_000.0,
                duration_s=60.0,
                generator=GeneratorConfig(instances=2),
                monitor_resources=False,
            )
        )
        assert result.diagnostics["late_dropped_weight"] == 0.0

    @pytest.mark.parametrize(
        "engine", ["storm", "spark", "samza", "heron", "flink"]
    )
    def test_other_engines_report_drop_metric(self, engine):
        result = run_with_disorder(lateness_s=0.0, engine=engine)
        assert not result.failed
        assert "late_dropped_weight" in result.diagnostics

    def test_completeness_bounded_by_fraction(self):
        # With 20% disordered by up to 2 s and a 2 s slide, at most the
        # disordered share can be lost.
        result = run_with_disorder(lateness_s=0.0, fraction=0.2)
        ingested = result.diagnostics["ingested_weight"]
        dropped = result.diagnostics["late_dropped_weight"]
        assert dropped / ingested < 0.2
