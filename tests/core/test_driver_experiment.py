"""Unit/integration tests for the driver wiring and experiment runner."""

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.workloads.profiles import ConstantRate
from repro.workloads.queries import WindowedAggregationQuery, WindowSpec


def small_spec(**overrides):
    defaults = dict(
        engine="flink",
        query=WindowedAggregationQuery(window=WindowSpec(4.0, 2.0)),
        workers=2,
        profile=5_000.0,
        duration_s=30.0,
        seed=3,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestSpec:
    def test_with_rate_returns_new_spec(self):
        spec = small_spec()
        other = spec.with_rate(123.0)
        assert other.rate_profile().rate_at(0) == 123.0
        assert spec.rate_profile().rate_at(0) == 5_000.0

    def test_rate_profile_from_float(self):
        assert isinstance(small_spec().rate_profile(), ConstantRate)

    def test_label_mentions_engine_and_load(self):
        label = small_spec().label()
        assert "flink" in label
        assert "2w" in label

    def test_cluster_matches_workers(self):
        assert small_spec(workers=4).cluster().workers == 4

    def test_with_seed(self):
        assert small_spec().with_seed(9).seed == 9


class TestRunExperiment:
    def test_trial_completes_and_reports(self):
        result = run_experiment(small_spec())
        assert not result.failed
        assert result.engine == "flink"
        assert result.workers == 2
        assert len(result.collector) > 0
        assert result.mean_ingest_rate == pytest.approx(5_000.0, rel=0.1)

    def test_warmup_excluded_from_summary(self):
        result = run_experiment(small_spec())
        assert result.warmup_s == pytest.approx(7.5)
        series = result.collector.series()
        assert min(series.times) < result.warmup_s  # outputs exist in warmup
        post = result.collector.binned_series(
            bin_s=1.0, start_time=result.warmup_s
        )
        assert min(post.times) >= result.warmup_s

    def test_deterministic_given_seed(self):
        a = run_experiment(small_spec())
        b = run_experiment(small_spec())
        assert a.event_latency.mean == b.event_latency.mean
        assert a.mean_ingest_rate == b.mean_ingest_rate

    def test_seed_changes_result(self):
        a = run_experiment(small_spec(seed=1))
        b = run_experiment(small_spec(seed=2))
        # Stochastic components (GC pauses) differ across seeds.
        assert a.event_latency.maximum != b.event_latency.maximum

    def test_all_engines_run(self):
        for engine in ["storm", "spark", "flink"]:
            result = run_experiment(small_spec(engine=engine))
            assert not result.failed, f"{engine}: {result.failure}"
            assert len(result.collector) > 0, engine

    def test_resources_monitored_when_enabled(self):
        result = run_experiment(small_spec(monitor_resources=True))
        assert result.resources is not None
        assert len(result.resources.samples) > 0

    def test_overload_marks_unsustainable_but_completes(self):
        # Offered far above 2-node Flink capacity: connection drops or a
        # growing queue, but the driver returns a result either way.
        spec = small_spec(
            profile=3e6,
            generator=GeneratorConfig(instances=2, queue_capacity_seconds=5.0),
        )
        result = run_experiment(spec)
        assert result.failed
        assert "queue" in result.failure

    def test_describe_contains_status(self):
        result = run_experiment(small_spec())
        assert "completed" in result.describe()

    def test_diagnostics_include_driver_metrology_counters(self):
        result = run_experiment(small_spec())
        diag = result.diagnostics
        assert diag["collector.samples"] == float(len(result.collector))
        assert diag["collector.collect_calls"] >= 1.0
        assert diag["collector.memory_bytes"] > 0.0
        assert diag["monitor.samples"] == float(
            result.throughput.sample_count
        )
        # Every diagnostic is simulated, none read off the host clock:
        # a second run of the spec reports the same dict.
        assert run_experiment(small_spec()).diagnostics == diag

    def test_event_latency_at_least_processing_latency(self):
        result = run_experiment(small_spec())
        assert (
            result.event_latency.mean
            >= result.processing_latency.mean - 1e-9
        )
