"""Cross-cutting integration tests: features composed together.

Each test exercises an interaction between subsystems that no unit test
covers on its own (broker + join, disorder + Spark, failure + search,
CLI sweep end to end, extension engine + framework extension).
"""

import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.cli import main as cli_main
from repro.core import broker
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.sustainable import assess, find_sustainable_throughput
from repro.faults.schedule import FaultSchedule, NodeCrash
from repro.workloads.disorder import DisorderSpec
from repro.workloads.queries import (
    WindowSpec,
    WindowedAggregationQuery,
    WindowedJoinQuery,
)

SMALL_WINDOW = WindowSpec(4.0, 2.0)


def spec(**overrides):
    defaults = dict(
        engine="flink",
        query=WindowedAggregationQuery(window=SMALL_WINDOW),
        workers=2,
        profile=30_000.0,
        duration_s=60.0,
        seed=23,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestBrokerComposition:
    def test_brokered_join_preserves_semantics(self, monkeypatch):
        """The mediator delays both streams; join outputs still appear
        and latency carries the broker delay."""
        direct = run_experiment(
            spec(query=WindowedJoinQuery(window=SMALL_WINDOW))
        )
        monkeypatch.setattr(broker, "FORWARD_CAPACITY_EVENTS_PER_S", 1e6)
        monkeypatch.setattr(broker, "PERSISTENCE_DELAY_S", 0.2)
        brokered = run_experiment(
            spec(query=WindowedJoinQuery(window=SMALL_WINDOW), broker=True)
        )
        assert not brokered.failed
        assert len(brokered.collector) > 0
        assert (
            brokered.event_latency.mean
            > direct.event_latency.mean + 0.1
        )

    def test_broker_under_capacity_is_transparent_to_throughput(
        self, monkeypatch
    ):
        monkeypatch.setattr(broker, "FORWARD_CAPACITY_EVENTS_PER_S", 1e6)
        brokered = run_experiment(spec(broker=True))
        assert brokered.mean_ingest_rate == pytest.approx(30_000.0, rel=0.1)


class TestDisorderComposition:
    def test_spark_drops_stragglers_beyond_slack(self):
        result = run_experiment(
            spec(
                engine="spark",
                generator=GeneratorConfig(
                    instances=2,
                    disorder=DisorderSpec(fraction=0.3, max_delay_s=3.0),
                ),
            )
        )
        assert not result.failed
        assert result.diagnostics["late_dropped_weight"] > 0

    def test_disordered_join_still_matches(self):
        result = run_experiment(
            spec(
                query=WindowedJoinQuery(window=SMALL_WINDOW),
                generator=GeneratorConfig(
                    instances=2,
                    disorder=DisorderSpec(fraction=0.1, max_delay_s=1.0),
                ),
            )
        )
        assert not result.failed
        assert len(result.collector) > 0


class TestFailureComposition:
    def test_search_accounts_for_mid_trial_failure(self):
        """A node failure during every trial lowers the sustainable rate
        the search finds (capacity is judged on the degraded cluster)."""
        healthy = find_sustainable_throughput(
            spec(engine="storm", workers=2, duration_s=80.0),
            high_rate=0.6e6,
            rel_tol=0.1,
            max_trials=6,
        )
        degraded = find_sustainable_throughput(
            spec(
                engine="storm",
                workers=2,
                duration_s=80.0,
                faults=FaultSchedule((NodeCrash(at_s=10.0),)),
            ),
            high_rate=0.6e6,
            rel_tol=0.1,
            max_trials=6,
        )
        assert degraded.sustainable_rate < healthy.sustainable_rate

    def test_extension_engine_with_node_failure(self):
        result = run_experiment(
            spec(
                engine="heron",
                workers=4,
                profile=0.2e6,
                duration_s=100.0,
                faults=FaultSchedule((NodeCrash(at_s=40.0),)),
            )
        )
        assert not result.failed
        assert result.diagnostics["active_workers"] == 3.0
        # Heron inherits Storm's window-state semantics: state is lost.
        assert result.diagnostics["state_lost_weight"] > 0


class TestCliComposition:
    def test_sweep_command_end_to_end(self, capsys, tmp_path):
        code = cli_main(
            [
                "sweep",
                "--engines", "flink",
                "--worker-counts", "2",
                "--high-rate", "30000",
                "--duration", "30",
                "--generators", "1",
                "--no-resources",
                "--output", str(tmp_path / "sweep.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flink/2w" in out
        assert (tmp_path / "sweep.json").exists()

    def test_run_command_accepts_extension_engine(self, capsys):
        code = cli_main(
            [
                "run",
                "--engine", "samza",
                "--rate", "20000",
                "--duration", "30",
                "--generators", "1",
                "--no-resources",
            ]
        )
        assert code == 0

    def test_run_command_single_key_skew(self, capsys):
        code = cli_main(
            [
                "run",
                "--engine", "flink",
                "--keys", "single",
                "--rate", "20000",
                "--duration", "30",
                "--generators", "1",
                "--no-resources",
            ]
        )
        assert code == 0


class TestDeterminismAcrossExtensions:
    def test_disorder_and_failure_runs_are_reproducible(self):
        build = lambda: spec(
            engine="storm",
            workers=2,
            duration_s=60.0,
            generator=GeneratorConfig(
                instances=2,
                disorder=DisorderSpec(fraction=0.2, max_delay_s=1.5),
            ),
            faults=FaultSchedule((NodeCrash(at_s=25.0),)),
        )
        a = run_experiment(build())
        b = run_experiment(build())
        assert a.event_latency.mean == b.event_latency.mean
        assert (
            a.diagnostics["late_dropped_weight"]
            == b.diagnostics["late_dropped_weight"]
        )
        assert (
            a.diagnostics["state_lost_weight"]
            == b.diagnostics["state_lost_weight"]
        )
