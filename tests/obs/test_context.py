"""Observability wiring: spec -> trial -> exported report.

End-to-end checks of the acceptance contract: a trial run with tracing
on exports complete traces whose span durations telescope to the traced
event's event-time latency within 1e-9, metrics series land in the
trial JSON, the ASCII dashboard renders, and the CLI flags switch it
all on.
"""

import json

import pytest

from repro.analysis.ascii_plots import render_obs_dashboard, render_trace
from repro.analysis.export import trial_to_dict
from repro.cli import build_parser, main as cli_main
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.faults.schedule import FaultSchedule, ProcessRestart
from repro.obs.context import ObsContext, ObsSpec
from repro.sim.simulator import Simulator

SPAN_TOL = 1e-9


def obs_spec(**overrides):
    defaults = dict(
        engine="flink",
        workers=2,
        profile=30_000.0,
        duration_s=40.0,
        seed=5,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        observability=ObsSpec(trace_sample_rate=200),
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


@pytest.fixture(scope="module")
def traced_trial():
    return run_experiment(obs_spec())


class TestObsSpec:
    def test_negative_sample_rate_rejected(self):
        with pytest.raises(ValueError, match="trace_sample_rate"):
            ObsSpec(trace_sample_rate=-1)

    def test_zero_rate_disables_tracing_only(self):
        spec = ObsSpec(trace_sample_rate=0)
        assert not spec.tracing_enabled
        ctx = ObsContext.build(Simulator(), spec)
        assert ctx is not None
        assert ctx.sampler is None

    def test_none_spec_builds_no_context(self):
        assert ObsContext.build(Simulator(), None) is None


class TestTracedTrial:
    def test_exports_complete_traces(self, traced_trial):
        report = traced_trial.observability
        assert report is not None
        assert len(report.trace_log.completed) >= 1

    def test_span_sum_reproduces_event_time_latency(self, traced_trial):
        """The acceptance criterion: spans decompose Definition 1's
        latency exactly -- their durations telescope to emitted minus
        created within 1e-9 for every complete trace."""
        completed = traced_trial.observability.trace_log.completed
        assert completed
        for trace in completed:
            span_sum = sum(t1 - t0 for _, t0, t1 in trace.spans())
            assert span_sum == pytest.approx(
                trace.event_time_latency, abs=SPAN_TOL
            )

    def test_spans_ordered_and_non_overlapping(self, traced_trial):
        for trace in traced_trial.observability.trace_log.started:
            spans = trace.spans()
            for (_, t0, t1), (_, u0, u1) in zip(spans, spans[1:]):
                assert t0 <= t1
                assert t1 == u0

    def test_registry_sampled_driver_and_engine_series(self, traced_trial):
        series = traced_trial.observability.registry.series
        assert "driver.queue_depth_total" in series
        assert "engine.ingested_weight" in series
        assert "conservation.ingested" in series
        # Sampled at ~1 Hz over the whole trial.
        assert len(series["engine.ingested_weight"]) >= 35

    def test_trial_json_carries_observability(self, traced_trial):
        payload = trial_to_dict(traced_trial)
        obs = payload["observability"]
        assert obs["trace_sample_rate"] == 200
        assert obs["tracing"]["completed"] >= 1
        assert obs["metrics"]["series"]
        json.dumps(payload)  # must be serialisable end to end

    def test_identical_results_with_and_without_obs(self):
        """Observability must not perturb the simulation at all."""
        plain = run_experiment(obs_spec(observability=None))
        traced = run_experiment(obs_spec())
        assert plain.event_latency.mean == traced.event_latency.mean
        assert plain.mean_ingest_rate == traced.mean_ingest_rate
        assert len(plain.collector) == len(traced.collector)


class TestFaultAnnotations:
    def test_recovery_milestones_annotate_live_traces(self):
        result = run_experiment(
            obs_spec(
                duration_s=80.0,
                faults=FaultSchedule(events=(ProcessRestart(at_s=30.0),)),
            )
        )
        log = result.observability.trace_log
        kinds = {e["kind"] for e in log.events}
        assert "fault.restart" in kinds
        assert "recovery.detected" in kinds
        annotated = [t for t in log.started if t.annotations]
        assert annotated, "no trace overlapped the fault window"


class TestRendering:
    def test_dashboard_renders_registry_and_traces(self, traced_trial):
        text = render_obs_dashboard(traced_trial.observability)
        assert "metrics registry" in text
        assert "traces:" in text
        assert "decomposed" in text

    def test_render_trace_accepts_object_and_dict(self, traced_trial):
        trace = traced_trial.observability.trace_log.completed[0]
        from_obj = render_trace(trace)
        from_dict = render_trace(trace.to_dict())
        assert from_obj == from_dict
        assert "queue_wait" in from_obj


class TestCliFlags:
    def test_flags_build_obs_spec(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--trace-sample-rate", "500", "--metrics-interval", "2.5"]
        )
        assert args.trace_sample_rate == 500
        assert args.metrics_interval == 2.5

    def test_run_command_prints_dashboard(self, capsys):
        code = cli_main(
            [
                "run",
                "--engine", "flink",
                "--rate", "20000",
                "--duration", "30",
                "--generators", "1",
                "--no-resources",
                "--trace-sample-rate", "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics registry" in out

    def test_run_command_without_flags_has_no_dashboard(self, capsys):
        code = cli_main(
            [
                "run",
                "--engine", "flink",
                "--rate", "20000",
                "--duration", "30",
                "--generators", "1",
                "--no-resources",
            ]
        )
        assert code == 0
        assert "metrics registry" not in capsys.readouterr().out
