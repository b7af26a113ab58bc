"""Trial watchdog: stall/timeout detection, retry with backoff."""

import pytest

from repro.core.experiment import (
    ExperimentSpec,
    run_experiment,
    run_experiment_with_watchdog,
)
from repro.core.generator import GeneratorConfig
from repro.faults.schedule import FaultSchedule, GeneratorCrash
from repro.metrology import TrialWatchdog, WatchdogSpec, watchdog
from repro.sim.failures import MeasurementFault, SutFailure
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery


def _spec(faults=None, duration_s=50.0, seed=3) -> ExperimentSpec:
    return ExperimentSpec(
        engine="flink",
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=2,
        profile=20_000.0,
        duration_s=duration_s,
        seed=seed,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
        faults=faults,
    )


#: Kills the whole 2-instance fleet: no pushes after t=21, so the
#: driver progress tuple freezes and a stall watchdog must trip.
FLEET_DEATH = FaultSchedule(
    (GeneratorCrash(at_s=20.0, instance=0), GeneratorCrash(at_s=21.0, instance=1))
)


class TestWatchdogSpec:
    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            WatchdogSpec(stall_s=0.0)
        with pytest.raises(ValueError):
            WatchdogSpec(timeout_s=-1.0)
        with pytest.raises(ValueError):
            WatchdogSpec(max_attempts=0)

    def test_backoff_is_capped_exponential(self, monkeypatch):
        monkeypatch.setattr(watchdog, "BACKOFF_FACTOR", 3.0)
        monkeypatch.setattr(watchdog, "BACKOFF_CAP_S", 5.0)
        spec = WatchdogSpec(backoff_base_s=1.0)
        assert spec.backoff_s(0) == 1.0
        assert spec.backoff_s(1) == 3.0
        assert spec.backoff_s(2) == 5.0  # capped, not 9


class TestStallDetection:
    def test_dead_fleet_trips_the_stall_check(self):
        dog = TrialWatchdog(WatchdogSpec(stall_s=5.0))
        result = run_experiment(_spec(FLEET_DEATH), driver_hook=dog.install)
        assert isinstance(dog.tripped, MeasurementFault)
        assert result.failed
        assert "no driver progress" in result.failure
        # Partial diagnostics survive the abort (like any SutFailure).
        assert result.diagnostics["driver.pushed_weight"] > 0
        assert dog.outcome(result) == "stalled"

    def test_healthy_trial_never_trips(self):
        dog = TrialWatchdog(WatchdogSpec(stall_s=5.0, timeout_s=600.0))
        result = run_experiment(_spec(), driver_hook=dog.install)
        assert dog.tripped is None
        assert not result.failed
        assert dog.outcome(result) == "completed"

    def test_watchdog_abort_is_logged_as_fatal_fault(self):
        dog = TrialWatchdog(WatchdogSpec(stall_s=5.0))
        captured = {}

        def hook(driver):
            captured["driver"] = driver
            dog.install(driver)

        run_experiment(_spec(FLEET_DEATH), driver_hook=hook)
        fatal = [e for e in captured["driver"].fault_log if e.get("fatal")]
        assert fatal and fatal[0]["kind"] == "watchdog"


class TestRetry:
    def test_stalled_trial_retried_with_fresh_seed_and_backoff(self):
        sleeps = []
        wd = WatchdogSpec(stall_s=5.0, max_attempts=3, backoff_base_s=0.2)
        result = run_experiment_with_watchdog(
            _spec(FLEET_DEATH), wd, sleep=sleeps.append
        )
        # The fleet is dead on every attempt: all three stall.
        assert [a.outcome for a in result.attempts] == ["stalled"] * 3
        assert [a.seed for a in result.attempts] == [3, 4, 5]
        assert sleeps == [0.2, 0.4]
        assert result.diagnostics["watchdog.attempts"] == 3.0
        assert result.diagnostics["watchdog.retries"] == 2.0
        assert result.diagnostics["watchdog.tripped"] == 1.0

    def test_clean_trial_runs_once(self):
        result = run_experiment_with_watchdog(
            _spec(), WatchdogSpec(stall_s=5.0), sleep=lambda s: None
        )
        assert not result.failed
        assert [a.outcome for a in result.attempts] == ["completed"]
        assert result.diagnostics["watchdog.retries"] == 0.0
        assert result.diagnostics["watchdog.tripped"] == 0.0

    def test_non_watchdog_failure_is_not_retried(self):
        # An overloaded trial fails on its own; the watchdog must not
        # mistake a legitimate SUT failure for a measurement problem.
        spec = ExperimentSpec(
            engine="flink",
            query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
            workers=2,
            profile=3e6,
            duration_s=40.0,
            seed=2,
            generator=GeneratorConfig(
                instances=2, queue_capacity_seconds=2.0
            ),
            monitor_resources=False,
        )
        result = run_experiment_with_watchdog(
            spec, WatchdogSpec(stall_s=10.0), sleep=lambda s: None
        )
        assert result.failed
        assert [a.outcome for a in result.attempts] == ["failed"]

    def test_attempts_survive_into_the_export(self):
        from repro.analysis.export import trial_to_dict

        result = run_experiment_with_watchdog(
            _spec(FLEET_DEATH),
            WatchdogSpec(stall_s=5.0, max_attempts=2, backoff_base_s=0.0),
            sleep=lambda s: None,
        )
        payload = trial_to_dict(result)
        assert [a["outcome"] for a in payload["attempts"]] == [
            "stalled",
            "stalled",
        ]


class TestFailureTaxonomy:
    def test_measurement_fault_is_a_sut_failure(self):
        # Deliberate: the driver's existing failure path converts any
        # SutFailure into a failed TrialResult with partial diagnostics.
        assert issubclass(MeasurementFault, SutFailure)
