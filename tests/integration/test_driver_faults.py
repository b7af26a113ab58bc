"""Driver-side fault injection end to end.

The measurement plane is a fault domain too: these tests injure the
*instrument* (generators, driver queues) and check that the benchmark
stays honest -- the driver ledger balances with the new ``lost`` term,
a dead generator's share is re-attained by the survivors within the
detection window, and the SUT never sees any of it.
"""

import pytest

from repro.core.driver import REBALANCE_DETECTION_S
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.faults.schedule import (
    DriverNodeSlow,
    DriverQueueLoss,
    FaultSchedule,
    GeneratorCrash,
)
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery

RATE = 24_000.0
CRASH_AT = 20.0
DETECTION_S = REBALANCE_DETECTION_S


def _spec(events, instances=4, duration_s=60.0, **cfg) -> ExperimentSpec:
    return ExperimentSpec(
        engine="flink",
        query=WindowedAggregationQuery(window=WindowSpec(8.0, 4.0)),
        workers=2,
        profile=RATE,
        duration_s=duration_s,
        seed=9,
        generator=GeneratorConfig(instances=instances, **cfg),
        monitor_resources=False,
        faults=FaultSchedule(tuple(events)),
    )


def ledger_residual(diagnostics) -> float:
    return (
        diagnostics["driver.pushed_weight"]
        - diagnostics["driver.pulled_weight"]
        - diagnostics["driver.queued_weight"]
        - diagnostics["driver.shed_weight"]
        - diagnostics["driver.lost_weight"]
    )


class TestGeneratorCrash:
    @pytest.fixture(scope="class")
    def crashed(self):
        captured = {}
        result = run_experiment(
            _spec([GeneratorCrash(at_s=CRASH_AT, instance=1)]),
            driver_hook=lambda d: captured.update(driver=d),
        )
        return result, captured["driver"]

    def test_trial_survives_and_ledger_balances(self, crashed):
        result, _ = crashed
        assert not result.failed
        scale = max(1.0, result.diagnostics["driver.pushed_weight"])
        assert abs(ledger_residual(result.diagnostics)) <= 1e-6 * scale

    def test_offered_rate_reattained_within_detection_window(self, crashed):
        result, driver = crashed
        # Ingest settles back to the full offered rate once the fleet
        # rebalances (detection window + one throughput bin of slack).
        series = result.throughput.ingest_series
        recovered = [
            v
            for t, v in zip(series.times, series.values)
            if t > CRASH_AT + DETECTION_S + 2.0
        ]
        assert recovered
        assert min(recovered) == pytest.approx(RATE, rel=0.02)
        assert result.diagnostics["driver.rebalances"] == 1.0
        assert result.diagnostics["driver.offered_shortfall_frac"] == 0.0
        # During the detection window the fleet really was degraded.
        degraded = [
            v
            for t, v in zip(series.times, series.values)
            if CRASH_AT < t <= CRASH_AT + DETECTION_S
        ]
        assert degraded and min(degraded) < 0.9 * RATE

    def test_crash_and_rebalance_are_logged(self, crashed):
        _, driver = crashed
        kinds = [entry["kind"] for entry in driver.fault_log]
        assert kinds == ["gencrash", "rebalance"]
        rebalance = driver.fault_log[1]
        assert rebalance["at_s"] == pytest.approx(CRASH_AT + DETECTION_S)
        assert rebalance["survivors"] == 3.0
        assert rebalance["share"] == pytest.approx(1.0 / 3.0)

    def test_dead_queue_does_not_wedge_the_watermark(self, crashed):
        result, _ = crashed
        # Windows keep closing after the crash: outputs exist whose
        # emit time is well past the crash + window span.
        series = result.collector.series()
        assert series.times.max() > CRASH_AT + 20.0

    def test_overprovision_shortfall_is_first_class(self):
        # Kill 3 of 4 instances: the survivor is capped at
        # overprovision/instances = 0.5 of the profile, so half the
        # offered load is unservable -- and the diagnostics must say so.
        events = [
            GeneratorCrash(at_s=CRASH_AT + i, instance=i) for i in range(3)
        ]
        result = run_experiment(_spec(events, duration_s=50.0))
        assert not result.failed
        assert result.diagnostics["driver.offered_shortfall_frac"] == (
            pytest.approx(0.5)
        )
        scale = max(1.0, result.diagnostics["driver.pushed_weight"])
        assert abs(ledger_residual(result.diagnostics)) <= 1e-6 * scale

    def test_whole_fleet_death_keeps_ledger_balanced(self):
        events = [
            GeneratorCrash(at_s=CRASH_AT + i, instance=i) for i in range(4)
        ]
        result = run_experiment(_spec(events, duration_s=40.0))
        scale = max(1.0, result.diagnostics["driver.pushed_weight"])
        assert abs(ledger_residual(result.diagnostics)) <= 1e-6 * scale


class TestDriverQueueLoss:
    def test_lost_weight_enters_the_ledger(self):
        # Inject mid-tick (off the pull boundary) so the queue holds
        # freshly pushed, not-yet-pulled weight to lose.
        captured = {}
        result = run_experiment(
            _spec([DriverQueueLoss(at_s=20.025, queue_index=0)]),
            driver_hook=lambda d: captured.update(driver=d),
        )
        assert not result.failed
        d = result.diagnostics
        scale = max(1.0, d["driver.pushed_weight"])
        assert abs(ledger_residual(d)) <= 1e-6 * scale
        (entry,) = [
            e for e in captured["driver"].fault_log if e["kind"] == "queueloss"
        ]
        assert entry["lost_weight"] == d["driver.lost_weight"]
        assert d["driver.lost_weight"] > 0

    def test_sut_is_never_told(self):
        result = run_experiment(
            _spec([DriverQueueLoss(at_s=20.025, queue_index=0)])
        )
        # Engine-side fault accounting stays empty: the fault lives
        # entirely in the measurement plane.
        assert result.diagnostics.get("faults_injected", 0.0) == 0.0


class TestDriverNodeSlow:
    def test_rate_dips_then_recovers(self):
        result = run_experiment(
            _spec(
                [
                    DriverNodeSlow(
                        at_s=20.0, instance=0, factor=0.4, duration_s=10.0
                    )
                ]
            )
        )
        assert not result.failed
        series = result.throughput.ingest_series
        during = [
            v
            for t, v in zip(series.times, series.values)
            if 21.0 < t <= 29.0
        ]
        after = [
            v
            for t, v in zip(series.times, series.values)
            if t > 32.0
        ]
        # One of four instances at 0.4x: fleet rate ~ 0.85x offered.
        assert during and max(during) < 0.95 * RATE
        assert after and min(after) == pytest.approx(RATE, rel=0.02)


class TestRecoveryMetrology:
    def test_driver_faults_get_recovery_entries(self):
        result = run_experiment(
            _spec([GeneratorCrash(at_s=CRASH_AT, instance=0)])
        )
        assert result.recovery is not None
        kinds = {entry.kind for entry in result.recovery}
        assert "gencrash" in kinds
