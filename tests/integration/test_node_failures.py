"""Node-failure robustness (Related Work extension, Lopez et al.)."""

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.faults.schedule import FaultSchedule, NodeCrash
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery


def run_with_failure(engine, rate, workers=4, fail_at=60.0, duration=160.0):
    return run_experiment(
        ExperimentSpec(
            engine=engine,
            query=WindowedAggregationQuery(window=WindowSpec(8, 4)),
            workers=workers,
            profile=rate,
            duration_s=duration,
            seed=8,
            generator=GeneratorConfig(instances=2),
            faults=FaultSchedule((NodeCrash(at_s=fail_at),)),
            monitor_resources=False,
        )
    )


class TestSpecValidation:
    def test_defaults(self):
        assert NodeCrash(at_s=60.0).nodes == 1

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            NodeCrash(at_s=0.0)
        with pytest.raises(ValueError):
            NodeCrash(at_s=60.0, nodes=0)


class TestCapacityLoss:
    def test_active_workers_reported(self):
        result = run_with_failure("flink", 0.3e6)
        assert result.diagnostics["active_workers"] == 3.0

    def test_capacity_drops_after_failure(self):
        # Offered at ~90% of the 4-node Storm capacity: fine before the
        # failure, unsustainable on 3 workers afterwards.
        result = run_with_failure("storm", 0.6e6)
        occupancy = result.throughput.occupancy_series
        before = occupancy.window(30.0, 55.0).mean()
        after = occupancy.window(100.0, 160.0).mean()
        assert after > before + 0.5e6

    def test_killing_all_workers_fails_the_trial(self):
        # Losing every worker is not survivable: no recovery protocol
        # applies, so the trial is reported failed (it used to clamp to
        # one surviving worker, silently under-injecting the fault).
        result = run_experiment(
            ExperimentSpec(
                engine="flink",
                query=WindowedAggregationQuery(window=WindowSpec(8, 4)),
                workers=2,
                profile=0.1e6,
                duration_s=80.0,
                generator=GeneratorConfig(instances=2),
                faults=FaultSchedule((NodeCrash(at_s=30.0, nodes=5),)),
                monitor_resources=False,
            )
        )
        assert result.failed
        assert "killed all" in result.failure
        assert result.failure_time == pytest.approx(30.0, abs=1.5)


class TestRecoverySemantics:
    def test_storm_loses_window_state(self):
        result = run_with_failure("storm", 0.3e6)
        assert result.diagnostics["state_lost_weight"] > 0

    @pytest.mark.parametrize("engine", ["spark", "flink"])
    def test_checkpoint_lineage_engines_lose_nothing(self, engine):
        result = run_with_failure(engine, 0.3e6)
        assert result.diagnostics["state_lost_weight"] == 0.0

    def test_failure_causes_latency_spike(self):
        result = run_with_failure("flink", 0.3e6)
        series = result.collector.binned_series(
            bin_s=5.0, start_time=result.warmup_s
        )
        spike = max(series.values)
        calm = min(series.values)
        assert spike > calm + 4.0  # the recovery pause shows up

    def test_spark_recovers_fastest(self):
        """Lopez et al.: Spark is the most robust to node failures --
        its post-failure latency excess is the smallest (short lineage
        recomputation vs. Storm's topology rebalancing and replay)."""

        def excess_latency(result):
            series = result.collector.binned_series(bin_s=5.0, start_time=0.0)
            before = series.window(30.0, 58.0).mean()
            after = series.window(66.0, result.duration_s).mean()
            return after - before

        spark = excess_latency(run_with_failure("spark", 0.4e6))
        storm = excess_latency(run_with_failure("storm", 0.4e6))
        assert spark < storm
