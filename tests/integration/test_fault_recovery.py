"""The fault-recovery benchmark layer, end to end.

Multi-fault timelines, derived recovery pauses, delivery-guarantee
accounting, and the under-faults sustainability criteria -- everything
above the single-crash robustness cases in test_node_failures.py.
"""

import pytest

import repro.engines.ext  # noqa: F401  (registers heron/samza)
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.sustainable import (
    SustainabilityCriteria,
    assess,
)
from repro.faults import (
    CheckpointSpec,
    DeliveryGuarantee,
    FaultSchedule,
    NetworkPartition,
    NodeCrash,
    ProcessRestart,
    QueueDisconnect,
    SlowNode,
)
from repro.faults.checkpoint import DETECTION_TIMEOUT_S
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery


def fault_spec(engine="flink", faults=(), rate=0.25e6, duration=160.0, **kw):
    return ExperimentSpec(
        engine=engine,
        query=WindowedAggregationQuery(window=WindowSpec(8, 4)),
        workers=4,
        profile=rate,
        duration_s=duration,
        seed=23,
        generator=GeneratorConfig(instances=2),
        faults=FaultSchedule(tuple(faults)),
        monitor_resources=False,
        **kw,
    )


class TestSpecWiring:
    def test_late_fault_rejected(self):
        spec = fault_spec(faults=[NodeCrash(at_s=500.0)], duration=160.0)
        with pytest.raises(ValueError, match="never fire"):
            run_experiment(spec)

    def test_fault_free_trial_has_no_recovery_metrics(self):
        result = run_experiment(
            ExperimentSpec(
                engine="flink",
                duration_s=60.0,
                profile=0.1e6,
                monitor_resources=False,
            )
        )
        assert result.recovery is None

    @pytest.mark.parametrize("engine", ["flink", "spark", "storm"])
    def test_recovery_counters_present_as_zeros_without_faults(self, engine):
        result = run_experiment(
            ExperimentSpec(
                engine=engine,
                duration_s=60.0,
                profile=0.1e6,
                monitor_resources=False,
            )
        )
        for key in (
            "faults_injected",
            "lost_weight",
            "duplicated_weight",
            "checkpoints_completed",
            "recovery_pause_total_s",
            "state_lost_weight",
        ):
            assert result.diagnostics[key] == 0.0, (engine, key)


class TestDeterminism:
    def test_same_seed_bit_identical_recovery(self):
        spec = fault_spec(
            faults=[
                SlowNode(at_s=40.0, factor=0.5, duration_s=15.0),
                NodeCrash(at_s=70.0),
                NetworkPartition(at_s=110.0, duration_s=8.0),
            ]
        )
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert [m.recovery_time_s for m in a.recovery] == [
            m.recovery_time_s for m in b.recovery
        ]
        assert [m.injected_pause_s for m in a.recovery] == [
            m.injected_pause_s for m in b.recovery
        ]
        assert a.diagnostics["lost_weight"] == b.diagnostics["lost_weight"]
        assert a.mean_ingest_rate == b.mean_ingest_rate

    def test_different_seed_differs(self):
        spec = fault_spec(faults=[NodeCrash(at_s=70.0)])
        a = run_experiment(spec)
        b = run_experiment(spec.with_seed(99))
        # Ingest below capacity is seed-invariant; latency is not.
        assert a.recovery[0].baseline_p99_s != b.recovery[0].baseline_p99_s


class TestGuaranteesEndToEnd:
    def test_exactly_once_engines_lose_nothing(self):
        for engine in ("flink", "spark"):
            result = run_experiment(
                fault_spec(engine=engine, faults=[NodeCrash(at_s=70.0)])
            )
            assert result.diagnostics["lost_weight"] == 0.0, engine
            assert result.diagnostics["duplicated_weight"] == 0.0, engine

    def test_at_most_once_storm_loses_but_never_duplicates(self):
        result = run_experiment(
            fault_spec(engine="storm", faults=[NodeCrash(at_s=70.0)])
        )
        assert result.diagnostics["lost_weight"] > 0.0
        assert result.diagnostics["duplicated_weight"] == 0.0
        assert result.diagnostics["state_lost_weight"] == (
            result.diagnostics["lost_weight"]
        )

    def test_guarantee_override_turns_storm_lossless(self):
        # Acking enabled: at-least-once replay -- duplicates, no loss.
        result = run_experiment(
            fault_spec(
                engine="storm",
                faults=[NodeCrash(at_s=70.0)],
                checkpoint=CheckpointSpec(
                    guarantee=DeliveryGuarantee.AT_LEAST_ONCE
                ),
            )
        )
        assert result.diagnostics["lost_weight"] == 0.0
        assert result.diagnostics["duplicated_weight"] > 0.0

    def test_at_least_once_samza_duplicates(self):
        result = run_experiment(
            fault_spec(engine="samza", faults=[NodeCrash(at_s=70.0)])
        )
        assert result.diagnostics["lost_weight"] == 0.0
        assert result.diagnostics["duplicated_weight"] > 0.0


class TestFaultKinds:
    def test_restart_returns_capacity(self):
        result = run_experiment(
            fault_spec(faults=[ProcessRestart(at_s=70.0)])
        )
        # The bounced worker comes back after the recovery pause.
        assert result.diagnostics["active_workers"] == 4.0
        assert result.diagnostics["faults_injected"] == 1.0
        (m,) = result.recovery
        assert m.kind == "restart"
        assert m.recovered

    def test_crash_capacity_stays_lost(self):
        result = run_experiment(fault_spec(faults=[NodeCrash(at_s=70.0)]))
        assert result.diagnostics["active_workers"] == 3.0

    def test_partition_stalls_ingest_then_catches_up(self):
        result = run_experiment(
            fault_spec(faults=[NetworkPartition(at_s=70.0, duration_s=10.0)])
        )
        ingest = result.throughput.ingest_series
        during = ingest.window(71.0, 79.0).mean()
        before = ingest.window(50.0, 69.0).mean()
        assert during < 0.1 * before
        (m,) = result.recovery
        assert m.recovered
        # Catch-up drains the stranded backlog above the offered rate.
        assert m.catchup_throughput > before

    def test_slow_node_degrades_without_data_loss(self):
        result = run_experiment(
            fault_spec(
                faults=[SlowNode(at_s=70.0, factor=0.3, duration_s=20.0)],
                rate=0.5e6,
            )
        )
        assert result.diagnostics["lost_weight"] == 0.0
        (m,) = result.recovery
        assert m.kind == "slow"

    def test_queue_disconnect_stalls_watermark(self):
        result = run_experiment(
            fault_spec(
                faults=[QueueDisconnect(at_s=70.0, duration_s=8.0)]
            )
        )
        (m,) = result.recovery
        # Windows cannot close while one queue is unreachable: the
        # event-time latency excursion lasts at least the outage.
        assert m.recovered
        assert m.recovery_time_s >= 8.0

    def test_repeated_crashes_accumulate(self):
        result = run_experiment(
            fault_spec(
                faults=[NodeCrash(at_s=60.0), NodeCrash(at_s=110.0)],
                duration=200.0,
            )
        )
        assert result.diagnostics["active_workers"] == 2.0
        assert result.diagnostics["faults_injected"] == 2.0
        assert len(result.recovery) == 2


class TestDerivedPause:
    def test_longer_checkpoint_interval_longer_outage(self):
        # Crash just before the next checkpoint: the replay window (and
        # with it the derived pause) scales with the interval.
        def pause(interval):
            result = run_experiment(
                fault_spec(
                    faults=[NodeCrash(at_s=59.0)],
                    checkpoint=CheckpointSpec(interval_s=interval),
                )
            )
            return result.recovery[0].injected_pause_s

        assert pause(30.0) > pause(10.0) + 5.0

    def test_detection_time_recorded(self):
        result = run_experiment(fault_spec(faults=[NodeCrash(at_s=70.0)]))
        (m,) = result.recovery
        assert m.detection_s == DETECTION_TIMEOUT_S

    def test_checkpoints_pause_only_checkpointing_engines(self):
        flink = run_experiment(fault_spec(faults=[NodeCrash(at_s=70.0)]))
        storm = run_experiment(
            fault_spec(engine="storm", faults=[NodeCrash(at_s=70.0)])
        )
        assert flink.diagnostics["checkpoints_completed"] > 0
        # Tuple-replay engines take no periodic checkpoint pauses.
        assert storm.diagnostics["checkpoints_completed"] == 0.0


class TestUnderFaultsCriteria:
    def test_recovered_trial_passes_recovery_bound(self):
        result = run_experiment(fault_spec(faults=[NodeCrash(at_s=70.0)]))
        criteria = SustainabilityCriteria(
            max_recovery_time_s=60.0, max_lost_weight=0.0
        )
        verdict = assess(result, criteria)
        recovery_reasons = [
            r for r in verdict.reasons if "recover" in r or "lost" in r
        ]
        assert not recovery_reasons

    def test_slow_recovery_flagged(self):
        result = run_experiment(fault_spec(faults=[NodeCrash(at_s=70.0)]))
        criteria = SustainabilityCriteria(max_recovery_time_s=1.0)
        verdict = assess(result, criteria)
        assert not verdict.sustainable
        assert any("recover" in r for r in verdict.reasons)

    def test_data_loss_flagged(self):
        result = run_experiment(
            fault_spec(engine="storm", faults=[NodeCrash(at_s=70.0)])
        )
        criteria = SustainabilityCriteria(max_lost_weight=0.0)
        verdict = assess(result, criteria)
        assert any("lost" in r for r in verdict.reasons)
