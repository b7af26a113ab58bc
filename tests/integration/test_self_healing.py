"""Self-healing acceptance tests (PR 4).

The headline scenarios from the issue:

- a NodeCrash that kills the *last* worker fails the trial when no
  standby exists (flagged on the TrialResult with diagnostics intact --
  the satellite-1 regression) and completes with bounded post-recovery
  latency when ``standby=1``;
- shed weight is first-class in the conservation ledgers;
- transient faults below the failure detector's timeout never trigger a
  migration; network partitions never touch the standby pool;
- the search pins the same NaN edge behaviour with and without a
  recovery bound when no rate is ever sustainable.
"""

import math

import pytest

from repro.core.experiment import ExperimentSpec, run_experiment
from repro.core.generator import GeneratorConfig
from repro.core.sustainable import (
    SustainabilityCriteria,
    find_sustainable_throughput,
)
from repro.engines import engine_class
from repro.faults.schedule import (
    FaultSchedule,
    NetworkPartition,
    NodeCrash,
    SlowNode,
)
from repro.recovery.reschedule import MODE_SPREAD
from repro.workloads.queries import WindowSpec, WindowedAggregationQuery


def make_spec(**overrides):
    base = dict(
        engine="flink",
        query=WindowedAggregationQuery(window=WindowSpec(8, 4)),
        workers=2,
        profile=0.2e6,
        duration_s=60.0,
        seed=5,
        generator=GeneratorConfig(instances=2),
        monitor_resources=False,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def crash_all_workers(**overrides):
    return make_spec(
        faults=FaultSchedule((NodeCrash(at_s=30.0, nodes=2),)), **overrides
    )


class TestLastWorkerCrash:
    """The acceptance criterion: standby pools turn a fatal crash into a
    survivable one, and the fatal case degrades gracefully."""

    def test_no_standby_fails_with_diagnostics_preserved(self):
        # Satellite 1: SutFailure mid-run must leave a *failed* trial
        # with partial diagnostics, not a half-empty result.
        result = run_experiment(crash_all_workers())
        assert result.failed
        assert "standby" in (result.failure or "")
        assert result.failure_time == pytest.approx(30.0, abs=2.0)
        # Diagnostics survive: the fault was logged before the abort.
        assert result.diagnostics["faults_injected"] == 1.0
        assert result.diagnostics["active_workers"] == 0.0
        assert "conservation.ingested" in result.diagnostics
        assert result.recovery is not None and len(result.recovery) == 1

    def test_one_standby_survives_with_bounded_latency(self):
        result = run_experiment(crash_all_workers(standby=1))
        assert not result.failed
        assert result.diagnostics["standbys_promoted"] == 1.0
        # Post-recovery the SUT caught up: the backlog at trial end is
        # bounded, not diverging.
        assert result.throughput.queue_delay_at_end() < 10.0
        assert result.event_latency.p99 < 30.0

    def test_partial_crash_with_spread_pays_migration(self):
        # MODE_SPREAD migrates the dead node's state share over the
        # survivors: same survivor count as legacy, but a real pause.
        legacy = run_experiment(
            make_spec(
                faults=FaultSchedule((NodeCrash(at_s=30.0, nodes=1),)),
                workers=4,
            )
        )
        spread = run_experiment(
            make_spec(
                faults=FaultSchedule((NodeCrash(at_s=30.0, nodes=1),)),
                workers=4,
                reschedule=MODE_SPREAD,
            )
        )
        assert not legacy.failed and not spread.failed
        assert (
            spread.diagnostics["recovery_pause_total_s"]
            > legacy.diagnostics["recovery_pause_total_s"]
        )


class TestTransientFaultsAndStandbys:
    def test_short_slowdown_never_migrates(self):
        # 1.5 s straggler < 2 s detection timeout: the fault clears
        # before the detector fires, so the standby stays in the pool.
        result = run_experiment(
            make_spec(
                faults=FaultSchedule(
                    (SlowNode(at_s=30.0, nodes=1, factor=0.5, duration_s=1.5),)
                ),
                standby=1,
            )
        )
        assert not result.failed
        assert result.diagnostics["standbys_promoted"] == 0.0
        assert result.diagnostics["standbys_available"] == 1.0

    def test_detected_straggler_is_replaced(self):
        result = run_experiment(
            make_spec(
                faults=FaultSchedule(
                    (SlowNode(at_s=30.0, nodes=1, factor=0.5, duration_s=15.0),)
                ),
                standby=1,
            )
        )
        assert not result.failed
        assert result.diagnostics["standbys_promoted"] == 1.0
        assert result.diagnostics["standbys_available"] == 0.0

    def test_network_partition_never_touches_the_pool(self):
        # A partition is nobody's fault: no node died, nothing to
        # reschedule, the pool must be untouched.
        result = run_experiment(
            make_spec(
                faults=FaultSchedule(
                    (NetworkPartition(at_s=30.0, duration_s=5.0),)
                ),
                standby=1,
            )
        )
        assert not result.failed
        assert result.diagnostics["standbys_promoted"] == 0.0
        assert result.diagnostics["standbys_available"] == 1.0


class TestLoadShedding:
    def test_shed_bounds_latency_and_balances_ledgers(self):
        baseline = run_experiment(make_spec(profile=2.5e6, duration_s=40.0))
        shed = run_experiment(
            make_spec(
                profile=2.5e6,
                duration_s=40.0,
                degradation=engine_class("flink").recommended_degradation,
            )
        )
        # Shedding holds the queueing delay inside the policy bound
        # where the baseline backlog grows without limit.
        assert baseline.throughput.queue_delay_at_end() > 10.0
        assert shed.throughput.queue_delay_at_end() < 5.0
        d = shed.diagnostics
        assert d["shed_weight"] > 0.0
        # Driver-side ledger: pushed == pulled + queued + shed.
        assert d["driver.pushed_weight"] == pytest.approx(
            d["driver.pulled_weight"]
            + d["driver.queued_weight"]
            + d["driver.shed_weight"],
            rel=1e-9,
        )
        # The engine's shed term mirrors the driver's (same events).
        assert d["conservation.shed"] == pytest.approx(
            d["driver.shed_weight"], rel=1e-9
        )

    def test_inert_policy_sheds_nothing(self):
        result = run_experiment(make_spec(duration_s=40.0))
        assert result.diagnostics["shed_weight"] == 0.0
        assert result.diagnostics["driver.shed_weight"] == 0.0


class TestSearchNotFound:
    def test_nan_edge_pinned_across_both_searches(self):
        # When no probed rate is ever sustainable, the search with and
        # without a recovery bound must agree on the NaN "not found"
        # contract (not report an unprobed floor as measured).
        failed = run_experiment(crash_all_workers(duration_s=40.0))
        assert failed.failed

        def always_fails(spec):
            return failed

        plain = find_sustainable_throughput(
            make_spec(), high_rate=1e6, max_trials=3, run=always_fails
        )
        bounded = find_sustainable_throughput(
            crash_all_workers(),
            high_rate=1e6,
            criteria=SustainabilityCriteria(max_recovery_time_s=60.0),
            max_trials=3,
            run=always_fails,
        )
        assert math.isnan(plain.sustainable_rate)
        assert math.isnan(bounded.sustainable_rate)
        assert not plain.found and not bounded.found
        # Both actually probed (trials recorded, all unsustainable).
        assert plain.trial_count == 3
        assert bounded.trial_count == 3
        assert all(not t.verdict.sustainable for t in plain.trials)
