"""Unit tests for per-cell recovery-efficiency accounting."""

import json
import math

from repro.recoverybench.efficiency import (
    RecoveryEfficiency,
    efficiency_from_digest,
    recovery_cost_node_s,
)

NAN = float("nan")


def _fault(**overrides):
    base = {
        "recovered": True,
        "recovery_time_s": 9.0,
        "detection_phase_s": 2.0,
        "restore_phase_s": 3.0,
        "catchup_phase_s": 4.0,
        "catchup_throughput": 4.0e4,
        "baseline_p99_s": 2.0,
        "post_p99_s": 3.0,
        "lost_weight": 120.0,
        "duplicated_weight": 30.0,
    }
    base.update(overrides)
    return base


def _digest(**overrides):
    base = {
        "failed": False,
        "fault": _fault(),
        "violations": [],
        "guarantee": "exactly-once",
        "ingested_weight": 1200.0,
        "recovery_cost_node_s": 18.0,
    }
    base.update(overrides)
    return base


class TestRecoveryCost:
    def test_recovered_bills_the_recovery_window(self):
        cost = recovery_cost_node_s(
            billed_nodes=3, fault_time_s=24.0, recovery_time_s=9.0,
            duration_s=60.0,
        )
        assert cost == 27.0

    def test_unrecovered_bills_through_end_of_trial(self):
        cost = recovery_cost_node_s(
            billed_nodes=2, fault_time_s=24.0, recovery_time_s=NAN,
            duration_s=60.0,
        )
        assert cost == 2 * 36.0

    def test_window_is_capped_at_the_trial_duration(self):
        cost = recovery_cost_node_s(
            billed_nodes=1, fault_time_s=10.0, recovery_time_s=500.0,
            duration_s=60.0,
        )
        assert cost == 60.0

    def test_standby_machines_cost_more(self):
        without = recovery_cost_node_s(2, 24.0, 9.0, 60.0)
        with_standby = recovery_cost_node_s(3, 24.0, 9.0, 60.0)
        assert with_standby > without


class TestEfficiencyFromDigest:
    def test_round_trips_the_fault_block(self):
        cell = efficiency_from_digest(_digest(), "flink", "spread", "crash")
        assert cell.engine == "flink"
        assert cell.policy == "spread"
        assert cell.kind == "crash"
        assert cell.guarantee == "exactly-once"
        assert cell.recovered
        assert cell.detection_s == 2.0
        assert cell.restore_s == 3.0
        assert cell.catchup_s == 4.0
        assert cell.recovery_time_s == 9.0
        assert cell.recovery_cost_node_s == 18.0
        assert cell.ok

    def test_fractions_are_normalized_by_ingested_weight(self):
        cell = efficiency_from_digest(_digest(), "flink", "none", "crash")
        assert cell.lost_fraction == 120.0 / 1200.0
        assert cell.duplicated_fraction == 30.0 / 1200.0

    def test_zero_ingested_weight_gives_zero_fractions(self):
        digest = _digest(ingested_weight=0.0)
        cell = efficiency_from_digest(digest, "flink", "none", "crash")
        assert cell.lost_fraction == 0.0
        assert cell.duplicated_fraction == 0.0

    def test_p99_inflation_is_post_over_baseline(self):
        cell = efficiency_from_digest(_digest(), "flink", "none", "crash")
        assert cell.p99_inflation == 1.5

    def test_p99_inflation_nan_guard(self):
        digest = _digest(fault=_fault(post_p99_s=None))
        cell = efficiency_from_digest(digest, "flink", "none", "crash")
        assert math.isnan(cell.p99_inflation)
        digest = _digest(fault=_fault(baseline_p99_s=0.0))
        cell = efficiency_from_digest(digest, "flink", "none", "crash")
        assert math.isnan(cell.p99_inflation)

    def test_missing_fault_block_yields_unrecovered_nan_record(self):
        digest = _digest(fault=None, failed=True)
        cell = efficiency_from_digest(digest, "storm", "none", "crash")
        assert cell.failed
        assert not cell.recovered
        assert math.isnan(cell.recovery_time_s)
        assert math.isnan(cell.detection_s)
        assert cell.lost_weight == 0.0
        assert cell.duplicated_weight == 0.0

    def test_violations_break_ok(self):
        digest = _digest(violations=["flink/none/crash: ledger broken"])
        cell = efficiency_from_digest(digest, "flink", "none", "crash")
        assert not cell.ok
        assert cell.violations == ("flink/none/crash: ledger broken",)

    def test_to_dict_is_json_safe(self):
        digest = _digest(fault=_fault(recovery_time_s=None, recovered=False))
        payload = efficiency_from_digest(
            digest, "flink", "none", "crash"
        ).to_dict()
        assert payload["recovery_time_s"] is None
        assert json.loads(json.dumps(payload)) == payload
